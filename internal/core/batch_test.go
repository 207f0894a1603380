package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/synth"
)

// varDelay is the variational scenario of the equivalence suite: the
// paper's unit mean with a 20% sigma, so every level convolves.
func varDelay(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} }

// compareNetStateBins requires bit-identical probabilities and bin
// values but, unlike compareNetState, not identical supports: at
// ε = 0 the batch convolution may over-approximate a support with
// exactly-zero edge bins, which the PMF invariant permits and every
// downstream kernel treats bitwise-identically.
func compareNetStateBins(t *testing.T, c *netlist.Circuit, id netlist.NodeID, s, b *NetState) {
	t.Helper()
	name := c.Nodes[id].Name
	for v := range s.P {
		if math.Float64bits(s.P[v]) != math.Float64bits(b.P[v]) {
			t.Fatalf("%s: P[%d]: sequential %v batched %v", name, v, s.P[v], b.P[v])
		}
	}
	if math.Float64bits(s.Budget) != math.Float64bits(b.Budget) {
		t.Fatalf("%s: Budget: sequential %v batched %v", name, s.Budget, b.Budget)
	}
	for d := range s.TOP {
		st, bt := s.TOP[d], b.TOP[d]
		for i := 0; i < st.Grid().N; i++ {
			if math.Float64bits(st.W(i)) != math.Float64bits(bt.W(i)) {
				t.Fatalf("%s: TOP[%d] bin %d: sequential %v batched %v", name, d, i, st.W(i), bt.W(i))
			}
		}
		for _, p := range []*dist.PMF{st, bt} {
			lo, hi := p.Support()
			for i := 0; i < p.Grid().N; i++ {
				if (i < lo || i >= hi) && p.W(i) != 0 {
					t.Fatalf("%s: TOP[%d] bin %d = %v outside support [%d,%d)", name, d, i, p.W(i), lo, hi)
				}
			}
		}
	}
}

// TestBatchedRunMatchesSequential is the float64 equivalence suite:
// on every synthetic benchmark, for deterministic and variational
// delays, ε ∈ {0, 1e-4} and worker counts {1, 4}, the batched
// scheduler must reproduce the sequential per-gate scheduler's
// probabilities and t.o.p. bins bit for bit. Run with -race (make
// check does) to also exercise the phase fan-outs.
func TestBatchedRunMatchesSequential(t *testing.T) {
	cs, err := synth.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []struct {
		name  string
		delay ssta.DelayModel
	}{
		{"unit", nil}, // default ssta.UnitDelay: Sigma = 0, shift path
		{"var", varDelay},
	}
	for _, c := range cs {
		in := uniform(c)
		for _, sc := range scenarios {
			for _, eps := range []float64{0, 1e-4} {
				seqA := Analyzer{Workers: 1, Delay: sc.delay, ErrorBudget: eps, Batched: BatchOff}
				rs, err := seqA.Run(c, in)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/eps=%g/w=%d", c.Name, sc.name, eps, w), func(t *testing.T) {
						ba := Analyzer{Workers: w, Delay: sc.delay, ErrorBudget: eps, Batched: BatchOn}
						ba.SerialCutoff = -1 // dispatch every level
						rb, err := ba.Run(c, in)
						if err != nil {
							t.Fatal(err)
						}
						for id := range rs.State {
							compareNetStateBins(t, c, netlist.NodeID(id), &rs.State[id], &rb.State[id])
						}
					})
				}
			}
		}
	}
}

// TestBatchedExactProbabilitiesMatchesSequential covers the phase-T
// exact-probability correction (and the fallback interleave on parity
// gates, which ExactProbabilities circuits exercise heavily).
func TestBatchedExactProbabilitiesMatchesSequential(t *testing.T) {
	cs, err := synth.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		in := skewed(c)
		t.Run(c.Name, func(t *testing.T) {
			seqA := Analyzer{Workers: 1, ExactProbabilities: true, Batched: BatchOff}
			ba := Analyzer{Workers: 4, ExactProbabilities: true, Batched: BatchOn, SerialCutoff: -1}
			rs, err := seqA.Run(c, in)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := ba.Run(c, in)
			if err != nil {
				t.Fatal(err)
			}
			for id := range rs.State {
				compareNetStateBins(t, c, netlist.NodeID(id), &rs.State[id], &rb.State[id])
			}
		})
	}
}

// TestBatchedPruneCertificate checks that the ε certificate survives
// batching: the per-net Budget must bound the true deviation from the
// exact (ε = 0) batched run, just as the sequential scheduler
// guarantees.
func TestBatchedPruneCertificate(t *testing.T) {
	cs, err := synth.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-4
	for _, c := range cs {
		in := uniform(c)
		t.Run(c.Name, func(t *testing.T) {
			exact := Analyzer{Workers: 1, Delay: varDelay}
			pruned := Analyzer{Workers: 1, Delay: varDelay, ErrorBudget: eps}
			re, err := exact.Run(c, in)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := pruned.Run(c, in)
			if err != nil {
				t.Fatal(err)
			}
			for id := range re.State {
				se, sp := &re.State[id], &rp.State[id]
				if sp.Budget < sp.PrunedMass {
					t.Fatalf("%s: Budget %v < PrunedMass %v", c.Nodes[id].Name, sp.Budget, sp.PrunedMass)
				}
				for v := range se.P {
					if d := math.Abs(se.P[v] - sp.P[v]); d > sp.Budget+1e-12 {
						t.Fatalf("%s: P[%d] deviates by %g, certificate %g",
							c.Nodes[id].Name, v, d, sp.Budget)
					}
				}
			}
		})
	}
}
