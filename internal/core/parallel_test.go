package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/synth"
)

// varDelay is the variational delay scenario of the scheduler tests:
// the paper's unit mean with a 20% sigma, so every level convolves.
func varDelay(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} }

// TestParallelRunMatchesSerial asserts the tentpole determinism
// contract: a parallel Run is bin-for-bin bit-identical to the serial
// run on every synthetic benchmark circuit, for the plain analyzer,
// the ExactProbabilities and MIS configurations, and variational
// delays with and without ε-pruning plus auto coarsening. Gates within
// a level share no state, so parallelism reorders the schedule but
// never the per-node float arithmetic. Run with -race to also check
// the level barrier (disjoint-slot writes, fanin reads).
func TestParallelRunMatchesSerial(t *testing.T) {
	cs, err := synth.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		name string
		a    Analyzer
	}{
		{"plain", Analyzer{}},
		{"exact", Analyzer{ExactProbabilities: true}},
		{"mis", Analyzer{MIS: misModel}},
		{"var", Analyzer{Delay: varDelay}},
		{"var-pruned-coarsened", Analyzer{Delay: varDelay, ErrorBudget: 1e-4, Coarsen: autoPolicy()}},
	}
	for _, c := range cs {
		in := uniform(c)
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("%s/%s", c.Name, cfg.name), func(t *testing.T) {
				serial, parallel := cfg.a, cfg.a
				serial.Workers = 1
				parallel.Workers = 4
				rs, err := serial.Run(c, in)
				if err != nil {
					t.Fatal(err)
				}
				rp, err := parallel.Run(c, in)
				if err != nil {
					t.Fatal(err)
				}
				for id := range rs.State {
					compareNetState(t, c, netlist.NodeID(id), &rs.State[id], &rp.State[id])
				}
			})
		}
	}
}

// compareNetState requires bitwise equality: identical probabilities,
// certificates, supports and bin values. Any tolerance here would
// hide a schedule dependence.
func compareNetState(t *testing.T, c *netlist.Circuit, id netlist.NodeID, s, p *NetState) {
	t.Helper()
	name := c.Nodes[id].Name
	for v := range s.P {
		if math.Float64bits(s.P[v]) != math.Float64bits(p.P[v]) {
			t.Fatalf("%s: P[%d]: serial %v parallel %v", name, v, s.P[v], p.P[v])
		}
	}
	if math.Float64bits(s.Budget) != math.Float64bits(p.Budget) {
		t.Fatalf("%s: Budget: serial %v parallel %v", name, s.Budget, p.Budget)
	}
	for d := range s.TOP {
		st, pt := s.TOP[d], p.TOP[d]
		slo, shi := st.Support()
		plo, phi := pt.Support()
		if slo != plo || shi != phi {
			t.Fatalf("%s: TOP[%d] support: serial [%d,%d) parallel [%d,%d)", name, d, slo, shi, plo, phi)
		}
		for i := 0; i < st.Grid().N; i++ {
			if math.Float64bits(st.W(i)) != math.Float64bits(pt.W(i)) {
				t.Fatalf("%s: TOP[%d] bin %d: serial %v parallel %v", name, d, i, st.W(i), pt.W(i))
			}
		}
	}
}

// TestBatchedRunMatchesSequential is the float64 equivalence suite on
// the full scenario grid: on every synthetic benchmark, for
// deterministic and variational delays, ε ∈ {0, 1e-4} and worker
// counts {1, 4} (4 dispatches every level of at least 16 gates), a
// run must reproduce the sequential Workers=1 run bit for bit. The
// name is older than the single level scheduler; it once compared a
// second, batched scheduler against the per-gate one on this same
// grid.
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
				seqA := Analyzer{Workers: 1, Delay: sc.delay, ErrorBudget: eps}
				rs, err := seqA.Run(c, in)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/eps=%g/w=%d", c.Name, sc.name, eps, w), func(t *testing.T) {
						a := Analyzer{Workers: w, Delay: sc.delay, ErrorBudget: eps}
						ra, err := a.Run(c, in)
						if err != nil {
							t.Fatal(err)
						}
						for id := range rs.State {
							compareNetState(t, c, netlist.NodeID(id), &rs.State[id], &ra.State[id])
						}
					})
				}
			}
		}
	}
}

// TestBatchedExactProbabilitiesMatchesSequential runs the same check
// for the exact-probability correction on skewed inputs, which
// exercises the parity-gate paths heavily. Like the suite above, it is
// named for the batched scheduler it used to compare.
func TestBatchedExactProbabilitiesMatchesSequential(t *testing.T) {
	cs, err := synth.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		in := skewed(c)
		t.Run(c.Name, func(t *testing.T) {
			seqA := Analyzer{Workers: 1, ExactProbabilities: true}
			a := Analyzer{Workers: 4, ExactProbabilities: true}
			rs, err := seqA.Run(c, in)
			if err != nil {
				t.Fatal(err)
			}
			ra, err := a.Run(c, in)
			if err != nil {
				t.Fatal(err)
			}
			for id := range rs.State {
				compareNetState(t, c, netlist.NodeID(id), &rs.State[id], &ra.State[id])
			}
		})
	}
}

// TestParallelErrorDeterministic: the first error in level order is
// returned regardless of worker count. A parity gate wider than the
// cap triggers it; filler gates make the level wide enough for
// Workers=4 to dispatch it.
func TestParallelErrorDeterministic(t *testing.T) {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n" +
		"y = XOR(a, b, a, b, a, b, a, b)\n" +
		"z = XOR(b, a, b, a, b, a, b, a)\n" +
		fillerGates(2, dispatchWidth*4)
	c := parse(t, src, "wide-parity")
	in := uniform(c)
	a := Analyzer{MaxParityFanin: 3, Workers: 1}
	_, errSerial := a.Run(c, in)
	if errSerial == nil {
		t.Fatal("expected parity-cap error")
	}
	a.Workers = 4
	for i := 0; i < 8; i++ {
		_, errPar := a.Run(c, in)
		if errPar == nil || errPar.Error() != errSerial.Error() {
			t.Fatalf("parallel error %q != serial %q", errPar, errSerial)
		}
	}
}

// TestParallelPanicReachesCaller: a panic inside a gate evaluation
// must surface on the goroutine that called Run, never on a pool
// worker (where nothing can recover it and the process dies). Two
// gates of one level panic with their own names; under every worker
// count the recovered value must be the first of them in level order,
// the same contract runLevels keeps for errors. MomentTiming always
// runs serially, so its row checks the inline path.
func TestParallelPanicReachesCaller(t *testing.T) {
	c, err := synth.Generate(mustProfile(t, "s344"))
	if err != nil {
		t.Fatal(err)
	}
	in := uniform(c)
	var first, second *netlist.Node
	for _, level := range c.Levelize() {
		var gates []*netlist.Node
		for _, id := range level {
			if n := c.Nodes[id]; n.Type.Combinational() && len(n.Fanin) > 0 {
				gates = append(gates, n)
			}
		}
		if len(gates) >= dispatchWidth*4 {
			first, second = gates[len(gates)/4], gates[3*len(gates)/4]
			break
		}
	}
	if first == nil {
		t.Fatal("no level with enough gates")
	}
	delay := func(n *netlist.Node) dist.Normal {
		if n == first || n == second {
			panic(n.Name)
		}
		return ssta.UnitDelay(n)
	}
	recovered := func(run func()) (v any) {
		defer func() { v = recover() }()
		run()
		return nil
	}
	for _, w := range []int{1, 4} {
		for i := 0; i < 4; i++ {
			runs := map[string]func(){
				"Analyzer": func() {
					_, _ = (&Analyzer{Workers: w, Delay: delay}).Run(c, in)
				},
				"MomentTiming": func() {
					_, _ = (&MomentTiming{Delay: delay}).Run(c, in)
				},
			}
			for name, run := range runs {
				if got := recovered(run); got != first.Name {
					t.Fatalf("%s w=%d: recovered %v, want the panic of %s (first in level order)",
						name, w, got, first.Name)
				}
			}
		}
	}
}

// fillerGates returns .bench lines for AND gates f<from> … f<to-1>
// of inputs a and b, each an output: passing gates that widen the
// level of a test circuit.
func fillerGates(from, to int) string {
	var b strings.Builder
	for i := from; i < to; i++ {
		fmt.Fprintf(&b, "OUTPUT(f%d)\nf%d = AND(a, b)\n", i, i)
	}
	return b.String()
}
