package core

import (
	"math"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/synth"
)

// scenarios returns both paper input scenarios for a circuit.
func scenarios(c *netlist.Circuit) map[string]map[netlist.NodeID]logic.InputStats {
	return map[string]map[netlist.NodeID]logic.InputStats{
		"uniform": uniform(c),
		"skewed":  skewed(c),
	}
}

func sameNetState(a, b *NetState) bool {
	if a.P != b.P || a.PrunedMass != b.PrunedMass || a.Budget != b.Budget {
		return false
	}
	for d := range a.TOP {
		pa, pb := a.TOP[d], b.TOP[d]
		la, ha := pa.Support()
		lb, hb := pb.Support()
		if la != lb || ha != hb {
			return false
		}
		for k := la; k < ha; k++ {
			if pa.W(k) != pb.W(k) {
				return false
			}
		}
	}
	return true
}

// TestPruneZeroBitIdentical: with ErrorBudget 0 the Analyzer must
// report zero pruned mass and consumed budget everywhere, for every
// bundled circuit and both scenarios, and be bit-identical to the
// exact serial run at several worker counts.
func TestPruneZeroBitIdentical(t *testing.T) {
	for _, p := range synth.Profiles() {
		c, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for scen, in := range scenarios(c) {
			ref := run(t, c, in)
			for _, workers := range []int{1, 4} {
				a := Analyzer{Workers: workers, ErrorBudget: 0}
				res, err := a.Run(c, in)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range c.Nodes {
					st := &res.State[n.ID]
					if st.PrunedMass != 0 || st.Budget != 0 {
						t.Fatalf("%s/%s w=%d %s: ε=0 reports pruning (%v, %v)",
							p.Name, scen, workers, n.Name, st.PrunedMass, st.Budget)
					}
					if !sameNetState(st, &ref.State[n.ID]) {
						t.Fatalf("%s/%s w=%d %s: ε=0 not bit-identical to exact run",
							p.Name, scen, workers, n.Name)
					}
				}
			}
		}
	}
}

// TestPruneDeviationWithinBudget: across every bundled circuit, both
// scenarios and two budgets, the pruned Analyzer's four-value
// probabilities deviate from the exact ε=0 run by at most the
// reported consumed budget, arrival means/sigmas stay within
// DeviationBounds, probabilities still sum to 1, and the local spend
// respects ε.
func TestPruneDeviationWithinBudget(t *testing.T) {
	const slack = 1e-9
	for _, p := range synth.Profiles() {
		c, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for scen, in := range scenarios(c) {
			exact := run(t, c, in)
			for _, eps := range []float64{1e-4, 1e-2} {
				a := Analyzer{Workers: 1, ErrorBudget: eps}
				res, err := a.Run(c, in)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range c.Nodes {
					st := &res.State[n.ID]
					if st.PrunedMass > eps+slack {
						t.Fatalf("%s/%s ε=%g %s: local spend %v exceeds ε",
							p.Name, scen, eps, n.Name, st.PrunedMass)
					}
					sum := 0.0
					for v := logic.Zero; v < logic.NumValues; v++ {
						sum += st.P[v]
						if d := math.Abs(st.P[v] - exact.State[n.ID].P[v]); d > st.Budget+slack {
							t.Fatalf("%s/%s ε=%g %s: P[%v] deviates %v > budget %v",
								p.Name, scen, eps, n.Name, v, d, st.Budget)
						}
					}
					if math.Abs(sum-1) > 1e-6 {
						t.Fatalf("%s/%s ε=%g %s: probabilities sum to %v",
							p.Name, scen, eps, n.Name, sum)
					}
					for _, d := range []ssta.Dir{ssta.DirRise, ssta.DirFall} {
						em, es, ep := exact.Arrival(n.ID, d)
						gm, gs, gp := res.Arrival(n.ID, d)
						if ep < 1e-9 || gp < 1e-9 {
							continue
						}
						_, mb, sb := res.DeviationBounds(n.ID, d)
						if diff := math.Abs(gm - em); diff > mb+slack {
							t.Fatalf("%s/%s ε=%g %s dir=%v: mean deviates %v > bound %v",
								p.Name, scen, eps, n.Name, d, diff, mb)
						}
						if diff := math.Abs(gs - es); diff > sb+slack {
							t.Fatalf("%s/%s ε=%g %s dir=%v: sigma deviates %v > bound %v",
								p.Name, scen, eps, n.Name, d, diff, sb)
						}
					}
				}
			}
		}
	}
}

// TestPruneDeterministicAcrossWorkers: pruning decisions are per gate
// with per-gate budgets, so a pruned run must stay bit-identical for
// any worker count.
func TestPruneDeterministicAcrossWorkers(t *testing.T) {
	p, _ := synth.ProfileByName("s1238")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for scen, in := range scenarios(c) {
		for _, eps := range []float64{1e-4, 1e-2} {
			ref, err := (&Analyzer{Workers: 1, ErrorBudget: eps}).Run(c, in)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 7} {
				res, err := (&Analyzer{Workers: workers, ErrorBudget: eps}).Run(c, in)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range c.Nodes {
					if !sameNetState(&res.State[n.ID], &ref.State[n.ID]) {
						t.Fatalf("%s ε=%g w=%d %s: pruned run differs from serial",
							scen, eps, workers, n.Name)
					}
				}
			}
		}
	}
}

// TestPruneActuallyPrunes guards against the budget silently never
// being spent: at ε=1e-4 the benchmark circuits must report nonzero
// pruned mass and a narrower launch t.o.p. support than the exact run.
func TestPruneActuallyPrunes(t *testing.T) {
	p, _ := synth.ProfileByName("s1238")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in := uniform(c)
	exact := run(t, c, in)
	res, err := (&Analyzer{Workers: 1, ErrorBudget: 1e-4}).Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPrunedMass() <= 0 {
		t.Fatal("ε=1e-4 run pruned nothing")
	}
	if res.MaxConsumedBudget() <= 0 {
		t.Fatal("ε=1e-4 run consumed no budget")
	}
	launch := c.LaunchPoints()[0]
	elo, ehi := exact.State[launch].TOP[ssta.DirRise].Support()
	plo, phi := res.State[launch].TOP[ssta.DirRise].Support()
	if phi-plo >= ehi-elo {
		t.Fatalf("launch t.o.p. support did not shrink: exact %d bins, pruned %d bins",
			ehi-elo, phi-plo)
	}
}

// TestPruneCertificate checks the ε certificate under variational
// delays: the per-net Budget must bound the true deviation of the
// four-value probabilities from the exact (ε = 0) run.
func TestPruneCertificate(t *testing.T) {
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
