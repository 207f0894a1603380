package core

import (
	"math"
	"testing"

	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/ssta"
	"repro/internal/synth"
)

// autoPolicy is the guard-profile auto policy the property tests
// exercise: default factor and threshold.
func autoPolicy() CoarsenPolicy { return CoarsenPolicy{Mode: CoarsenAuto} }

// TestCoarsenOffBitIdentical: a run with an explicit CoarsenOff policy
// at ε=0 must stay bit-identical to the exact single-grid engine for
// every bundled circuit, both scenarios, both schedulers and several
// worker counts — the zero value must never leak certificate or grid
// state into the default path.
func TestCoarsenOffBitIdentical(t *testing.T) {
	for _, p := range synth.Profiles() {
		c, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for scen, in := range scenarios(c) {
			ref := run(t, c, in)
			for _, batched := range []BatchMode{BatchAuto, BatchOff} {
				for _, workers := range []int{1, 4} {
					a := Analyzer{Workers: workers, Batched: batched, Coarsen: CoarsenPolicy{Mode: CoarsenOff}}
					res, err := a.Run(c, in)
					if err != nil {
						t.Fatal(err)
					}
					if res.Grid.N != ref.Grid.N || res.Grid.Dt != ref.Grid.Dt {
						t.Fatalf("%s/%s w=%d batched=%v: coarsen=off changed the grid",
							p.Name, scen, workers, batched.On())
					}
					for _, n := range c.Nodes {
						if !sameNetState(&res.State[n.ID], &ref.State[n.ID]) {
							t.Fatalf("%s/%s w=%d batched=%v %s: coarsen=off not bit-identical",
								p.Name, scen, workers, batched.On(), n.Name)
						}
					}
				}
			}
		}
	}
}

// TestCoarsenDeviationWithinBudget: with auto coarsening on, across
// every bundled circuit, both scenarios and two pruning budgets, the
// four-value probabilities deviate from the exact ε=0 single-grid run
// by at most the reported consumed budget, probabilities still sum
// to 1, and conditional arrival means stay within DeviationBounds —
// the re-binning deviations folded into Budget keep the certificates
// sound end to end.
func TestCoarsenDeviationWithinBudget(t *testing.T) {
	const slack = 1e-9
	for _, p := range synth.Profiles() {
		c, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for scen, in := range scenarios(c) {
			exact := run(t, c, in)
			for _, eps := range []float64{1e-4, 1e-3} {
				a := Analyzer{Workers: 1, ErrorBudget: eps, Coarsen: autoPolicy()}
				res, err := a.Run(c, in)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range c.Nodes {
					st := &res.State[n.ID]
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
						em, _, ep := exact.Arrival(n.ID, d)
						gm, _, gp := res.Arrival(n.ID, d)
						if ep < 1e-9 || gp < 1e-9 {
							continue
						}
						_, mb, _ := res.DeviationBounds(n.ID, d)
						// Half a coarse bin covers the re-binned mean's
						// center-of-bin displacement at the boundary itself.
						if diff := math.Abs(gm - em); diff > mb+res.Grid.Dt/2+slack {
							t.Fatalf("%s/%s ε=%g %s dir=%v: mean deviates %v > bound %v",
								p.Name, scen, eps, n.Name, d, diff, mb)
						}
					}
				}
			}
		}
	}
}

// TestCoarsenZeroEpsCertified: coarsening must certify even with
// pruning disabled — at ε=0 the only deviation source is re-binning,
// and the probability deviations (≈0: re-binning conserves mass
// exactly, so only the summation order of the mass sums moves them)
// must stay within the accumulated budget.
func TestCoarsenZeroEpsCertified(t *testing.T) {
	const slack = 1e-9
	p, _ := synth.ProfileByName("s1196")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in := uniform(c)
	exact := run(t, c, in)
	res, err := (&Analyzer{Workers: 1, Coarsen: CoarsenPolicy{Mode: CoarsenFixed, Factor: 4}}).Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Grid.N >= exact.Grid.N {
		t.Fatalf("fixed ×4 policy did not coarsen: %d -> %d bins", exact.Grid.N, res.Grid.N)
	}
	if res.MaxConsumedBudget() <= 0 {
		t.Fatal("re-binning consumed no budget")
	}
	if res.TotalPrunedMass() != 0 {
		t.Fatalf("re-binning reported pruned mass %v (no mass is removed)", res.TotalPrunedMass())
	}
	for _, n := range c.Nodes {
		st := &res.State[n.ID]
		for v := logic.Zero; v < logic.NumValues; v++ {
			if d := math.Abs(st.P[v] - exact.State[n.ID].P[v]); d > st.Budget+slack {
				t.Fatalf("%s: P[%v] deviates %v > budget %v", n.Name, v, d, st.Budget)
			}
		}
	}
}

// TestCoarsenDeterministicAcrossSchedulers: the coarsening decisions
// depend only on the configuration and the (deterministic) level
// supports, so batched and sequential runs at any worker count must
// agree bit for bit — including the per-net budgets carrying the
// re-binning deviations.
func TestCoarsenDeterministicAcrossSchedulers(t *testing.T) {
	p, _ := synth.ProfileByName("s1196")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for scen, in := range scenarios(c) {
		for _, eps := range []float64{0, 1e-4} {
			ref, err := (&Analyzer{Workers: 1, ErrorBudget: eps, Coarsen: autoPolicy()}).Run(c, in)
			if err != nil {
				t.Fatal(err)
			}
			for _, batched := range []BatchMode{BatchAuto, BatchOff} {
				for _, workers := range []int{1, 2, 4, 7} {
					res, err := (&Analyzer{Workers: workers, Batched: batched, ErrorBudget: eps, Coarsen: autoPolicy()}).Run(c, in)
					if err != nil {
						t.Fatal(err)
					}
					if res.Grid.N != ref.Grid.N {
						t.Fatalf("%s ε=%g batched=%v w=%d: final grid %d bins, want %d",
							scen, eps, batched.On(), workers, res.Grid.N, ref.Grid.N)
					}
					for _, n := range c.Nodes {
						if !sameNetState(&res.State[n.ID], &ref.State[n.ID]) {
							t.Fatalf("%s ε=%g batched=%v w=%d %s: coarsened run differs from serial batched",
								scen, eps, batched.On(), workers, n.Name)
						}
					}
				}
			}
		}
	}
}

// TestCoarsenActuallyCoarsens guards against the auto policy silently
// never firing on the deep benchmark circuits: at ε=1e-4 the s1196
// run must finish on a coarser grid, record re-bin levels and a
// support-width peak in its scope, and mass conservation must hold.
func TestCoarsenActuallyCoarsens(t *testing.T) {
	p, _ := synth.ProfileByName("s1196")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in := uniform(c)
	scope := obs.NewScope()
	a := Analyzer{Workers: 1, ErrorBudget: 1e-4, Coarsen: autoPolicy(), Obs: scope}
	res, err := a.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	fine := run(t, c, in)
	if res.Grid.N >= fine.Grid.N {
		t.Fatalf("auto policy never coarsened: %d bins", res.Grid.N)
	}
	snap := scope.M().Snapshot()
	if snap.Grid.RebinLevels < 1 || snap.Grid.RebinCalls < 1 {
		t.Fatalf("no re-bin boundaries recorded: %+v", snap.Grid)
	}
	if snap.Grid.SupportWidthPeak <= 0 || snap.Grid.SlabBytesPeak <= 0 {
		t.Fatalf("peaks not recorded: %+v", snap.Grid)
	}
	if len(snap.Grid.BinsPerLevelHist) == 0 {
		t.Fatal("bins-per-level histogram empty")
	}
	if snap.Grid.RebinDeviation <= 0 {
		t.Fatal("re-bin deviation total not recorded")
	}
	for _, n := range c.Nodes {
		st := &res.State[n.ID]
		for d := range st.TOP {
			if g := st.TOP[d].Grid(); g.N != res.Grid.N {
				t.Fatalf("%s dir=%d: t.o.p. grid %d bins, result grid %d — result not uniform-resolution",
					n.Name, d, g.N, res.Grid.N)
			}
		}
	}
}

// TestCoarsenPolicyValidation: malformed policies must be rejected
// before any work happens.
func TestCoarsenPolicyValidation(t *testing.T) {
	p, _ := synth.ProfileByName("s208")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in := uniform(c)
	for _, pol := range []CoarsenPolicy{
		{Mode: CoarsenAuto, Factor: 3},
		{Mode: CoarsenFixed, Factor: -2},
		{Mode: CoarsenMode(42)},
		{Mode: CoarsenAuto, Threshold: -1},
	} {
		if _, err := (&Analyzer{Coarsen: pol}).Run(c, in); err == nil {
			t.Fatalf("policy %+v accepted", pol)
		}
	}
	for _, s := range []string{"off", "", "fixed", "auto"} {
		if _, err := ParseCoarsenMode(s); err != nil {
			t.Fatalf("ParseCoarsenMode(%q): %v", s, err)
		}
	}
	if _, err := ParseCoarsenMode("bogus"); err == nil {
		t.Fatal("ParseCoarsenMode accepted bogus")
	}
}
