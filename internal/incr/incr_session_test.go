package incr

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/ssta"
)

// TestSPSTAClearRestoresBaseline: applying overrides and then
// clearing them must land the session bit-identically back on the
// initial full analysis — the contract a cached delta session relies
// on to serve edit lists that shrink between requests.
func TestSPSTAClearRestoresBaseline(t *testing.T) {
	c := gen(t, "s344")
	in := experiments.Inputs(c, experiments.ScenarioI)
	inc, err := NewSPSTA(core.Analyzer{}, c, in)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := (&core.Analyzer{}).Run(c, in)
	if err != nil {
		t.Fatal(err)
	}

	g := pickGate(c)
	launch := c.LaunchPoints()[0]
	if _, err := inc.SetDelay(g, dist.Normal{Mu: 3, Sigma: 0.2}); err != nil {
		t.Fatal(err)
	}
	st := logic.SkewedStats()
	st.Mu = 0.5
	if _, err := inc.SetInput(launch, st); err != nil {
		t.Fatal(err)
	}

	if n, err := inc.ClearDelay(g); err != nil || n == 0 {
		t.Fatalf("ClearDelay: %d recomputations, err %v", n, err)
	}
	if n, err := inc.ClearInput(launch); err != nil || n == 0 {
		t.Fatalf("ClearInput: %d recomputations, err %v", n, err)
	}
	// Clearing an override that does not exist is free.
	if n, err := inc.ClearDelay(g); err != nil || n != 0 {
		t.Fatalf("second ClearDelay: %d recomputations, err %v", n, err)
	}

	for _, n := range c.Nodes {
		for v := logic.Zero; v < logic.NumValues; v++ {
			if got, want := inc.Result().Probability(n.ID, v), ref.Probability(n.ID, v); got != want {
				t.Fatalf("%s P[%v]: cleared session %v, baseline %v", n.Name, v, got, want)
			}
		}
		for _, d := range []ssta.Dir{ssta.DirRise, ssta.DirFall} {
			gm, gs, gp := inc.Result().Arrival(n.ID, d)
			wm, ws, wp := ref.Arrival(n.ID, d)
			if gm != wm || gs != ws || gp != wp {
				t.Fatalf("%s %v: cleared session (%v,%v,%v), baseline (%v,%v,%v)",
					n.Name, d, gm, gs, gp, wm, ws, wp)
			}
		}
	}
}

func TestSSTAClearRestoresBaseline(t *testing.T) {
	c := gen(t, "s298")
	in := experiments.Inputs(c, experiments.ScenarioI)
	inc := NewSSTA(c, in, nil)
	ref := ssta.Analyze(c, in, nil)

	g := pickGate(c)
	launch := c.LaunchPoints()[0]
	inc.SetDelay(g, dist.Normal{Mu: 2.5, Sigma: 0.3})
	st := logic.UniformStats()
	st.Mu, st.Sigma = 1.0, 0.5
	inc.SetInput(launch, st)
	if n, _ := inc.ClearDelay(g); n == 0 {
		t.Fatal("ClearDelay recomputed nothing")
	}
	if n, _ := inc.ClearInput(launch); n == 0 {
		t.Fatal("ClearInput recomputed nothing")
	}
	for _, n := range c.Nodes {
		for _, d := range []ssta.Dir{ssta.DirRise, ssta.DirFall} {
			got, want := inc.At(n.ID, d), ref.At(n.ID, d)
			if math.Abs(got.Mu-want.Mu) > 0 || math.Abs(got.Sigma-want.Sigma) > 0 {
				t.Fatalf("%s %v: cleared %v, baseline %v", n.Name, d, got, want)
			}
		}
	}
}

// TestSPSTASetObsRedirectsCost: after SetObs, recomputation work is
// attributed to the new scope, not the session's original one.
func TestSPSTASetObsRedirectsCost(t *testing.T) {
	c := gen(t, "s344")
	in := experiments.Inputs(c, experiments.ScenarioI)
	build := obs.NewScope()
	inc, err := NewSPSTA(core.Analyzer{Obs: build}, c, in)
	if err != nil {
		t.Fatal(err)
	}
	buildCost := build.M().CostUnits()
	if buildCost == 0 {
		t.Fatal("initial run recorded no cost")
	}

	reqScope := obs.NewScope()
	inc.SetObs(reqScope)
	if _, err := inc.SetDelay(pickGate(c), dist.Normal{Mu: 2, Sigma: 0.1}); err != nil {
		t.Fatal(err)
	}
	if got := reqScope.M().CostUnits(); got == 0 {
		t.Error("recomputation cost not attributed to the new scope")
	}
	if got := build.M().CostUnits(); got != buildCost {
		t.Errorf("recomputation leaked %d cost units into the build scope", got-buildCost)
	}
}
