package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/ssta"
	"repro/internal/synth"
)

func TestToggleMomentsLaunchScenarios(t *testing.T) {
	c := parse(t, "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n", "buf")
	a, _ := c.Node("a")
	y, _ := c.Node("y")

	tm := AnalyzeToggleMoments(c, uniform(c))
	approx(t, "scenario I mean", tm.Mean[a.ID], 0.5, 1e-12)
	approx(t, "scenario I var", tm.Var(a.ID), 0.25, 1e-12)
	// A buffer passes activity through unchanged and fully
	// correlated.
	approx(t, "buffer mean", tm.Mean[y.ID], 0.5, 1e-12)
	approx(t, "buffer var", tm.Var(y.ID), 0.25, 1e-12)
	approx(t, "buffer corr", tm.Corr(a.ID, y.ID), 1, 1e-12)

	tm2 := AnalyzeToggleMoments(c, skewed(c))
	approx(t, "scenario II mean", tm2.Mean[a.ID], 0.1, 1e-12)
	approx(t, "scenario II var", tm2.Var(a.ID), 0.09, 1e-12)
}

// TestToggleMomentsMeanEqualsTransitionDensity: the Eq. 13 mean
// recurrence is exactly Najm's Eq. 6, so the means must coincide
// with power.TransitionDensities.
func TestToggleMomentsMeanEqualsTransitionDensity(t *testing.T) {
	p, _ := synth.ProfileByName("s344")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in := skewed(c)
	tm := AnalyzeToggleMoments(c, in)
	inputP := make(map[netlist.NodeID]float64)
	dens := make(map[netlist.NodeID]float64)
	for _, id := range c.LaunchPoints() {
		inputP[id] = in[id].SignalProbability()
		dens[id] = in[id].TogglingRate()
	}
	rho := power.TransitionDensities(c, inputP, dens)
	for _, n := range c.Nodes {
		if math.Abs(tm.Mean[n.ID]-rho[n.ID]) > 1e-9 {
			t.Fatalf("%s: Eq.13 mean %v vs Eq.6 density %v", n.Name, tm.Mean[n.ID], rho[n.ID])
		}
	}
}

// TestToggleMomentsSharedFanoutCorrelation: two buffers driven by
// the same input have perfectly correlated activity; the variance of
// a gate reconverging them reflects it.
func TestToggleMomentsSharedFanoutCorrelation(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
b1 = BUFF(a)
b2 = BUFF(a)
c1 = BUFF(b)
y  = AND(b1, c1)
`
	c := parse(t, src, "fanout")
	tm := AnalyzeToggleMoments(c, uniform(c))
	b1, _ := c.Node("b1")
	b2, _ := c.Node("b2")
	cn1, _ := c.Node("c1")
	approx(t, "corr(b1,b2)", tm.Corr(b1.ID, b2.ID), 1, 1e-12)
	approx(t, "corr(b1,c1)", tm.Corr(b1.ID, cn1.ID), 0, 1e-12)
	// Independent launches have zero covariance.
	a, _ := c.Node("a")
	bn, _ := c.Node("b")
	approx(t, "cov(a,b)", tm.Cov(a.ID, bn.ID), 0, 0)
}

func TestToggleMomentsVarianceNonNegative(t *testing.T) {
	for _, p := range synth.Profiles()[:5] {
		c, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		tm := AnalyzeToggleMoments(c, uniform(c))
		for _, n := range c.Nodes {
			if tm.Var(n.ID) < -1e-12 {
				t.Fatalf("%s/%s: negative toggling variance %v", p.Name, n.Name, tm.Var(n.ID))
			}
			if r := tm.Corr(n.ID, n.ID); tm.Var(n.ID) > 0 && math.Abs(r-1) > 1e-9 {
				t.Fatalf("%s/%s: self correlation %v", p.Name, n.Name, r)
			}
		}
	}
}

// TestMomentTimingMatchesDiscreteProbabilities: the analytic
// abstraction computes the same four-value probabilities as the
// discretized analyzer (probabilities do not depend on the timing
// abstraction).
func TestMomentTimingMatchesDiscreteProbabilities(t *testing.T) {
	p, _ := synth.ProfileByName("s382")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in := skewed(c)
	discrete := run(t, c, in)
	var mt MomentTiming
	analytic, err := mt.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		for v := logic.Zero; v < logic.NumValues; v++ {
			got := analytic.Probability(n.ID, v)
			want := discrete.Probability(n.ID, v)
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("%s P[%v]: analytic %v vs discrete %v", n.Name, v, got, want)
			}
		}
	}
}

// TestMomentTimingCloseToDiscreteArrivals: the Clark abstraction
// tracks the discretized arrival moments closely on the benchmark
// suite.
func TestMomentTimingCloseToDiscreteArrivals(t *testing.T) {
	p, _ := synth.ProfileByName("s298")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in := uniform(c)
	discrete := run(t, c, in)
	var mt MomentTiming
	analytic, err := mt.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	end := c.CriticalEndpoint()
	for _, d := range []ssta.Dir{ssta.DirRise, ssta.DirFall} {
		dm, ds, dp := discrete.Arrival(end, d)
		an, ap := analytic.Arrival(end, d)
		if dp < 0.01 {
			continue
		}
		approx(t, d.String()+" prob", ap, dp, 1e-6)
		approx(t, d.String()+" mean", an.Mu, dm, 0.15)
		approx(t, d.String()+" sigma", an.Sigma, ds, 0.25)
	}
}

func TestMomentTimingANDGateClosedForm(t *testing.T) {
	c := parse(t, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")
	var mt MomentTiming
	res, err := mt.Run(c, uniform(c))
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.Node("y")
	arr, prob := res.Arrival(y.ID, ssta.DirRise)
	approx(t, "prob", prob, 3.0/16, 1e-12)
	approx(t, "mean", arr.Mu, 1+(1.0/3)/math.Sqrt(math.Pi), 1e-9)
}

func TestMomentTimingFaninCap(t *testing.T) {
	// One input over DefaultMaxMomentFanin (16).
	var src strings.Builder
	var ins []string
	for i := 0; i <= DefaultMaxMomentFanin; i++ {
		fmt.Fprintf(&src, "INPUT(i%d)\n", i)
		ins = append(ins, fmt.Sprintf("i%d", i))
	}
	fmt.Fprintf(&src, "OUTPUT(y)\ny = AND(%s)\n", strings.Join(ins, ", "))
	c := parse(t, src.String(), "and17")
	var mt MomentTiming
	if _, err := mt.Run(c, uniform(c)); err == nil || !strings.Contains(err.Error(), "moment cap") {
		t.Errorf("fanin over cap: err = %v, want the moment cap", err)
	}
}
