package incr

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/synth"
)

func gen(t testing.TB, name string) *netlist.Circuit {
	t.Helper()
	p, ok := synth.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// pickGate returns a shallow gate with a non-trivial fanout cone.
func pickGate(c *netlist.Circuit) netlist.NodeID {
	for _, n := range c.Nodes {
		if n.Type.Combinational() && n.Level == 1 && len(n.Fanout) > 0 {
			return n.ID
		}
	}
	panic("no level-1 gate")
}

func TestSSTAIncrementalMatchesFull(t *testing.T) {
	c := gen(t, "s344")
	in := experiments.Inputs(c, experiments.ScenarioI)
	inc := NewSSTA(c, in, nil)

	// Change three gate delays one by one; after each, the
	// incremental result equals a from-scratch analysis with the
	// same overrides.
	over := map[netlist.NodeID]dist.Normal{}
	gates := []netlist.NodeID{}
	for _, n := range c.Nodes {
		if n.Type.Combinational() {
			gates = append(gates, n.ID)
		}
		if len(gates) == 3 {
			break
		}
	}
	for i, g := range gates {
		d := dist.Normal{Mu: 2 + float64(i), Sigma: 0.1 * float64(i)}
		over[g] = d
		evals, _ := inc.SetDelay(g, d)
		if evals == 0 {
			t.Fatalf("SetDelay recomputed nothing")
		}
		full := ssta.Analyze(c, in, func(n *netlist.Node) dist.Normal {
			if dd, ok := over[n.ID]; ok {
				return dd
			}
			return ssta.UnitDelay(n)
		})
		for _, n := range c.Nodes {
			for _, dir := range []ssta.Dir{ssta.DirRise, ssta.DirFall} {
				got := inc.At(n.ID, dir)
				want := full.At(n.ID, dir)
				if math.Abs(got.Mu-want.Mu) > 1e-9 || math.Abs(got.Sigma-want.Sigma) > 1e-9 {
					t.Fatalf("after change %d, %s %v: incremental %v vs full %v",
						i, n.Name, dir, got, want)
				}
			}
		}
	}
}

func TestSSTAIncrementalTouchesOnlyCone(t *testing.T) {
	c := gen(t, "s1196")
	in := experiments.Inputs(c, experiments.ScenarioI)
	inc := NewSSTA(c, in, nil)
	g := pickGate(c)
	evals, _ := inc.SetDelay(g, dist.Normal{Mu: 1.5, Sigma: 0})
	total := c.Stats().Gates
	if evals >= total/2 {
		t.Errorf("incremental update recomputed %d of %d gates", evals, total)
	}
	if evals < 1 {
		t.Error("nothing recomputed")
	}
}

func TestSSTAIncrementalInputChange(t *testing.T) {
	c := gen(t, "s298")
	in := experiments.Inputs(c, experiments.ScenarioI)
	inc := NewSSTA(c, in, nil)
	launch := c.LaunchPoints()[0]
	st := logic.UniformStats()
	st.Mu, st.Sigma = 1.5, 0.3
	inc.SetInput(launch, st)
	in2 := experiments.Inputs(c, experiments.ScenarioI)
	in2[launch] = st
	full := ssta.Analyze(c, in2, nil)
	for _, n := range c.Nodes {
		got := inc.At(n.ID, ssta.DirRise)
		want := full.At(n.ID, ssta.DirRise)
		if math.Abs(got.Mu-want.Mu) > 1e-9 {
			t.Fatalf("%s: incremental %v vs full %v", n.Name, got, want)
		}
	}
}

// TestSSTAEarlyCutoff: a change that does not alter any arrival
// (identical override) recomputes the node and stops.
func TestSSTAEarlyCutoff(t *testing.T) {
	c := gen(t, "s298")
	in := experiments.Inputs(c, experiments.ScenarioI)
	inc := NewSSTA(c, in, nil)
	g := pickGate(c)
	evals, _ := inc.SetDelay(g, dist.Normal{Mu: 1, Sigma: 0}) // same as unit
	if evals != 1 {
		t.Errorf("no-op change recomputed %d nodes, want 1", evals)
	}
}

func TestSPSTAIncrementalMatchesFull(t *testing.T) {
	c := gen(t, "s298")
	in := experiments.Inputs(c, experiments.ScenarioI)
	var a core.Analyzer
	inc, err := NewSPSTA(a, c, in)
	if err != nil {
		t.Fatal(err)
	}
	launch := c.LaunchPoints()[1]
	st := logic.SkewedStats()
	evals, err := inc.SetInput(launch, st)
	if err != nil {
		t.Fatal(err)
	}
	if evals == 0 {
		t.Fatal("nothing recomputed")
	}
	in2 := experiments.Inputs(c, experiments.ScenarioI)
	in2[launch] = st
	full, err := a.Run(c, in2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		for v := logic.Zero; v < logic.NumValues; v++ {
			got := inc.Result().Probability(n.ID, v)
			want := full.Probability(n.ID, v)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s P[%v]: incremental %v vs full %v", n.Name, v, got, want)
			}
		}
		for _, d := range []ssta.Dir{ssta.DirRise, ssta.DirFall} {
			gm, gs, gp := inc.Result().Arrival(n.ID, d)
			wm, ws, wp := full.Arrival(n.ID, d)
			if math.Abs(gp-wp) > 1e-9 || math.Abs(gm-wm) > 1e-6 || math.Abs(gs-ws) > 1e-6 {
				t.Fatalf("%s %v: incremental (%v,%v,%v) vs full (%v,%v,%v)",
					n.Name, d, gm, gs, gp, wm, ws, wp)
			}
		}
	}
}

func TestSPSTAIncrementalConeOnly(t *testing.T) {
	c := gen(t, "s1196")
	in := experiments.Inputs(c, experiments.ScenarioI)
	var a core.Analyzer
	inc, err := NewSPSTA(a, c, in)
	if err != nil {
		t.Fatal(err)
	}
	// A launch point with modest fanout: the update must not visit
	// the whole circuit.
	launch := c.LaunchPoints()[0]
	st := logic.UniformStats()
	st.Mu = 0.5
	evals, err := inc.SetInput(launch, st)
	if err != nil {
		t.Fatal(err)
	}
	if evals >= len(c.Nodes) {
		t.Errorf("update visited %d of %d nodes", evals, len(c.Nodes))
	}
	// Invalid statistics are rejected before touching state.
	if _, err := inc.SetInput(launch, logic.InputStats{P: [4]float64{2, 0, 0, 0}}); err == nil {
		t.Error("invalid stats accepted")
	}
}

func TestSPSTAIncrementalDelayChange(t *testing.T) {
	c := gen(t, "s298")
	in := experiments.Inputs(c, experiments.ScenarioI)
	var a core.Analyzer
	inc, err := NewSPSTA(a, c, in)
	if err != nil {
		t.Fatal(err)
	}
	g := pickGate(c)
	evals, err := inc.SetDelay(g, dist.Normal{Mu: 2.5, Sigma: 0})
	if err != nil {
		t.Fatal(err)
	}
	if evals == 0 {
		t.Fatal("nothing recomputed")
	}
	full := core.Analyzer{Delay: func(n *netlist.Node) dist.Normal {
		if n.ID == g {
			return dist.Normal{Mu: 2.5, Sigma: 0}
		}
		return ssta.UnitDelay(n)
	}}
	want, err := full.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		for _, d := range []ssta.Dir{ssta.DirRise, ssta.DirFall} {
			gm, gs, gp := inc.Result().Arrival(n.ID, d)
			wm, ws, wp := want.Arrival(n.ID, d)
			if math.Abs(gp-wp) > 1e-9 || math.Abs(gm-wm) > 1e-6 || math.Abs(gs-ws) > 1e-6 {
				t.Fatalf("%s %v: incremental (%v,%v,%v) vs full (%v,%v,%v)",
					n.Name, d, gm, gs, gp, wm, ws, wp)
			}
		}
	}
}

// TestSPSTARejectsExactProbabilities: the whole-circuit steps a cone
// update cannot replay are rejected up front — the exact-probability
// correction, and grid coarsening, whose re-binning deviation a cone
// recomputed on the final coarse grid would never add.
func TestSPSTARejectsExactProbabilities(t *testing.T) {
	c := gen(t, "s298")
	in := experiments.Inputs(c, experiments.ScenarioI)
	for name, a := range map[string]core.Analyzer{
		"exact probabilities": {ExactProbabilities: true},
		"auto coarsening":     {Coarsen: core.CoarsenPolicy{Mode: core.CoarsenAuto}},
	} {
		if _, err := NewSPSTA(a, c, in); err == nil {
			t.Errorf("%s: analyzer accepted for incremental use", name)
		}
	}
}
