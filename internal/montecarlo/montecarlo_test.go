package montecarlo

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/ssta"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func parse(t *testing.T, src, name string) *netlist.Circuit {
	t.Helper()
	c, err := bench.Parse(strings.NewReader(src), name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func uniform(c *netlist.Circuit) map[netlist.NodeID]logic.InputStats {
	m := make(map[netlist.NodeID]logic.InputStats)
	for _, id := range c.LaunchPoints() {
		m[id] = logic.UniformStats()
	}
	return m
}

func TestInputSampling(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n"
	c := parse(t, src, "buf")
	res, err := Simulate(c, uniform(c), Config{Runs: 40000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Node("a")
	for v := logic.Zero; v < logic.NumValues; v++ {
		approx(t, "P(a="+v.String()+")", res.P(a.ID, v), 0.25, 0.01)
	}
	approx(t, "signal probability", res.SignalProbability(a.ID), 0.5, 0.01)
	approx(t, "toggling rate", res.TogglingRate(a.ID), 0.5, 0.01)
	// Buffer shifts transitions by the unit delay.
	y, _ := c.Node("y")
	approx(t, "rise mean", res.Arrival(y.ID, ssta.DirRise).Mean(), 1, 0.03)
	approx(t, "rise sigma", res.Arrival(y.ID, ssta.DirRise).Sigma(), 1, 0.03)
	if res.Runs != 40000 {
		t.Errorf("Runs = %d", res.Runs)
	}
}

func TestANDGateProbabilitiesMatchSPSTAClosedForm(t *testing.T) {
	// For a 2-input AND with independent uniform inputs, Eq. 10
	// gives P1 = 1/16, Pr = Pf = (1/4+1/4)² − 1/16 = 3/16.
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
	c := parse(t, src, "and2")
	res, err := Simulate(c, uniform(c), Config{Runs: 60000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.Node("y")
	approx(t, "P1", res.P(y.ID, logic.One), 1.0/16, 0.006)
	approx(t, "Pr", res.P(y.ID, logic.Rise), 3.0/16, 0.008)
	approx(t, "Pf", res.P(y.ID, logic.Fall), 3.0/16, 0.008)
	approx(t, "P0", res.P(y.ID, logic.Zero), 9.0/16, 0.008)
}

func TestANDGateArrivalMoments(t *testing.T) {
	// Rising output of AND: with both inputs rising (prob 1/16 of
	// all runs, 1/3 of rising-output runs) the arrival is
	// max(N(0,1), N(0,1)); with one rising one constant-1 it is the
	// riser's N(0,1). Mixture mean = (2/3)·0 + (1/3)·(1/sqrt(pi)),
	// plus the unit gate delay.
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
	c := parse(t, src, "and2")
	res, err := Simulate(c, uniform(c), Config{Runs: 200000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.Node("y")
	wantRise := 1 + (1.0/3)/math.Sqrt(math.Pi)
	approx(t, "rise mean", res.Arrival(y.ID, ssta.DirRise).Mean(), wantRise, 0.02)
	wantFall := 1 - (1.0/3)/math.Sqrt(math.Pi)
	approx(t, "fall mean", res.Arrival(y.ID, ssta.DirFall).Mean(), wantFall, 0.02)
}

func TestGlitchFiltering(t *testing.T) {
	// AND of r and f produces logic zero (the paper's "we do not
	// count glitch" rule), with glitch pulses counted when enabled.
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
	c := parse(t, src, "and2")
	a, _ := c.Node("a")
	b, _ := c.Node("b")
	in := map[netlist.NodeID]logic.InputStats{
		a.ID: {P: [4]float64{0, 0, 1, 0}, Mu: 0, Sigma: 1}, // always rising
		b.ID: {P: [4]float64{0, 0, 0, 1}, Mu: 0, Sigma: 1}, // always falling
	}
	res, err := Simulate(c, in, Config{Runs: 5000, Seed: 11, CountGlitches: true})
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.Node("y")
	approx(t, "P0", res.P(y.ID, logic.Zero), 1, 0)
	// Roughly half the runs have the rise before the fall,
	// producing a filtered 0→1→0 pulse (2 glitch edges).
	perRun := float64(res.Stats[y.ID].Glitches) / 5000
	approx(t, "glitch edges per run", perRun, 1, 0.06)
}

func TestDeterministicSeed(t *testing.T) {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"
	c := parse(t, src, "nand2")
	r1, err := Simulate(c, uniform(c), Config{Runs: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(c, uniform(c), Config{Runs: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.Node("y")
	if r1.Stats[y.ID].Count != r2.Stats[y.ID].Count {
		t.Error("same seed produced different counts")
	}
	r3, _ := Simulate(c, uniform(c), Config{Runs: 1000, Seed: 43})
	if r1.Stats[y.ID].Count == r3.Stats[y.ID].Count {
		t.Error("different seeds produced identical counts")
	}
}

func TestSkewedScenario(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"
	c := parse(t, src, "inv")
	a, _ := c.Node("a")
	in := map[netlist.NodeID]logic.InputStats{a.ID: logic.SkewedStats()}
	res, err := Simulate(c, in, Config{Runs: 60000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.Node("y")
	// Inverter: P1(y) = P0(a) = 0.75; Pr(y) = Pf(a) = 0.08.
	approx(t, "P1(y)", res.P(y.ID, logic.One), 0.75, 0.01)
	approx(t, "Pr(y)", res.P(y.ID, logic.Rise), 0.08, 0.005)
	approx(t, "Pf(y)", res.P(y.ID, logic.Fall), 0.02, 0.005)
	approx(t, "signal probability", res.SignalProbability(y.ID), 0.8, 0.01)
}

func TestVariationalDelayModel(t *testing.T) {
	// A gate delay with sigma adds variance to the output arrival.
	src := "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n"
	c := parse(t, src, "buf")
	a, _ := c.Node("a")
	in := map[netlist.NodeID]logic.InputStats{
		a.ID: {P: [4]float64{0, 0, 1, 0}, Mu: 0, Sigma: 0}, // rise at exactly 0
	}
	model := func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.25} }
	res, err := Simulate(c, in, Config{Runs: 60000, Seed: 13, Delay: model})
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.Node("y")
	approx(t, "mean", res.Arrival(y.ID, ssta.DirRise).Mean(), 1, 0.01)
	approx(t, "sigma", res.Arrival(y.ID, ssta.DirRise).Sigma(), 0.25, 0.01)
}

func TestConfigValidation(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n"
	c := parse(t, src, "buf")
	if _, err := Simulate(c, uniform(c), Config{Runs: -1}); err == nil {
		t.Error("negative runs accepted")
	}
	a, _ := c.Node("a")
	bad := map[netlist.NodeID]logic.InputStats{
		a.ID: {P: [4]float64{2, 0, 0, 0}},
	}
	if _, err := Simulate(c, bad, Config{Runs: 10}); err == nil {
		t.Error("invalid input stats accepted")
	}
	if _, err := Simulate(c, uniform(c), Config{Runs: 10, MomentNets: []netlist.NodeID{netlist.NodeID(len(c.Nodes))}}); err == nil {
		t.Error("out-of-range moment net accepted")
	}
}

func TestXORSettleAtMax(t *testing.T) {
	// XOR with one rising, one constant input: output switches at
	// the riser's time + delay. With both switching there is no
	// settled output transition.
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n"
	c := parse(t, src, "xor2")
	a, _ := c.Node("a")
	b, _ := c.Node("b")
	in := map[netlist.NodeID]logic.InputStats{
		a.ID: {P: [4]float64{0, 0, 1, 0}, Mu: 2, Sigma: 0},
		b.ID: {P: [4]float64{0.5, 0.5, 0, 0}},
	}
	res, err := Simulate(c, in, Config{Runs: 4000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	y, _ := c.Node("y")
	approx(t, "Pr+Pf", res.TogglingRate(y.ID), 1, 0)
	approx(t, "rise mean", res.Arrival(y.ID, ssta.DirRise).Mean(), 3, 1e-9)
	approx(t, "fall mean", res.Arrival(y.ID, ssta.DirFall).Mean(), 3, 1e-9)
}

// TestParallelSimulation: worker sharding merges to the same run
// count and statistically identical results; it is deterministic per
// (seed, workers) pair.
func TestParallelSimulation(t *testing.T) {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
	c := parse(t, src, "and2")
	in := uniform(c)
	seq, err := Simulate(c, in, Config{Runs: 40000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Simulate(c, in, Config{Runs: 40000, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Runs != 40000 {
		t.Fatalf("Runs = %d", par.Runs)
	}
	var totalPar, totalSeq int64
	y, _ := c.Node("y")
	for v := logic.Zero; v < logic.NumValues; v++ {
		totalPar += par.Stats[y.ID].Count[v]
		totalSeq += seq.Stats[y.ID].Count[v]
		approx(t, "P["+v.String()+"]", par.P(y.ID, v), seq.P(y.ID, v), 0.01)
	}
	if totalPar != 40000 || totalSeq != 40000 {
		t.Errorf("counts = %d / %d", totalPar, totalSeq)
	}
	approx(t, "rise mean", par.Arrival(y.ID, ssta.DirRise).Mean(),
		seq.Arrival(y.ID, ssta.DirRise).Mean(), 0.03)
	approx(t, "rise sigma", par.Arrival(y.ID, ssta.DirRise).Sigma(),
		seq.Arrival(y.ID, ssta.DirRise).Sigma(), 0.03)

	// Determinism for a fixed (seed, workers) pair.
	par2, err := Simulate(c, in, Config{Runs: 40000, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats[y.ID].Count != par2.Stats[y.ID].Count {
		t.Error("parallel simulation not deterministic")
	}
}

// TestParallelAuxiliaryCounters: probes, glitches and criticality
// merge across shards exactly. Each is an integer sum of per-run
// quantities drawn from runState(seed, r), so Workers 3 must match
// Workers 1 at every net.
func TestParallelAuxiliaryCounters(t *testing.T) {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
	c := parse(t, src, "and2")
	in := uniform(c)
	cfg := Config{
		Runs: 20000, Seed: 7, Workers: 3,
		CountGlitches:    true,
		CountCriticality: true,
		ProbeTimes:       []float64{0, 1, 2},
	}
	par, err := Simulate(c, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	seq, err := Simulate(c, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := range seq.Stats {
		p, s := &par.Stats[id], &seq.Stats[id]
		name := c.Nodes[id].Name
		if p.Glitches != s.Glitches {
			t.Errorf("%s: glitches %d with 3 workers, %d with 1", name, p.Glitches, s.Glitches)
		}
		if p.Critical != s.Critical {
			t.Errorf("%s: criticality %d with 3 workers, %d with 1", name, p.Critical, s.Critical)
		}
		if !slices.Equal(p.OneAt, s.OneAt) {
			t.Errorf("%s: probe counts %v with 3 workers, %v with 1", name, p.OneAt, s.OneAt)
		}
	}
	if y, _ := c.Node("y"); seq.Stats[y.ID].Glitches == 0 || seq.Stats[y.ID].Critical == 0 {
		t.Error("no glitches or criticality counted at y; the comparison is vacuous")
	}
	// More workers than runs degrades gracefully.
	if _, err := Simulate(c, in, Config{Runs: 2, Seed: 1, Workers: 8}); err != nil {
		t.Fatal(err)
	}
}
