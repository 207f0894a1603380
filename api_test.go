package repro

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	c, err := GenerateBenchmark("s298")
	if err != nil {
		t.Fatal(err)
	}
	in := UniformInputs(c)
	res, err := AnalyzeSPSTA(c, in, SPSTAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	end := c.CriticalEndpoint()
	mean, sigma, prob := res.Arrival(end, DirRise)
	if prob < 0 || prob > 1 {
		t.Errorf("prob = %v", prob)
	}
	if mean <= 0 || sigma <= 0 {
		t.Errorf("arrival = (%v, %v)", mean, sigma)
	}
	if _, err := GenerateBenchmark("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error message %q lacks the name", err)
	}
}

func TestFacadeBenchRoundTrip(t *testing.T) {
	c, err := GenerateBenchmark("s208")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBench(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench(&buf, "s208")
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats() != c2.Stats() {
		t.Error("round trip changed stats")
	}
}

func TestFacadeAnalyzersAgree(t *testing.T) {
	c, err := GenerateBenchmark("s382")
	if err != nil {
		t.Fatal(err)
	}
	in := SkewedInputs(c)
	discrete, err := AnalyzeSPSTA(c, in, SPSTAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := AnalyzeSPSTAMoments(c, in)
	if err != nil {
		t.Fatal(err)
	}
	end := c.CriticalEndpoint()
	for _, d := range []Dir{DirRise, DirFall} {
		dm, _, dp := discrete.Arrival(end, d)
		an, ap := analytic.Arrival(end, d)
		if math.Abs(dp-ap) > 1e-6 {
			t.Errorf("%v: prob %v vs %v", d, dp, ap)
		}
		if dp > 0.01 && math.Abs(dm-an.Mu) > 0.3 {
			t.Errorf("%v: mean %v vs %v", d, dm, an.Mu)
		}
	}
}

func TestFacadeBaselinesAndMC(t *testing.T) {
	c, err := GenerateBenchmark("s208")
	if err != nil {
		t.Fatal(err)
	}
	in := UniformInputs(c)
	sst := AnalyzeSSTA(c, in, nil)
	sta := AnalyzeSTA(c, in, nil, 3)
	mc, err := SimulateMonteCarlo(c, in, MonteCarloConfig{Runs: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	end := c.CriticalEndpoint()
	if b := sta.At(end, DirRise); sst.At(end, DirRise).Mu < b.Lo || sst.At(end, DirRise).Mu > b.Hi {
		t.Error("SSTA mean outside STA bounds")
	}
	if mc.Runs != 500 {
		t.Errorf("Runs = %d", mc.Runs)
	}
}

func TestFacadePowerHelpers(t *testing.T) {
	c, err := GenerateBenchmark("s298")
	if err != nil {
		t.Fatal(err)
	}
	probs := SignalProbabilities(c, nil)
	for _, n := range c.Nodes {
		if probs[n.ID] < 0 || probs[n.ID] > 1 {
			t.Fatalf("P(%s) = %v", n.Name, probs[n.ID])
		}
	}
	dens := make(map[NodeID]float64)
	for _, id := range c.LaunchPoints() {
		dens[id] = 0.5
	}
	rho := TransitionDensities(c, nil, dens)
	p := DynamicPower(c, rho, 1, 1)
	if p <= 0 {
		t.Errorf("power = %v", p)
	}
	exact, err := ExactSignalProbabilities(c, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != len(c.Nodes) {
		t.Error("exact probabilities length wrong")
	}
}

func TestFacadeSymbolic(t *testing.T) {
	c, err := GenerateBenchmark("s298")
	if err != nil {
		t.Fatal(err)
	}
	in := UniformInputs(c)
	res, err := AnalyzeSymbolicSSTA(c, in, SymbolicLevelDelay(4, 1, 0.1, 0.05), 4)
	if err != nil {
		t.Fatal(err)
	}
	end := c.CriticalEndpoint()
	arr := res.At(end, DirRise)
	if arr.Sigma() <= 0 {
		t.Error("symbolic sigma not positive")
	}
	sp, err := AnalyzeSymbolicSPSTA(c, in, SymbolicUnitDelay(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, prob := sp.At(end, DirRise); prob < 0 || prob > 1 {
		t.Errorf("symbolic SPSTA prob = %v", prob)
	}
}

func TestFacadeScenarioHelpers(t *testing.T) {
	if UniformStats().SignalProbability() != 0.5 {
		t.Error("UniformStats wrong")
	}
	if SkewedStats().TogglingRate() != 0.1 {
		t.Error("SkewedStats wrong")
	}
	c, _ := GenerateBenchmark("s208")
	if n := UnitDelay(c.Nodes[0]); n.Mu != 1 || n.Sigma != 0 {
		t.Error("UnitDelay wrong")
	}
	g := TimingGrid(8, 0, 1)
	if g.N == 0 {
		t.Error("TimingGrid empty")
	}
	tm := AnalyzeToggleMoments(c, UniformInputs(c))
	if tm.Mean[c.LaunchPoints()[0]] != 0.5 {
		t.Error("ToggleMoments launch mean wrong")
	}
}

func TestFacadeCustomProfileAndCircuit(t *testing.T) {
	p := Profile{Name: "tiny", Inputs: 3, Outputs: 2, DFFs: 1, Gates: 12, Depth: 4}
	c, err := GenerateProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Gates != 12 {
		t.Error("custom profile gates wrong")
	}
	// Hand-built circuit through the facade.
	hc := NewCircuit("hand")
	if _, err := hc.AddNode("a", GateType(0)); err != nil { // Input
		t.Fatal(err)
	}
	if err := hc.Freeze(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExactProbabilities(t *testing.T) {
	c, err := GenerateBenchmark("s298")
	if err != nil {
		t.Fatal(err)
	}
	in := UniformInputs(c)
	res, err := AnalyzeSPSTA(c, in, SPSTAOptions{ExactProbabilities: true})
	if err != nil {
		t.Fatal(err)
	}
	fv, err := ExactFourValueProbabilities(c, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		for v := Zero; v < 4; v++ {
			if math.Abs(res.Probability(n.ID, v)-fv[n.ID][v]) > 1e-9 {
				t.Fatalf("%s: corrected P[%v] %v vs pair-BDD %v",
					n.Name, v, res.Probability(n.ID, v), fv[n.ID][v])
			}
		}
	}
}

func TestFacadeParallel(t *testing.T) {
	c, err := GenerateBenchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	in := UniformInputs(c)
	serial, err := AnalyzeSPSTA(c, in, SPSTAOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := AnalyzeSPSTA(c, in, SPSTAOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range c.Endpoints() {
		for _, d := range []Dir{DirRise, DirFall} {
			sm, ss, sp := serial.Arrival(id, d)
			pm, ps, pp := parallel.Arrival(id, d)
			if sm != pm || ss != ps || sp != pp {
				t.Fatalf("%s dir %v: serial (%v,%v,%v) != parallel (%v,%v,%v)",
					c.Nodes[id].Name, d, sm, ss, sp, pm, ps, pp)
			}
		}
	}
}

// TestFacadeSPSTAOptions: every SPSTAOptions field reaches the
// analyzer. A run with all of them set matches core.Analyzer with the
// same configuration bit for bit, and differs from the default run.
func TestFacadeSPSTAOptions(t *testing.T) {
	c, err := GenerateBenchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	in := UniformInputs(c)
	delay := func(*Node) Normal { return Normal{Mu: 1, Sigma: 0.2} }
	mis := func(n *Node, k int) Normal { return Normal{Mu: 1 - 0.1*float64(k-1), Sigma: 0.2} }
	grid := TimingGrid(c.Depth()+2, 0, 1)
	scope := NewEngineScope()
	opt := SPSTAOptions{
		Grid: grid, Delay: delay, Workers: 2, ErrorBudget: 1e-4,
		Coarsen:            CoarsenPolicy{Mode: CoarsenAuto},
		ExactProbabilities: true, MIS: mis, Obs: scope,
	}
	got, err := AnalyzeSPSTA(c, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&core.Analyzer{
		Grid: grid, Delay: delay, Workers: 1, ErrorBudget: 1e-4,
		Coarsen:            CoarsenPolicy{Mode: CoarsenAuto},
		ExactProbabilities: true, MIS: mis,
	}).Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := AnalyzeSPSTA(c, in, SPSTAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Grid.N != want.Grid.N || got.Grid.N == plain.Grid.N {
		t.Fatalf("final grid %d bins, want %d (default run %d)", got.Grid.N, want.Grid.N, plain.Grid.N)
	}
	for _, n := range c.Nodes {
		if got.State[n.ID].P != want.State[n.ID].P || got.State[n.ID].Budget != want.State[n.ID].Budget {
			t.Fatalf("%s: facade state differs from core.Analyzer", n.Name)
		}
	}
	if scope.Snapshot().Cost.Total == 0 {
		t.Error("Obs scope recorded no work")
	}
}

func TestFacadePaths(t *testing.T) {
	c, err := GenerateBenchmark("s208")
	if err != nil {
		t.Fatal(err)
	}
	in := UniformInputs(c)
	end := c.CriticalEndpoint()
	ps := EnumeratePaths(c, end, 4)
	if len(ps) == 0 {
		t.Fatal("no paths")
	}
	crit := PathCriticalities(c, ps, in, nil)
	sum := 0.0
	for _, v := range crit {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("criticalities sum %v", sum)
	}
	d := PathDelay(c, ps[0], Normal{Mu: 0, Sigma: 1}, nil)
	if d.Mu != float64(ps[0].Length) {
		t.Errorf("path delay %v for length %d", d.Mu, ps[0].Length)
	}
}

func TestFacadeMIS(t *testing.T) {
	c, err := GenerateBenchmark("s208")
	if err != nil {
		t.Fatal(err)
	}
	mis := func(n *Node, k int) Normal {
		if k > 1 {
			return Normal{Mu: 0.8}
		}
		return Normal{Mu: 1}
	}
	if _, err := AnalyzeSPSTA(c, UniformInputs(c), SPSTAOptions{MIS: mis}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeIncremental(t *testing.T) {
	c, err := GenerateBenchmark("s298")
	if err != nil {
		t.Fatal(err)
	}
	in := UniformInputs(c)
	inc := NewIncrementalSSTA(c, in, nil)
	var gate NodeID = -1
	for _, n := range c.Nodes {
		if n.Type.Combinational() {
			gate = n.ID
			break
		}
	}
	if evals, _ := inc.SetDelay(gate, Normal{Mu: 1.5}); evals < 1 {
		t.Error("nothing recomputed")
	}
	sp, err := NewIncrementalSPSTA(c, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	launch := c.LaunchPoints()[0]
	if _, err := sp.SetInput(launch, SkewedStats()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeVerilogAndVectors(t *testing.T) {
	c, err := GenerateBenchmark("s208")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseVerilog(&buf, "s208")
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats() != c2.Stats() {
		t.Error("verilog round trip changed stats")
	}
	vals := make(map[NodeID]Value)
	for _, id := range c.LaunchPoints() {
		vals[id] = One
	}
	ev, err := EvaluateVectors(c, vals, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, any := ev.WorstArrival(); any {
		t.Error("constant vector produced a transition")
	}
}
