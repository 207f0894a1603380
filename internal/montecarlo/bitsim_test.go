package montecarlo

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/synth"
)

// engines are the packed engine Simulate runs and the scalar
// reference walk.
var engines = []struct {
	name string
	run  engine
}{{"packed", simulatePacked}, {"scalar", simulateScalar}}

// scenarios are the paper's two launch-point statistics settings.
var scenarios = []struct {
	name  string
	stats func() logic.InputStats
}{
	{"uniform", logic.UniformStats},
	{"skewed", logic.SkewedStats},
}

func scenarioInputs(c *netlist.Circuit, stats func() logic.InputStats) map[netlist.NodeID]logic.InputStats {
	m := make(map[netlist.NodeID]logic.InputStats)
	for _, id := range c.LaunchPoints() {
		m[id] = stats()
	}
	return m
}

// comparePackedScalar runs cfg twice — on the scalar reference engine
// and through Simulate — and requires every per-net statistic to
// match bit for bit.
func comparePackedScalar(t *testing.T, c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats, cfg Config) {
	t.Helper()
	scalar, err := simulate(c, inputs, cfg, simulateScalar)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Simulate(c, inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scalar.Runs != packed.Runs {
		t.Fatalf("Runs: scalar %d, packed %d", scalar.Runs, packed.Runs)
	}
	for id := range scalar.Stats {
		if !reflect.DeepEqual(scalar.Stats[id], packed.Stats[id]) {
			t.Errorf("%s: net %s stats diverge:\nscalar %+v\npacked %+v",
				c.Name, c.Nodes[id].Name, scalar.Stats[id], packed.Stats[id])
		}
	}
}

// TestPackedMatchesScalarAllCircuits is the equivalence contract:
// across all synthetic benchmark circuits, both scenarios, unit, σ=0.2
// and multiple-input-switching delays, and serial/parallel sharding,
// the packed engine's occurrence, glitch, probe and criticality counts
// and moment accumulators are bit-identical to the scalar reference's.
// 999 runs exercise partial trailing blocks (999 = 15*64 + 39) and
// odd shard boundaries. Under the race detector, which slows the
// scalar glitch walk most, only the three smallest circuits run: the
// race check needs the sharded packed engine on some circuit, and the
// full grid's bit equivalence is plain go test's to check.
func TestPackedMatchesScalarAllCircuits(t *testing.T) {
	circuits, err := synth.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		circuits = circuits[:3]
	}
	models := []Config{
		{},
		{Delay: func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} }},
		{MIS: func(_ *netlist.Node, k int) dist.Normal { return dist.Normal{Mu: 1 + 0.25*float64(k-1), Sigma: 0.1} }},
	}
	for _, c := range circuits {
		for _, sc := range scenarios {
			inputs := scenarioInputs(c, sc.stats)
			for _, model := range models {
				for _, workers := range []int{1, 3} {
					cfg := model
					cfg.Runs, cfg.Seed, cfg.Workers = 999, 11, workers
					cfg.CountCriticality, cfg.CountGlitches, cfg.ProbeTimes = true, true, goldenProbeTimes
					comparePackedScalar(t, c, inputs, cfg)
				}
			}
		}
	}
}

// TestPackedMatchesScalarSigmaDelay adds per-gate process variation
// (Sigma > 0 delay), which makes the settle pass draw from the lane
// RNGs — the hardest part of the draw-order contract.
func TestPackedMatchesScalarSigmaDelay(t *testing.T) {
	c := genCircuit(t, "s298")
	noisy := func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} }
	for _, sc := range scenarios {
		inputs := scenarioInputs(c, sc.stats)
		for _, workers := range []int{1, 4} {
			cfg := Config{Runs: 500, Seed: 3, Workers: workers, Delay: noisy, CountCriticality: true}
			comparePackedScalar(t, c, inputs, cfg)
		}
	}
}

// TestPackedMatchesScalarMIS exercises the multiple-input-switching
// delay override, whose per-lane switching-fanin count k must match
// the scalar engine's.
func TestPackedMatchesScalarMIS(t *testing.T) {
	c := genCircuit(t, "s344")
	mis := func(n *netlist.Node, k int) dist.Normal {
		return dist.Normal{Mu: 1 + 0.25*float64(k-1), Sigma: 0.1}
	}
	inputs := scenarioInputs(c, logic.UniformStats)
	cfg := Config{Runs: 500, Seed: 5, MIS: mis}
	comparePackedScalar(t, c, inputs, cfg)
}

// TestPackedEventCounters verifies that CountGlitches and ProbeTimes
// each run on the packed engine (its blocks are counted) and match the
// scalar reference exactly.
func TestPackedEventCounters(t *testing.T) {
	c := genCircuit(t, "s208")
	inputs := scenarioInputs(c, logic.UniformStats)
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"glitches", func(cfg *Config) { cfg.CountGlitches = true }},
		{"probes", func(cfg *Config) { cfg.ProbeTimes = []float64{0.5, 2, 4} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scope := obs.NewScope()
			cfg := Config{Runs: 300, Seed: 9, Obs: scope}
			tc.mod(&cfg)
			comparePackedScalar(t, c, inputs, cfg)
			if got, want := scope.Snapshot().MonteCarloPacked.Blocks, int64(5); got != want { // ceil(300/64)
				t.Errorf("packed blocks = %d, want %d", got, want)
			}
		})
	}
}

// TestPackedObsCounters checks the packed engine's block accounting:
// ceil(runs/64) blocks per shard and a positive settle-lane count on
// a circuit that certainly toggles.
func TestPackedObsCounters(t *testing.T) {
	c := genCircuit(t, "s208")
	inputs := scenarioInputs(c, logic.UniformStats)
	scope := obs.NewScope()
	if _, err := Simulate(c, inputs, Config{Runs: 130, Seed: 1, Obs: scope}); err != nil {
		t.Fatal(err)
	}
	snap := scope.Snapshot()
	if want := int64(3); snap.MonteCarloPacked.Blocks != want { // ceil(130/64)
		t.Errorf("blocks = %d, want %d", snap.MonteCarloPacked.Blocks, want)
	}
	if snap.MonteCarloPacked.SettleLanes == 0 {
		t.Error("settle lanes = 0, want > 0")
	}
	if snap.MonteCarloRuns != 130 {
		t.Errorf("runs = %d, want 130", snap.MonteCarloRuns)
	}
}

// TestPackedWorkersInvariance: with per-run derived streams, the
// merged statistics are independent of the shard split for counts,
// and the moment accumulators differ only by Welford association —
// which Merge keeps deterministic — so packed results for different
// Workers agree on all integer statistics and agree with the scalar
// reference at the same Workers value (the bit-identity tests above).
// Here we pin down the weaker cross-worker contract on counts.
func TestPackedWorkersInvariance(t *testing.T) {
	c := genCircuit(t, "s298")
	inputs := scenarioInputs(c, logic.SkewedStats)
	base, err := Simulate(c, inputs, Config{Runs: 777, Seed: 13, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		r, err := Simulate(c, inputs, Config{Runs: 777, Seed: 13, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for id := range base.Stats {
			if base.Stats[id].Count != r.Stats[id].Count {
				t.Fatalf("workers=%d: net %s counts diverge", workers, c.Nodes[id].Name)
			}
		}
	}
}

// TestMomentNets checks Config.MomentNets on the packed engine and the
// scalar reference, Workers 1
// and 3, under σ=0.2 and MIS delays: restricted to the endpoints, the
// listed nets' moments are bit-identical to a nil run, every net's
// counts and criticality are unchanged, and no unlisted net
// accumulates a moment.
func TestMomentNets(t *testing.T) {
	c := genCircuit(t, "s386")
	inputs := scenarioInputs(c, logic.UniformStats)
	eps := c.Endpoints()
	listed := make(map[netlist.NodeID]bool)
	for _, ep := range eps {
		listed[ep] = true
	}
	models := []Config{
		{Delay: func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} }},
		{MIS: func(_ *netlist.Node, k int) dist.Normal { return dist.Normal{Mu: 1 + 0.25*float64(k-1), Sigma: 0.1} }},
	}
	for mi, model := range models {
		for _, en := range engines {
			for _, workers := range []int{1, 3} {
				cfg := model
				cfg.Runs, cfg.Seed, cfg.Workers, cfg.CountCriticality = 999, 21, workers, true
				full, err := simulate(c, inputs, cfg, en.run)
				if err != nil {
					t.Fatal(err)
				}
				cfg.MomentNets = eps
				part, err := simulate(c, inputs, cfg, en.run)
				if err != nil {
					t.Fatal(err)
				}
				for id := range full.Stats {
					f, p := &full.Stats[id], &part.Stats[id]
					name := c.Nodes[id].Name
					if f.Count != p.Count || f.Critical != p.Critical {
						t.Errorf("model %d %s workers=%d: net %s counts diverge", mi, en.name, workers, name)
					}
					if listed[netlist.NodeID(id)] {
						if f.Rise != p.Rise || f.Fall != p.Fall {
							t.Errorf("model %d %s workers=%d: endpoint %s moments diverge", mi, en.name, workers, name)
						}
					} else if p.Rise.N() != 0 || p.Fall.N() != 0 {
						t.Errorf("model %d %s workers=%d: unlisted net %s has moments", mi, en.name, workers, name)
					}
				}
			}
		}
	}
}

func genCircuit(t *testing.T, name string) *netlist.Circuit {
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
