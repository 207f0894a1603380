package repro

import (
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// TestBenchGuardCoarsenSpeedup enforces the depth-adaptive
// grid-coarsening throughput contract (DESIGN.md §15) on the two
// deepest benchmark cells (chosen by generated logic depth, ties
// broken by gate count, so the selection is deterministic): at
// ε=1e-4 under variational N(1, 0.2²) delays, the analyzer with
// -coarsen auto must be at least 1.5x faster than the same analyzer
// without coarsening, single-threaded. Depth is the
// lever coarsening pulls — each unit-delay convolution widens the
// t.o.p. supports by a kernel width, so the deepest circuits spend
// the most bin work at a resolution their distributions no longer
// need.
//
// The same run asserts the re-binning certificate: every per-net
// four-value probability of the coarsened run deviates from the
// exact single-grid run by at most that net's consumed budget (which
// folds the ε-pruning and re-binning deviation bounds together; like
// the pruning certificate it is path-weighted and therefore loose).
//
// Opt-in via BENCH_GUARD=1 like the other guards, with the same
// interleaved min-of-N timing.
func TestBenchGuardCoarsenSpeedup(t *testing.T) {
	if os.Getenv("BENCH_GUARD") != "1" {
		t.Skip("set BENCH_GUARD=1 (or run `make bench-guard`) to measure the coarsening speedup")
	}
	const eps = 1e-4
	delay := func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} }
	for _, name := range deepestProfiles(t, 2) {
		c, in := guardCircuit(t, name)
		one := func(mode core.CoarsenMode) time.Duration {
			a := core.Analyzer{Workers: 1, ErrorBudget: eps, Delay: delay,
				Coarsen: core.CoarsenPolicy{Mode: mode}}
			t0 := time.Now()
			if _, err := a.Run(c, in); err != nil {
				t.Fatal(err)
			}
			return time.Since(t0)
		}
		one(core.CoarsenOff)
		one(core.CoarsenAuto)

		const rounds = 5
		minFine, minCoarse := time.Hour, time.Hour
		for r := 0; r < rounds; r++ {
			if d := one(core.CoarsenOff); d < minFine {
				minFine = d
			}
			if d := one(core.CoarsenAuto); d < minCoarse {
				minCoarse = d
			}
		}

		speedup := float64(minFine) / float64(minCoarse)
		t.Logf("%s: coarsen=off %v/op, coarsen=auto %v/op, speedup %.2fx",
			name, minFine, minCoarse, speedup)
		if speedup < 1.5 {
			t.Errorf("coarsening speedup %.2fx below the 1.5x contract on %s "+
				"(off %v/op, auto %v/op)", speedup, name, minFine, minCoarse)
		}

		// Certificate: re-run the exact single-grid engine and the
		// coarsened engine once and compare every four-value
		// probability against the consumed budget.
		exact, err := (&core.Analyzer{Workers: 1, Delay: delay}).Run(c, in)
		if err != nil {
			t.Fatal(err)
		}
		coarse, err := (&core.Analyzer{Workers: 1, ErrorBudget: eps, Delay: delay,
			Coarsen: core.CoarsenPolicy{Mode: core.CoarsenAuto}}).Run(c, in)
		if err != nil {
			t.Fatal(err)
		}
		if coarse.Grid.N >= exact.Grid.N {
			t.Errorf("%s: auto coarsening never fired (grid stayed at %d bins)", name, coarse.Grid.N)
		}
		var maxDev float64
		for i := range exact.State {
			budget := coarse.State[i].Budget
			for v := range exact.State[i].P {
				dev := math.Abs(coarse.State[i].P[v] - exact.State[i].P[v])
				if dev > maxDev {
					maxDev = dev
				}
				if dev > budget+1e-12 {
					t.Errorf("net %s P[%d]: deviation %.3g exceeds consumed budget %.3g",
						c.Nodes[i].Name, v, dev, budget)
				}
			}
		}
		t.Logf("%s: final grid %d bins (from %d), max deviation %.3g, max consumed budget %.3g",
			name, coarse.Grid.N, exact.Grid.N, maxDev, coarse.MaxConsumedBudget())
	}
}

// deepestProfiles returns the n benchmark profiles whose generated
// circuits are deepest, ties broken by gate count and then name.
func deepestProfiles(t *testing.T, n int) []string {
	t.Helper()
	type entry struct {
		name         string
		depth, gates int
	}
	var es []entry
	for _, p := range synth.Profiles() {
		c, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, entry{p.Name, c.Depth(), len(c.Nodes)})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].depth != es[j].depth {
			return es[i].depth > es[j].depth
		}
		if es[i].gates != es[j].gates {
			return es[i].gates > es[j].gates
		}
		return es[i].name < es[j].name
	})
	out := make([]string, 0, n)
	for _, e := range es[:n] {
		t.Logf("deep cell: %s (depth %d, %d nodes)", e.name, e.depth, e.gates)
		out = append(out, e.name)
	}
	return out
}
