package repro

import (
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// TestBenchGuardPruneSpeedup enforces the adaptive-pruning throughput
// contract on the widest-fanin ISCAS'89 cell (chosen by the largest
// generated gate fanin, ties broken by average fanin and then gate
// count, so the selection is deterministic): at ε=1e-4 the pruned
// analyzer must be at least 2x faster than the exact ε=0 engine
// single-threaded.
//
// The measurement uses variational N(1, 0.2²) gate delays — the
// statistical setting the pruning layer exists for: each gate then
// convolves its mixture with a delay kernel, and tail truncation
// shrinks both convolution operands. (Deterministic unit delays
// reduce every "convolution" to a bin shift, where support narrowing
// buys less; see BENCH_spsta.json for both delay models.)
//
// The same run asserts the error ceiling: every per-net four-value
// probability of the pruned run deviates from the exact run by at
// most that net's consumed budget (the certificate — note the budget
// is path-weighted, so reconvergent fanout makes it loose), and the
// largest measured deviation additionally stays below an absolute
// 10·ε ceiling, a regression tripwire far above the ~3·ε observed on
// the reference machine but far below the certificate's slack.
//
// Opt-in via BENCH_GUARD=1 like the other guards, with the same
// interleaved min-of-N timing.
func TestBenchGuardPruneSpeedup(t *testing.T) {
	if os.Getenv("BENCH_GUARD") != "1" {
		t.Skip("set BENCH_GUARD=1 (or run `make bench-guard`) to measure the pruning speedup")
	}
	const eps = 1e-4
	name := widestFaninProfile(t)
	c, in := guardCircuit(t, name)
	delay := func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} }
	one := func(budget float64) time.Duration {
		a := core.Analyzer{Workers: 1, ErrorBudget: budget, Delay: delay}
		t0 := time.Now()
		if _, err := a.Run(c, in); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	one(0)
	one(eps)

	const rounds = 5
	minExact, minPruned := time.Hour, time.Hour
	for r := 0; r < rounds; r++ {
		if d := one(0); d < minExact {
			minExact = d
		}
		if d := one(eps); d < minPruned {
			minPruned = d
		}
	}

	speedup := float64(minExact) / float64(minPruned)
	t.Logf("%s: exact %v/op, pruned(ε=%g) %v/op, speedup %.2fx",
		name, minExact, eps, minPruned, speedup)
	if speedup < 2 {
		t.Errorf("pruned speedup %.2fx below the 2x contract on %s "+
			"(exact %v/op, pruned %v/op)", speedup, name, minExact, minPruned)
	}

	// Error ceiling: re-run both engines once and compare.
	exactA := core.Analyzer{Workers: 1, Delay: delay}
	exact, err := exactA.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	prunedA := core.Analyzer{Workers: 1, ErrorBudget: eps, Delay: delay}
	pruned, err := prunedA.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	var maxDev, maxBudget float64
	for i := range exact.State {
		budget := pruned.State[i].Budget
		if budget > maxBudget {
			maxBudget = budget
		}
		for v := range exact.State[i].P {
			dev := math.Abs(pruned.State[i].P[v] - exact.State[i].P[v])
			if dev > maxDev {
				maxDev = dev
			}
			if dev > budget+1e-12 {
				t.Errorf("net %s P[%d]: deviation %.3g exceeds consumed budget %.3g",
					c.Nodes[i].Name, v, dev, budget)
			}
		}
	}
	const ceiling = 10 * eps
	t.Logf("max deviation %.3g, max consumed budget %.3g, ceiling %.3g",
		maxDev, maxBudget, ceiling)
	if maxDev > ceiling {
		t.Errorf("max deviation %.3g exceeds the 10·ε ceiling %.3g",
			maxDev, ceiling)
	}
}

// widestFaninProfile picks the benchmark profile whose generated
// circuit has the widest gate fanin, breaking ties by average fanin
// and then by gate count.
func widestFaninProfile(t *testing.T) string {
	t.Helper()
	best := ""
	bestMax, bestAvg, bestGates := -1, -1.0, -1
	for _, p := range synth.Profiles() {
		c, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		maxF, sumF, gates := 0, 0, 0
		for _, n := range c.Nodes {
			if len(n.Fanin) == 0 {
				continue
			}
			gates++
			sumF += len(n.Fanin)
			if len(n.Fanin) > maxF {
				maxF = len(n.Fanin)
			}
		}
		avg := float64(sumF) / float64(gates)
		if maxF > bestMax ||
			(maxF == bestMax && avg > bestAvg) ||
			(maxF == bestMax && avg == bestAvg && gates > bestGates) {
			best, bestMax, bestAvg, bestGates = p.Name, maxF, avg, gates
		}
	}
	t.Logf("widest-fanin cell: %s (max fanin %d, avg %.2f)", best, bestMax, bestAvg)
	return best
}
