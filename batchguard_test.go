package repro

import (
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/netlist"
)

// TestBenchGuardBatchSpeedup enforces the batched-scheduler
// throughput contract on the widest-fanin ISCAS'89 cell: with ε=1e-4
// pruning active in both runs (so the gate measures batching beyond
// the adaptive-pruning wins, not instead of them) and variational
// N(1, 0.2²) delays, the batched scheduler must be at least
// 2x faster than the sequential per-gate scheduler single-threaded.
// The win comes from the table-driven register-carried convolution
// rows, the shared per-level delay kernels and the slab staging — all
// bit-identical to the sequential arithmetic, which the equivalence
// suite (core.TestBatchedRunMatchesSequential) asserts on every
// circuit.
//
// Opt-in via BENCH_GUARD=1 like the other guards, with the same
// interleaved min-of-N timing.
func TestBenchGuardBatchSpeedup(t *testing.T) {
	if os.Getenv("BENCH_GUARD") != "1" {
		t.Skip("set BENCH_GUARD=1 (or run `make bench-guard`) to measure the batch speedup")
	}
	const eps = 1e-4
	name := widestFaninProfile(t)
	c, in := guardCircuit(t, name)
	delay := func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} }
	one := func(mode core.BatchMode) time.Duration {
		a := core.Analyzer{Workers: 1, ErrorBudget: eps, Delay: delay, Batched: mode}
		t0 := time.Now()
		res, err := a.Run(c, in)
		if err != nil {
			t.Fatal(err)
		}
		el := time.Since(t0)
		res.Recycle()
		return el
	}
	one(core.BatchOff)
	one(core.BatchOn)

	const rounds = 5
	minSeq, minBatch := time.Hour, time.Hour
	for r := 0; r < rounds; r++ {
		if d := one(core.BatchOff); d < minSeq {
			minSeq = d
		}
		if d := one(core.BatchOn); d < minBatch {
			minBatch = d
		}
	}

	speedup := float64(minSeq) / float64(minBatch)
	t.Logf("%s: sequential %v/op, batched %v/op, speedup %.2fx",
		name, minSeq, minBatch, speedup)
	if speedup < 2 {
		t.Errorf("batched speedup %.2fx below the 2x contract on %s "+
			"(sequential %v/op, batched %v/op)", speedup, name, minSeq, minBatch)
	}
}
