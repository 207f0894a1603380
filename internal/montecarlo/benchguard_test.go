package montecarlo

import (
	"os"
	"testing"
	"time"

	"repro/internal/logic"
)

// TestBenchGuardPackedSpeedup enforces the Monte Carlo engine's
// throughput contract: on s1196 at 10,000 runs the word-packed engine
// must be at least 5x faster than the scalar reference walk. One run
// on a 2-vCPU x86-64 host measured ~20x (scalar 653 ms, packed 32 ms
// per op); 5x leaves headroom for slower hosts while still failing
// loudly if a regression serializes the packed path.
//
// Opt-in via BENCH_GUARD=1 like the repository's other benchmark
// guards, with the same interleaved min-of-N timing.
func TestBenchGuardPackedSpeedup(t *testing.T) {
	if os.Getenv("BENCH_GUARD") != "1" {
		t.Skip("set BENCH_GUARD=1 (or run `make bench-guard`) to measure the packed speedup")
	}
	c := genCircuit(t, "s1196")
	in := scenarioInputs(c, logic.UniformStats)
	one := func(run engine) time.Duration {
		t0 := time.Now()
		if _, err := simulate(c, in, Config{Runs: 10000, Seed: 1, Workers: 1}, run); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	one(simulateScalar)
	one(simulatePacked)

	const rounds = 5
	minScalar, minPacked := time.Hour, time.Hour
	for r := 0; r < rounds; r++ {
		if d := one(simulateScalar); d < minScalar {
			minScalar = d
		}
		if d := one(simulatePacked); d < minPacked {
			minPacked = d
		}
	}

	speedup := float64(minScalar) / float64(minPacked)
	t.Logf("scalar %v/op, packed %v/op, speedup %.1fx", minScalar, minPacked, speedup)
	if speedup < 5 {
		t.Errorf("packed Monte Carlo speedup %.1fx below the 5x contract "+
			"(scalar %v/op, packed %v/op)", speedup, minScalar, minPacked)
	}
}
