package incr

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// TestIncrementalRecordsIntoRunScope pins the scope-inheritance
// contract: incremental recomputation (Analyzer.Update via SetDelay)
// records its kernel and mixture work into the scope of the original
// Run — the session's analyzer scope — not into a global registry
// and not into nothing.
func TestIncrementalRecordsIntoRunScope(t *testing.T) {
	c := gen(t, "s344")
	in := experiments.Inputs(c, experiments.ScenarioI)
	scope := obs.NewScope()
	inc, err := NewSPSTA(core.Analyzer{Obs: scope}, c, in)
	if err != nil {
		t.Fatal(err)
	}
	base := scope.Snapshot()
	if base.KernelCache.Hits+base.KernelCache.Misses == 0 {
		t.Fatal("initial Run recorded no kernel lookups into the scope")
	}

	// A sigma > 0 delay forces a fresh convolution kernel, so the
	// recompute must record at least one new kernel miss.
	evals, err := inc.SetDelay(pickGate(c), dist.Normal{Mu: 2, Sigma: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if evals == 0 {
		t.Fatal("SetDelay recomputed nothing")
	}
	after := scope.Snapshot()
	if after.KernelCache.Misses <= base.KernelCache.Misses {
		t.Errorf("incremental update recorded no new kernel misses: %d -> %d",
			base.KernelCache.Misses, after.KernelCache.Misses)
	}

	// A second instance with its own scope must not leak into the
	// first: counters of scope stay put while scope2 accumulates.
	scope2 := obs.NewScope()
	if _, err := NewSPSTA(core.Analyzer{Obs: scope2}, c, in); err != nil {
		t.Fatal(err)
	}
	again := scope.Snapshot()
	if again.KernelCache.Hits != after.KernelCache.Hits ||
		again.KernelCache.Misses != after.KernelCache.Misses {
		t.Error("an unrelated scoped run mutated the first scope's counters")
	}
	if s2 := scope2.Snapshot(); s2.KernelCache.Hits+s2.KernelCache.Misses == 0 {
		t.Error("second scope recorded nothing")
	}
}
