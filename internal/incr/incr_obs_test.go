package incr

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/netlist"
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

// TestSingleEditChargesCallingScope: an edit sequence run under scope
// B on a session built under scope A charges B with all of its work
// and leaves every counter of A as it was, and B's counters equal those
// of the same sequence on a session built without a scope. The session
// is variational and pruned, so the sequence runs convolutions,
// kernel-cache lookups of new and cached delays, and tail trims.
func TestSingleEditChargesCallingScope(t *testing.T) {
	c := gen(t, "s1196")
	in := experiments.Inputs(c, experiments.ScenarioI)
	a := core.Analyzer{
		Delay:       func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} },
		ErrorBudget: 1e-4,
	}
	g1, g2 := pickGate(c), netlist.NodeID(-1)
	for _, n := range c.Nodes {
		if n.Type.Combinational() && n.ID != g1 && len(n.Fanout) > 0 {
			g2 = n.ID
			break
		}
	}
	launch := c.LaunchPoints()[0]
	edits := func(t *testing.T, s *SPSTA) {
		mustEdit(t)(s.SetDelay(g1, dist.Normal{Mu: 2.5, Sigma: 0.3}))
		mustEdit(t)(s.SetDelay(g2, dist.Normal{Mu: 1, Sigma: 0.2}))
		mustEdit(t)(s.SetInput(launch, logic.SkewedStats()))
		mustEdit(t)(s.ClearDelay(g1))
		mustEdit(t)(s.SetDelay(g1, dist.Normal{Mu: 0.7, Sigma: 0.1}))
	}
	// counters drops what depends on process-wide caches: the plan
	// caches, which hit or miss by the order the tests ran in.
	counters := func(s *obs.Snapshot) *obs.Snapshot {
		cp := *s
		cp.Batch = obs.Snapshot{}.Batch
		return &cp
	}

	sa, sb := obs.NewScope(), obs.NewScope()
	a.Obs = sa
	inc, err := NewSPSTA(a, c, in)
	if err != nil {
		t.Fatal(err)
	}
	before := sa.Snapshot()
	inc.SetObs(sb)
	edits(t, inc)
	if after := sa.Snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("edits under scope B changed scope A:\nbefore %+v\nafter  %+v", before, after)
	}

	sc := obs.NewScope()
	a.Obs = nil
	ref, err := NewSPSTA(a, c, in)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetObs(sc)
	edits(t, ref)
	got, want := sb.Snapshot(), sc.Snapshot()
	if got.Cost.Total == 0 || got.KernelCache.Hits+got.KernelCache.Misses == 0 {
		t.Fatalf("scope B recorded no edit work: %+v", got)
	}
	if got.Cost != want.Cost || got.KernelCache != want.KernelCache {
		t.Errorf("scope B: cost %+v, kernel cache %+v; a session built without a scope: cost %+v, kernel cache %+v",
			got.Cost, got.KernelCache, want.Cost, want.KernelCache)
	}
	if !reflect.DeepEqual(counters(got), counters(want)) {
		t.Errorf("scope B counters differ from a session built without a scope:\nB   %+v\nref %+v", counters(got), counters(want))
	}
}
