package incr

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/netlist"
	"repro/internal/ssta"
)

// variationalSession hydrates an incremental SPSTA session the way a
// served /v1/delta session does: N(1, sigma²) base gate delays and
// the given pruning budget.
func variationalSession(tb testing.TB, circuit string, sigma, eps float64) (*SPSTA, []netlist.NodeID) {
	tb.Helper()
	c := gen(tb, circuit)
	s, err := NewSPSTA(core.Analyzer{
		ErrorBudget: eps,
		Delay:       func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: sigma} },
	}, c, experiments.Inputs(c, experiments.ScenarioI))
	if err != nil {
		tb.Fatal(err)
	}
	var gates []netlist.NodeID
	for _, n := range c.Nodes {
		if n.Type.Combinational() {
			gates = append(gates, n.ID)
		}
	}
	return s, gates
}

// randomDelay draws a gate-delay override from the served workload's
// range: mu in [0.5, 2), sigma in [0.05, 0.3).
func randomDelay(rng *rand.Rand) dist.Normal {
	return dist.Normal{Mu: 0.5 + 1.5*rng.Float64(), Sigma: 0.05 + 0.25*rng.Float64()}
}

// TestSPSTAKernelCacheBounded drives a session through 1,000 edits,
// each to a delay no earlier edit used — new overrides, replacements
// of a gate's active override, and clears — and requires the kernel
// cache never to hold more than its post-hydration kernels plus one
// per active override. Retired kernels are re-discretized on demand,
// so clearing every override must still land bit-identically on the
// hydrated analysis.
func TestSPSTAKernelCacheBounded(t *testing.T) {
	s, gates := variationalSession(t, "s344", 0.2, 1e-4)
	kc := s.Result().Kernels()
	base := kc.Len()
	type snap struct{ m, sd, p float64 }
	want := make(map[netlist.NodeID][2]snap)
	for _, n := range s.Circuit().Nodes {
		var v [2]snap
		for d := ssta.DirRise; d <= ssta.DirFall; d++ {
			v[d].m, v[d].sd, v[d].p = s.Result().Arrival(n.ID, d)
		}
		want[n.ID] = v
	}

	rng := rand.New(rand.NewSource(5))
	// A small gate pool makes replacements of active overrides common.
	pool := gates[:12]
	for i := 0; i < 1000; i++ {
		g := pool[rng.Intn(len(pool))]
		var err error
		if rng.Intn(4) == 0 {
			_, err = s.ClearDelay(g)
		} else {
			_, err = s.SetDelay(g, randomDelay(rng))
		}
		if err != nil {
			t.Fatal(err)
		}
		if n, max := kc.Len(), base+len(s.over); n > max {
			t.Fatalf("edit %d: %d kernels cached, want at most %d (post-hydration %d + %d active overrides)",
				i, n, max, base, len(s.over))
		}
	}
	for _, g := range pool {
		if _, err := s.ClearDelay(g); err != nil {
			t.Fatal(err)
		}
	}
	if n := kc.Len(); n > base {
		t.Fatalf("%d kernels cached after clearing every override, want at most %d", n, base)
	}
	for _, n := range s.Circuit().Nodes {
		for d := ssta.DirRise; d <= ssta.DirFall; d++ {
			var got snap
			got.m, got.sd, got.p = s.Result().Arrival(n.ID, d)
			if got != want[n.ID][d] {
				t.Fatalf("%s %v: %+v after clearing every override, hydrated %+v", n.Name, d, got, want[n.ID][d])
			}
		}
	}
}

// singleEdit is one step of the served single-gate /v1/delta
// workload: a gate-delay override replacing the previous step's.
type singleEdit struct {
	gate netlist.NodeID
	d    dist.Normal
}

// singleEdits draws the 512-step seeded edit sequence of
// BenchmarkSPSTASingleEdit over the session's gates.
func singleEdits(gates []netlist.NodeID) []singleEdit {
	rng := rand.New(rand.NewSource(1))
	edits := make([]singleEdit, 512)
	for i := range edits {
		edits[i] = singleEdit{gates[rng.Intn(len(gates))], randomDelay(rng)}
	}
	return edits
}

// apply clears prev's override (none when prev < 0) and applies e, as
// consecutive single-edit requests on one session do, returning the
// nets the revert and the new edit recomputed.
func (e singleEdit) apply(s *SPSTA, prev netlist.NodeID) (revert, set int, err error) {
	if prev >= 0 {
		if revert, err = s.ClearDelay(prev); err != nil {
			return revert, 0, err
		}
	}
	set, err = s.SetDelay(e.gate, e.d)
	return revert, set, err
}

// TestSPSTASingleEditRecomputedSet pins the cone cutoff and the
// restore: replaying BenchmarkSPSTASingleEdit's edit sequence once on
// s1196 must recompute exactly 15,896 nets in the new edits' cones
// (31.05 per edit) and none in the reverts, each of which undoes the
// session's latest edit by restoring its pre-edit state. A net is
// recomputed iff it is the edited one or one of its fanins changed,
// so any other cone total means the propagation visits a different
// set.
func TestSPSTASingleEditRecomputedSet(t *testing.T) {
	s, gates := variationalSession(t, "s1196", 0.2, 1e-4)
	reverts, sets := 0, 0
	prev := netlist.NodeID(-1)
	for _, e := range singleEdits(gates) {
		r, n, err := e.apply(s, prev)
		if err != nil {
			t.Fatal(err)
		}
		reverts += r
		sets += n
		prev = e.gate
	}
	if sets != 15896 {
		t.Errorf("512 single edits recomputed %d nets in their cones, want 15896", sets)
	}
	if reverts != 0 {
		t.Errorf("511 reverts recomputed %d nets, want 0", reverts)
	}
}

// BenchmarkSPSTASingleEdit measures the cost of one served
// single-gate /v1/delta edit without the daemon: on s1196 at
// sigma=0.2 and epsilon=1e-4, each operation clears the previous
// edit's override and applies a seeded random N(mu, sigma²) delay to
// a random gate, as consecutive single-edit requests on one session
// do. It reports the nets recomputed per edit next to ns/op.
func BenchmarkSPSTASingleEdit(b *testing.B) {
	s, gates := variationalSession(b, "s1196", 0.2, 1e-4)
	edits := singleEdits(gates)
	nets := 0
	prev := netlist.NodeID(-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edits[i%len(edits)]
		r, n, err := e.apply(s, prev)
		if err != nil {
			b.Fatal(err)
		}
		nets += r + n
		prev = e.gate
	}
	b.ReportMetric(float64(nets)/float64(b.N), "nets/op")
}
