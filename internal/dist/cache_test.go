package dist

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestKernelCacheConcurrentOnce hammers one key from many goroutines:
// every caller must get the same shared PMF pointer, and the metrics
// must show exactly one miss — concurrent first lookups wait on the
// entry's Once instead of each discretizing and discarding the kernel.
func TestKernelCacheConcurrentOnce(t *testing.T) {
	const callers = 32
	m := obs.NewMetrics()

	g := Grid{Lo: -4, Dt: 0.125, N: 128}
	kc := NewKernelCache()
	n := Normal{Mu: 1, Sigma: 0.2}

	got := make([]*PMF, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		i := i
		go func() {
			defer done.Done()
			start.Wait() // line everyone up on the empty cache
			got[i] = kc.FromNormal(m, g, n)
		}()
	}
	start.Done()
	done.Wait()

	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different PMF pointer", i)
		}
	}
	if kc.Len() != 1 {
		t.Fatalf("cache holds %d kernels, want 1", kc.Len())
	}

	snap := m.Snapshot()
	kcs := snap.KernelCache
	if kcs.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (one discretization per key)", kcs.Misses)
	}
	if kcs.Hits+kcs.Races != callers-1 {
		t.Errorf("hits (%d) + races (%d) = %d, want %d", kcs.Hits, kcs.Races, kcs.Hits+kcs.Races, callers-1)
	}

	// A later lookup is a plain hit.
	before := kcs.Hits
	if kc.FromNormal(m, g, n) != got[0] {
		t.Fatal("warm lookup returned a different pointer")
	}
	if h := m.Snapshot().KernelCache.Hits; h != before+1 {
		t.Errorf("warm lookup: hits = %d, want %d", h, before+1)
	}
}

// TestKernelCacheMassMatchesUncached: the cached discretization is the
// same PMF FromNormal produces directly.
func TestKernelCacheMassMatchesUncached(t *testing.T) {
	g := Grid{Lo: -4, Dt: 0.125, N: 128}
	kc := NewKernelCache()
	n := Normal{Mu: 0.5, Sigma: 1.5}
	cached := kc.FromNormal(nil, g, n)
	direct := FromNormal(g, n)
	lo, hi := cached.Support()
	dlo, dhi := direct.Support()
	if lo != dlo || hi != dhi {
		t.Fatalf("support [%d,%d) vs direct [%d,%d)", lo, hi, dlo, dhi)
	}
	for i := lo; i < hi; i++ {
		if cached.W(i) != direct.W(i) {
			t.Fatalf("bin %d: cached %v direct %v", i, cached.W(i), direct.W(i))
		}
	}
}
