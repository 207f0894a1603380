package dist

import (
	"sync"

	"repro/internal/obs"
)

// KernelCache memoizes FromNormal discretizations keyed on the Normal
// and the grid, so a delay kernel shared by many gates (the common
// case: a cell library has far fewer distinct delays than the circuit
// has gates) is discretized once per distinct Normal and grid instead
// of once per gate. Under multi-resolution coarsening the same Normal
// lands on different bins on each grid, so each resolution level
// discretizes its delay kernels exactly once and never serves another
// level's.
//
// The cache is safe for concurrent use by the level-parallel
// analyzers. Returned PMFs are shared across callers and MUST be
// treated as read-only; every PMF kernel that reads two operands
// (Convolve, MaxPMF, …) leaves them untouched, so cached kernels can
// be passed directly as operands. The cache holds no metrics registry:
// each lookup charges the registry its caller passes, so a cache kept
// across runs (an incremental session's) charges every run its own
// lookups.
//
// Misses are once-per-key: the entry is inserted under the write
// lock and the discretization runs inside the entry's sync.Once, so
// concurrent first lookups of one Normal wait for a single
// computation instead of racing, discretizing redundantly and
// discarding the losers' work. The obs.Metrics kernel counters
// record hits, misses and races (slow-path lookups that found the
// entry already inserted — exactly the lookups that used to waste a
// discretization).
type KernelCache struct {
	mu sync.RWMutex
	m  map[kernelKey]*cacheEntry
}

// kernelKey identifies one cached discretization: the Normal and the
// grid it was discretized on.
type kernelKey struct {
	n Normal
	g Grid
}

// cacheEntry is one once-per-key cache slot; p is written inside once
// and read only after once.Do returns (the Once provides the
// happens-before edge).
type cacheEntry struct {
	once sync.Once
	p    *PMF
}

// NewKernelCache returns an empty cache.
func NewKernelCache() *KernelCache {
	return &KernelCache{m: make(map[kernelKey]*cacheEntry)}
}

// FromNormal returns the discretization of n on g, computing it on
// first use and charging the lookup to m (nil records nothing). The
// result is shared: read-only.
func (kc *KernelCache) FromNormal(m *obs.Metrics, g Grid, n Normal) *PMF {
	key := kernelKey{n: n, g: g}
	kc.mu.RLock()
	e := kc.m[key]
	kc.mu.RUnlock()
	if e == nil {
		kc.mu.Lock()
		if e = kc.m[key]; e == nil {
			e = &cacheEntry{}
			kc.m[key] = e
			if m != nil {
				m.KernelMisses.Add(1)
			}
		} else if m != nil {
			// Another worker inserted the entry between our read and
			// write locks; before the once-per-key scheme this lookup
			// would have discretized the kernel and discarded it.
			m.KernelRaces.Add(1)
		}
		kc.mu.Unlock()
	} else if m != nil {
		m.KernelHits.Add(1)
	}
	e.once.Do(func() { e.p = FromNormal(g, n).Freeze() })
	return e.p
}

// Forget drops every cached discretization of n, on each grid the
// cache has served. A later lookup re-discretizes it, and
// discretization is deterministic, so forgetting frees memory without
// changing any result. Long-lived incremental sessions call it when a
// delay override goes out of use, so a stream of distinct overrides
// does not grow the cache without bound.
func (kc *KernelCache) Forget(n Normal) {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	for k := range kc.m {
		if k.n == n {
			delete(kc.m, k)
		}
	}
}

// Len returns the number of distinct kernels cached.
func (kc *KernelCache) Len() int {
	kc.mu.RLock()
	defer kc.mu.RUnlock()
	return len(kc.m)
}
