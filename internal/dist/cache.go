package dist

import "sync"

// KernelCache memoizes FromNormal discretizations on one fixed grid,
// so a delay kernel shared by many gates (the common case: a cell
// library has far fewer distinct delays than the circuit has gates)
// is discretized once per distinct Normal instead of once per gate.
//
// The cache is safe for concurrent use by the level-parallel
// analyzers. Returned PMFs are shared across callers and MUST be
// treated as read-only; every PMF kernel that reads two operands
// (Convolve, MaxPMF, …) leaves them untouched, so cached kernels can
// be passed directly as operands.
//
// Misses are once-per-key: the entry is inserted under the write
// lock and the discretization runs inside the entry's sync.Once, so
// concurrent first lookups of one Normal wait for a single
// computation instead of racing, discretizing redundantly and
// discarding the losers' work. The obs.Metrics kernel counters
// record hits, misses and races (slow-path lookups that found the
// entry already inserted — exactly the lookups that used to waste a
// discretization).
//
// Entries are keyed on the Normal AND the grid's geometry: under
// multi-resolution coarsening (Rebind) a kernel discretized for one
// resolution level must never serve another, since the same Normal
// lands on different bins on each grid. Each resolution level thus
// discretizes its delay kernels exactly once.
type KernelCache struct {
	grid Grid
	mu   sync.RWMutex
	m    map[kernelKey]*cacheEntry
}

// kernelKey identifies one cached discretization: the Normal plus the
// geometry of the grid it was discretized on.
type kernelKey struct {
	n      Normal
	lo, dt float64
	bins   int
}

// cacheEntry is one once-per-key cache slot; p is written inside once
// and read only after once.Do returns (the Once provides the
// happens-before edge).
type cacheEntry struct {
	once sync.Once
	p    *PMF
}

// NewKernelCache returns an empty cache for grid g.
func NewKernelCache(g Grid) *KernelCache {
	return &KernelCache{grid: g, m: make(map[kernelKey]*cacheEntry)}
}

// Grid returns the grid new discretizations land on.
func (kc *KernelCache) Grid() Grid { return kc.grid }

// Rebind switches the grid new discretizations land on, e.g. after
// the scheduler coarsens the analysis grid at a level boundary.
// Kernels already discretized stay cached under their own grid's key
// and are never returned for the new grid. Rebind must not race with
// FromNormal — the analyzers call it only at level boundaries, when
// no worker is running.
func (kc *KernelCache) Rebind(g Grid) { kc.grid = g }

// FromNormal returns the discretization of n on the cache's grid,
// computing it on first use. The result is shared: read-only.
func (kc *KernelCache) FromNormal(n Normal) *PMF {
	key := kernelKey{n: n, lo: kc.grid.Lo, dt: kc.grid.Dt, bins: kc.grid.N}
	kc.mu.RLock()
	e := kc.m[key]
	kc.mu.RUnlock()
	m := kc.grid.met
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
	e.once.Do(func() { e.p = FromNormal(kc.grid, n) })
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
