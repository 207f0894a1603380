package dist

import (
	"sync"

	"repro/internal/obs"
)

// KernelCache memoizes FromNormal discretizations keyed on the Normal,
// the grid and the tail share folded inward (see FromNormal), so a
// delay kernel shared by many gates (the common case: a cell library
// has far fewer distinct delays than the circuit has gates) is
// discretized once per key instead of once per gate. Under
// multi-resolution coarsening the same Normal lands on different bins
// on each grid, so each resolution level discretizes its delay kernels
// exactly once and never serves another level's.
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

// kernelKey identifies one cached discretization: the Normal, the
// grid it was discretized on and the tail share folded inward.
type kernelKey struct {
	n    Normal
	g    Grid
	tail float64
}

// cacheEntry is one once-per-key cache slot; p and moved are written
// inside once and read only after once.Do returns (the Once provides
// the happens-before edge).
type cacheEntry struct {
	once  sync.Once
	p     *PMF
	moved float64
}

// NewKernelCache returns an empty cache.
func NewKernelCache() *KernelCache {
	return &KernelCache{m: make(map[kernelKey]*cacheEntry)}
}

// FromNormal returns the discretization of n on g with its outer
// tails folded inward while they hold at most tail of its mass (see
// foldTails), and the share δ that folding displaced. It computes the
// kernel on first use and charges the lookup to m (nil records
// nothing). A tail of 0 folds nothing: the kernel is dist.FromNormal's
// and δ is 0. Convolving an input of mass m with the folded kernel in
// place of the full one moves every output CDF value by at most δ·m,
// so a caller that charges δ·m to its error budget keeps the result
// certified. The kernel is shared: read-only.
func (kc *KernelCache) FromNormal(m *obs.Metrics, g Grid, n Normal, tail float64) (*PMF, float64) {
	key := kernelKey{n: n, g: g, tail: tail}
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
	e.once.Do(func() {
		p := FromNormal(g, n)
		e.moved = foldTails(p, tail)
		e.p = p.Freeze()
	})
	return e.p, e.moved
}

// foldTails takes p's outer support bins, the lighter end bin first
// (as PMF.TruncateTail does), while the bins taken hold at most tail
// of mass in total, and adds each side's taken mass to the bin that
// side stops at. p keeps its mass (up to rounding) on a narrower
// support, and foldTails returns the mass it moved. The folded CDF
// differs from p's by at most the mass folded on one side, so it lies
// within the returned amount of p's everywhere. At least one bin is
// kept; tail <= 0 folds nothing.
func foldTails(p *PMF, tail float64) float64 {
	if tail <= 0 {
		return 0
	}
	lo, hi := p.lo, p.hi
	w, off := p.w, p.off
	var left, right float64
	for hi-lo > 1 {
		if lw, rw := w[lo-off], w[hi-1-off]; lw <= rw {
			if left+right+lw > tail {
				break
			}
			left += lw
			w[lo-off] = 0
			lo++
		} else {
			if left+right+rw > tail {
				break
			}
			right += rw
			w[hi-1-off] = 0
			hi--
		}
	}
	if lo == p.lo && hi == p.hi {
		return 0
	}
	w[lo-off] += left
	w[hi-1-off] += right
	p.lo, p.hi = lo, hi
	p.massOK = false
	return left + right
}

// Forget drops every cached discretization of n, on each grid and tail
// the cache has served. A later lookup re-discretizes it, and
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
