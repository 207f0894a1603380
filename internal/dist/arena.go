package dist

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Arena hands out zeroed grid-sized PMFs carved from one contiguous
// backing slice. A full-circuit analysis stores two t.o.p. functions
// per net; allocating each individually makes the allocator and
// garbage collector the dominant cost once pruning has shrunk the
// kernels' per-bin work, while one pointer-free backing array costs a
// single allocation and is skipped by the GC scanner. Take is safe
// for concurrent use (circuit levels evaluate in parallel).
//
// Arena PMFs are never Released into the scratch pool — they stay
// referenced by the analysis result for its whole lifetime. A caller
// that has finished with every PMF taken from the arena may hand the
// whole arena back with Recycle; repeat analyses then skip both the
// slab allocation and the full-width zeroing (only the dirtied
// supports are cleared, which is what pruning makes narrow).
type Arena struct {
	grid Grid // construction grid: the geometry the rows were carved for
	cur  Grid // grid Take tags rows with; Retarget narrows it mid-run
	w    []float64
	hdr  []PMF
	cnt  atomic.Int64
}

// arenaPool recycles arenas across analysis runs. Pooled arenas obey
// the same invariant as the scratch-PMF pool: every bin of the
// backing slice is zero.
var arenaPool sync.Pool

// NewArena returns an arena with room for n grid-sized PMFs, reusing
// a recycled arena of compatible shape when one is available. The
// arena's backing bytes, fresh or reused, are recorded as the run's
// slab footprint (obs.Metrics.SlabBytesPeak) on g's metrics handle.
func NewArena(g Grid, n int) *Arena {
	a, _ := arenaPool.Get().(*Arena)
	if a == nil || a.grid != g || len(a.hdr) < n {
		// Nothing pooled, or the wrong shape: allocate fresh (a
		// dropped arena's bins are zero, nothing to clean up).
		a = &Arena{grid: g, cur: g, w: make([]float64, n*g.N), hdr: make([]PMF, n)}
		for i := range a.hdr {
			lo := i * g.N
			a.hdr[i] = PMF{grid: g, w: a.w[lo : lo+g.N : lo+g.N]}
		}
	}
	if m := g.met; m != nil {
		obs.ObserveMax(&m.SlabBytesPeak, int64(len(a.w))*8)
	}
	return a
}

// Take returns an empty PMF backed by the arena, tagged with the
// arena's current grid (the construction grid, or whatever Retarget
// last set). A nil or exhausted arena returns nil; the caller falls
// back to NewPMF.
func (a *Arena) Take() *PMF {
	if a == nil {
		return nil
	}
	i := a.cnt.Add(1) - 1
	if int(i) >= len(a.hdr) {
		return nil
	}
	p := &a.hdr[i]
	if p.grid != a.cur {
		p.grid = a.cur
	}
	return p
}

// Retarget makes subsequent Takes hand out rows tagged with g, which
// must not need more bins than the construction grid (the backing
// rows keep their original width; a coarser grid simply uses a
// prefix). The multi-resolution scheduler calls it at level
// boundaries after re-binning, when no worker is running — Retarget
// must not race with Take.
func (a *Arena) Retarget(g Grid) {
	if a == nil {
		return
	}
	if g.N > a.grid.N {
		panic("dist: Arena.Retarget to a grid wider than the construction grid")
	}
	a.cur = g
}

// Recycle clears every PMF handed out so far and returns the arena to
// the package pool for reuse by a later NewArena. The caller must not
// touch any PMF taken from this arena afterwards.
func (a *Arena) Recycle() {
	if a == nil {
		return
	}
	n := int(a.cnt.Load())
	if n > len(a.hdr) {
		n = len(a.hdr)
	}
	for i := 0; i < n; i++ {
		// Reset clears whatever support the row's current (possibly
		// retargeted or rebinned) grid tracked; restoring the
		// construction grid afterwards re-establishes the pool
		// invariant for the next run.
		a.hdr[i].Reset()
		a.hdr[i].grid = a.grid
	}
	a.cnt.Store(0)
	a.cur = a.grid
	arenaPool.Put(a)
}
