package dist

import (
	"sync"

	"repro/internal/obs"
)

// Slab is the struct-of-arrays sibling of Arena: N same-grid PMF rows
// carved from one contiguous float64 backing array, with per-row
// [lo, hi) support metadata in the PMF headers. The batched level
// scheduler stages every mixture output of a topological level in a
// slab, so the delay-convolution pass that follows streams rows that
// are adjacent in memory instead of chasing per-net scratch
// allocations.
//
// Slab rows are reused level after level (the scheduler resets the
// rows it dirtied), and whole slabs are recycled across runs through
// a package pool like arenas — a pooled slab obeys the all-bins-zero
// invariant.
type Slab struct {
	grid Grid
	w    []float64
	rows []PMF
}

// slabPool recycles slabs across analysis runs.
var slabPool sync.Pool

// NewSlab returns a slab with n zeroed grid-sized rows, reusing a
// recycled slab of compatible shape (same geometry, enough rows) when
// one is available.
func NewSlab(g Grid, n int) *Slab {
	if v := slabPool.Get(); v != nil {
		s := v.(*Slab)
		if s.grid.Equal(g) && len(s.rows) >= n {
			if m := g.met; m != nil {
				reused := int64(len(s.w)) * 8
				m.SlabBytesReused.Add(reused)
				obs.ObserveMax(&m.SlabBytesPeak, reused)
			}
			// Retag the rows with the caller's grid so kernel calls on
			// them record into the caller's metrics scope.
			s.grid = g
			for i := range s.rows {
				s.rows[i].grid = g
			}
			return s
		}
		// Wrong shape: drop it and allocate fresh (its bins are zero,
		// nothing to clean up).
	}
	s := &Slab{grid: g, w: make([]float64, n*g.N), rows: make([]PMF, n)}
	if m := g.met; m != nil {
		bytes := int64(len(s.w)) * 8
		obs.ObserveMax(&m.SlabBytesPeak, bytes)
	}
	for i := range s.rows {
		lo := i * g.N
		s.rows[i] = PMF{grid: g, w: s.w[lo : lo+g.N : lo+g.N]}
	}
	return s
}

// Grid returns the grid the slab rows live on.
func (s *Slab) Grid() Grid { return s.grid }

// Rows returns the number of rows in the slab.
func (s *Slab) Rows() int { return len(s.rows) }

// Row returns row i. The PMF stays owned by the slab: callers may
// fill and read it but must not Release it.
func (s *Slab) Row(i int) *PMF { return &s.rows[i] }

// ResetRows clears the first n rows back to the all-zero invariant.
func (s *Slab) ResetRows(n int) {
	if n > len(s.rows) {
		n = len(s.rows)
	}
	for i := 0; i < n; i++ {
		s.rows[i].Reset()
	}
}

// Recycle resets every row and returns the slab to the package pool.
// The caller must not touch any row afterwards.
func (s *Slab) Recycle() {
	if s == nil {
		return
	}
	s.ResetRows(len(s.rows))
	slabPool.Put(s)
}
