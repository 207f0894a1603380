package dist

import "repro/internal/obs"

// Slab carves stored t.o.p. functions out of chunked backing arrays,
// each frozen to exactly its support with its mass cached. An analysis
// stores two t.o.p. functions per net and keeps them for the result's
// lifetime; carving them from a few large pointer-free chunks costs a
// handful of allocations per run instead of two per net, and sizing
// the chunks by what is stored — not by the grid width — keeps the
// footprint at the supports' total (DESIGN.md §11.4).
//
// A Slab is not safe for concurrent use: the level scheduler gives
// each worker its own. Rows never move and are never reused, so a
// stored PMF stays valid for as long as it is referenced.
type Slab struct {
	chunk int       // minimum bin-chunk length; 0 allocates every row on its own
	buf   []float64 // current bin chunk
	pos   int       // first unused bin of buf
	hdrs  []PMF     // unused headers of the current header chunk
	bytes int64     // bytes of bin chunks allocated so far
	used  int64     // bins carved so far
	want  int64     // bins the caller expects to store (Expect) ...
	since int64     // ... from the point where used was since
	nhdr  int       // headers allocated so far
}

// NewSlab returns a slab whose bin chunks hold at least chunk bins.
// A new chunk is sized by what the slab is expected to hold: what is
// left of the caller's last Expect, or else, once that is used up, a
// quarter of everything allocated before it, so the chunk count grows
// only logarithmically with the stored bins. chunk 0 allocates each row and header on its own, for
// callers that store few rows and must not pin a shared chunk (the
// incremental re-timing cones).
func NewSlab(chunk int) *Slab { return &Slab{chunk: chunk} }

// Bytes returns the bytes of bin storage the slab has allocated.
func (s *Slab) Bytes() int64 { return s.bytes }

// Used returns the number of bins carved into rows so far.
func (s *Slab) Used() int64 { return s.used }

// Expect tells the slab that about n more bins will be stored, so a
// chunk it allocates holds the rest of them in one allocation rather
// than a run of growing ones. A later Expect replaces an earlier one.
func (s *Slab) Expect(n int64) { s.want, s.since = n, s.used }

// row carves n zero bins.
func (s *Slab) row(n int) []float64 {
	if n == 0 {
		return nil
	}
	s.used += int64(n)
	if s.chunk == 0 {
		s.bytes += int64(n) * 8
		return make([]float64, n)
	}
	if s.pos+n > len(s.buf) {
		// The row being carved is already counted in used.
		size := int(s.want - (s.used - int64(n) - s.since))
		if size <= 0 {
			size = int(s.bytes / 8 / 4)
		}
		size = max(s.chunk, n, size)
		s.buf, s.pos = make([]float64, size), 0
		s.bytes += int64(size) * 8
	}
	r := s.buf[s.pos : s.pos+n : s.pos+n]
	s.pos += n
	return r
}

// giveBack returns the last n bins of the most recent row to the
// chunk. They must still be zero.
func (s *Slab) giveBack(n int) {
	if s.chunk != 0 {
		s.pos -= n
		s.used -= int64(n)
	}
}

// hdr returns a zero PMF header.
func (s *Slab) hdr() *PMF {
	if s.chunk == 0 {
		return new(PMF)
	}
	if len(s.hdrs) == 0 {
		s.hdrs = make([]PMF, max(256, s.nhdr/4))
		s.nhdr += len(s.hdrs)
	}
	p := &s.hdrs[0]
	s.hdrs = s.hdrs[1:]
	return p
}

// Empty returns an empty frozen PMF on g.
func (s *Slab) Empty(g Grid) *PMF {
	p := s.hdr()
	p.grid, p.massOK = g, true
	return p
}

// frozen returns a PMF on g whose window is a fresh row covering
// [lo, hi), with that range as its support.
func (s *Slab) frozen(g Grid, lo, hi int) *PMF {
	p := s.hdr()
	p.grid, p.w, p.off, p.lo, p.hi = g, s.row(hi-lo), lo, lo, hi
	return p
}

// Store returns a frozen copy of src.
func (s *Slab) Store(src *PMF) *PMF {
	if src.lo == src.hi {
		return s.Empty(src.grid)
	}
	p := s.frozen(src.grid, src.lo, src.hi)
	if src.massOK {
		copy(p.w, src.bins())
		p.mass = src.mass
	} else {
		m := 0.0
		for i, v := range src.bins() {
			p.w[i] = v
			m += v
		}
		p.mass = m
	}
	p.massOK = true
	return p
}

// StoreScaled returns a frozen copy of w·src, bit-identical to
// NewPMF(g).AccumWeighted(src, w).
func (s *Slab) StoreScaled(src *PMF, w float64) *PMF {
	if w == 0 || src.lo == src.hi {
		return s.Empty(src.grid)
	}
	p := s.frozen(src.grid, src.lo, src.hi)
	m := 0.0
	for i, v := range src.bins() {
		p.w[i] += w * v
		m += p.w[i]
	}
	p.mass, p.massOK = m, true
	return p
}

// StoreShifted returns a frozen copy of src translated by d when the
// translation is a whole number of bins and keeps the support inside
// the grid — the case where ShiftInto is a plain copy, whose bin-op
// cost it charges to m the same way. Otherwise it returns nil and
// charges nothing.
func (s *Slab) StoreShifted(m *obs.Metrics, src *PMF, d float64) *PMF {
	g := src.grid
	ib, frac := g.wholeShift(d)
	if frac != 0 || src.lo == src.hi || src.lo+ib < 0 || src.hi+ib >= g.N {
		return nil
	}
	if m != nil {
		m.CostBinOps.Add(int64(src.hi - src.lo))
	}
	p := s.frozen(g, src.lo+ib, src.hi+ib)
	copy(p.w, src.bins())
	p.mass, p.massOK = src.Mass(), true
	return p
}

// StoreMixture evaluates the max (or min) mixture of in on g and
// stores it translated by d, writing the mixture straight into its
// stored row: no scratch PMF, no copy, and the mass summed in the
// same pass. It applies when d is 0 or a whole number of bins that
// keeps the inputs' union support inside the grid, and then gives
// bins, support, mass and metrics (charged to m) identical to
// MaxMixtureInto or MinMixtureInto followed by CopyFrom (d = 0) or
// ShiftInto. Otherwise it returns nil and charges nothing.
func (s *Slab) StoreMixture(m *obs.Metrics, g Grid, in []SwitchInput, max bool, d float64) *PMF {
	ib, frac := g.wholeShift(d)
	lo, hi := mixtureSupport(g, in)
	if frac != 0 || len(in) == 0 || (d != 0 && lo < hi && (lo+ib < 0 || hi+ib >= g.N)) {
		return nil
	}
	recordMixture(m, len(in), lo, hi)
	if lo >= hi {
		return s.Empty(g)
	}
	out := s.row(hi - lo)
	first, last, mass := mixtureBins(out, lo, in, max, lo, hi)
	p := s.hdr()
	p.grid, p.mass, p.massOK = g, mass, true
	if first > last {
		s.giveBack(len(out))
		return p
	}
	if d != 0 {
		if m != nil {
			m.CostBinOps.Add(int64(last + 1 - first))
		}
	} else {
		ib = 0
	}
	// Freeze to the non-zero support: the unused tail goes back to the
	// chunk (its bins were written as zeros), the head stays unused.
	s.giveBack(hi - 1 - last)
	p.w = out[first-lo : last+1-lo : last+1-lo]
	p.off, p.lo, p.hi = first+ib, first+ib, last+1+ib
	return p
}
