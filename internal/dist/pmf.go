package dist

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// PMF is a discretized distribution: probability mass per grid bin.
// Total mass need not be 1 — a signal transition temporal occurrence
// probability (t.o.p.) function integrates to the transition's
// occurrence probability (Definition 3 of the paper), and PMFs with
// sub-unit mass represent exactly that. Normalize converts a t.o.p.
// into a conditional arrival-time pdf.
//
// Every PMF tracks its non-zero support [lo, hi): bins outside the
// range are exactly zero, and all kernels iterate only over the
// support. Launch-point discretizations occupy a small slice of a
// deep circuit's grid (a ±σ neighborhood of the launch window), so
// skipping the zero tail is most of the work for shallow nets. Bins
// inside the support may still be zero — the invariant is
// one-directional and never affects results, only how much of the
// grid a kernel visits.
//
// The bins live in a window: w holds bins [off, off+len(w)) and every
// bin outside it reads as 0, so the window always contains the
// support. PMFs built by NewPMF and the allocating kernels span the
// whole grid (off 0); a stored t.o.p. is frozen (Freeze, Slab) to
// exactly its support, with its mass cached. Kernels read windowed
// operands bit-identically to full-width ones; a kernel that writes
// into a destination first widens it to the whole grid.
type PMF struct {
	grid   Grid
	w      []float64 // bins [off, off+len(w))
	off    int
	lo, hi int // non-zero support [lo, hi); lo == hi means empty
	// mass caches Mass() while massOK: the same left-to-right sum over
	// the support, taken when the PMF was frozen or written by a
	// kernel that sums as it goes. Every in-place change clears it.
	mass   float64
	massOK bool
}

// NewPMF returns an all-zero PMF on the grid.
func NewPMF(g Grid) *PMF {
	return &PMF{grid: g, w: make([]float64, g.N)}
}

// bins returns the support's bins.
func (p *PMF) bins() []float64 {
	if p.lo == p.hi {
		return nil
	}
	return p.w[p.lo-p.off : p.hi-p.off]
}

// at returns bin i, 0 outside the window.
func (p *PMF) at(i int) float64 {
	if j := i - p.off; uint(j) < uint(len(p.w)) {
		return p.w[j]
	}
	return 0
}

// cover widens the window to the whole grid unless it already
// contains [lo, hi), so a write there lands inside it.
func (p *PMF) cover(lo, hi int) {
	if lo >= p.off && hi <= p.off+len(p.w) {
		return
	}
	w := make([]float64, max(p.grid.N, p.off+len(p.w)))
	copy(w[p.off:], p.w)
	p.w, p.off = w, 0
}

// clear empties p for a kernel to write into: the support is zeroed
// and the window widened to the whole grid, so the kernel can index
// every bin i at w[i].
func (p *PMF) clear() {
	p.Reset()
	if p.off != 0 || len(p.w) < p.grid.N {
		p.w, p.off = make([]float64, p.grid.N), 0
	}
}

// Reset clears the PMF to all-zero (only the support is touched).
func (p *PMF) Reset() *PMF {
	clear(p.bins())
	p.lo, p.hi = 0, 0
	p.massOK = false
	return p
}

// expand grows the support to include bin i.
func (p *PMF) expand(i int) {
	if p.lo == p.hi {
		p.lo, p.hi = i, i+1
		return
	}
	if i < p.lo {
		p.lo = i
	}
	if i >= p.hi {
		p.hi = i + 1
	}
}

// Freeze trims the window to exactly the support and caches the mass,
// and returns p. The bins are not copied: a full-width PMF keeps its
// backing array. A frozen PMF stays fully usable; a later in-place
// change drops the cached mass, and a write outside the window widens
// it again.
func (p *PMF) Freeze() *PMF {
	if p.lo == p.hi {
		p.w, p.off = p.w[:0], 0
	} else {
		p.w = p.w[p.lo-p.off : p.hi-p.off : p.hi-p.off]
		p.off = p.lo
	}
	if !p.massOK {
		p.mass, p.massOK = sum(p.w), true
	}
	return p
}

// sum is the left-to-right sum Mass() takes.
func sum(w []float64) float64 {
	s := 0.0
	for _, v := range w {
		s += v
	}
	return s
}

// FromNormal discretizes N(mu, sigma²): each bin receives the exact
// CDF difference across its edges, and the tail mass beyond the grid
// is folded into the first and last bins so the total mass is
// exactly 1.
func FromNormal(g Grid, n Normal) *PMF {
	p := NewPMF(g)
	if n.Sigma == 0 {
		return Delta(g, n.Mu)
	}
	prev := 0.0 // CDF at left grid edge, with tail folded in
	for i := 0; i < g.N; i++ {
		c := n.CDF(g.Edge(i + 1))
		if i == g.N-1 {
			c = 1
		}
		if v := c - prev; v != 0 {
			p.w[i] = v
			p.expand(i)
		}
		prev = c
	}
	return p
}

// Delta returns a point mass 1 at x (clamped to the grid).
func Delta(g Grid, x float64) *PMF {
	p := NewPMF(g)
	p.SetBin(g.Index(x), 1)
	return p
}

// Grid returns the PMF's grid.
func (p *PMF) Grid() Grid { return p.grid }

// W returns the mass of bin i.
func (p *PMF) W(i int) float64 { return p.at(i) }

// SetBin sets the mass of bin i, maintaining the support bounds.
func (p *PMF) SetBin(i int, v float64) {
	if v == 0 && p.at(i) == 0 {
		return
	}
	p.cover(i, i+1)
	p.w[i-p.off] = v
	p.massOK = false
	if v != 0 {
		p.expand(i)
	}
}

// Support returns the tracked non-zero bin range [lo, hi); lo == hi
// for an all-zero PMF. Bins outside the range are exactly zero.
func (p *PMF) Support() (lo, hi int) { return p.lo, p.hi }

// Clone returns a deep full-width copy.
func (p *PMF) Clone() *PMF {
	q := NewPMF(p.grid)
	copy(q.w[p.lo:p.hi], p.bins())
	q.lo, q.hi = p.lo, p.hi
	q.mass, q.massOK = p.mass, p.massOK
	return q
}

// CopyFrom replaces p's contents with q's and returns p.
func (p *PMF) CopyFrom(q *PMF) *PMF {
	p.grid.check(q.grid, "CopyFrom")
	if p == q {
		return p
	}
	p.clear()
	copy(p.w[q.lo:q.hi], q.bins())
	p.lo, p.hi = q.lo, q.hi
	p.mass, p.massOK = q.mass, q.massOK
	return p
}

// Mass returns the total probability mass: the left-to-right sum over
// the support, cached on frozen PMFs.
func (p *PMF) Mass() float64 {
	if p.massOK {
		return p.mass
	}
	return sum(p.bins())
}

// Scale multiplies every bin by s and returns p.
func (p *PMF) Scale(s float64) *PMF {
	w := p.bins()
	for i := range w {
		w[i] *= s
	}
	p.massOK = false
	return p
}

// Normalize scales the PMF to unit mass and returns the prior mass.
// A zero-mass PMF is left unchanged.
func (p *PMF) Normalize() float64 {
	m := p.Mass()
	if m > 0 {
		p.Scale(1 / m)
	}
	return m
}

// AccumWeighted adds w·q into p (mixture accumulation) and returns p.
func (p *PMF) AccumWeighted(q *PMF, w float64) *PMF {
	p.grid.check(q.grid, "AccumWeighted")
	if w == 0 || q.lo == q.hi {
		return p
	}
	lo, hi := q.lo, q.hi
	p.cover(lo, hi)
	dst := p.w[lo-p.off : hi-p.off]
	for i, v := range q.bins() {
		dst[i] += w * v
	}
	p.massOK = false
	if p.lo == p.hi {
		p.lo, p.hi = lo, hi
	} else {
		if lo < p.lo {
			p.lo = lo
		}
		if hi > p.hi {
			p.hi = hi
		}
	}
	return p
}

// Shift returns the distribution translated by d. Fractional-bin
// shifts split mass linearly between the two nearest bins; mass
// pushed past an edge accumulates in the edge bin so total mass is
// preserved. It records no metrics.
func (p *PMF) Shift(d float64) *PMF {
	return p.ShiftInto(nil, NewPMF(p.grid), d)
}

// wholeShift splits a shift by d into whole bins and the fractional
// remainder, as every shift kernel does.
func (g Grid) wholeShift(d float64) (ib int, frac float64) {
	k := d / g.Dt
	base := math.Floor(k)
	return int(base), k - base
}

// ShiftInto writes the distribution translated by d into dst
// (cleared first), charging its bin operations to m (nil records
// nothing), and returns dst. dst must not alias p.
func (p *PMF) ShiftInto(m *obs.Metrics, dst *PMF, d float64) *PMF {
	p.grid.check(dst.grid, "ShiftInto")
	dst.clear()
	if p.lo == p.hi {
		return dst
	}
	if m != nil {
		m.CostBinOps.Add(int64(p.hi - p.lo))
	}
	ib, frac := p.grid.wholeShift(d)
	src := p.bins()
	// Fast path: the shifted support lies entirely inside the grid, so
	// no per-bin edge clamping is needed and the destination support is
	// known up front.
	if lo, hi := p.lo+ib, p.hi+ib; lo >= 0 && hi < p.grid.N {
		if frac == 0 {
			copy(dst.w[lo:hi], src)
			dst.lo, dst.hi = lo, hi
			dst.mass, dst.massOK = p.mass, p.massOK
			return dst
		}
		for j, v := range src {
			if v == 0 {
				continue
			}
			i := p.lo + j
			dst.w[i+ib] += v * (1 - frac)
			dst.w[i+ib+1] += v * frac
		}
		dst.lo, dst.hi = lo, hi+1
		return dst
	}
	add := func(i int, v float64) {
		if v == 0 {
			return
		}
		if i < 0 {
			i = 0
		}
		if i >= p.grid.N {
			i = p.grid.N - 1
		}
		dst.w[i] += v
		dst.expand(i)
	}
	for j, v := range src {
		if v == 0 {
			continue
		}
		i := p.lo + j
		add(i+ib, v*(1-frac))
		if frac > 0 {
			add(i+ib+1, v*frac)
		}
	}
	return dst
}

// Convolve returns the distribution of the sum of two independent
// variables (the SSTA SUM operation, Eq. 1, discretized). The mass
// of each bin-center pair is split linearly between the two bins
// whose centers bracket the sum; out-of-grid mass clamps to the
// edge bins so total mass is preserved.
//
// When both operands' supports exceed the FFT crossover the O(n²)
// direct product is replaced by an FFT linear convolution followed
// by the same constant-fraction split (the two agree to roundoff;
// see convolveFFTInto). It records no metrics.
func (p *PMF) Convolve(q *PMF) *PMF {
	return p.ConvolveInto(nil, NewPMF(p.grid), q)
}

// ConvolveInto writes the convolution of p and q into dst (cleared
// first), charging it to m (nil records nothing), and returns dst.
// dst must not alias p or q. It runs the grid's cached ConvPlan.
func (p *PMF) ConvolveInto(m *obs.Metrics, dst, q *PMF) *PMF {
	return PlanFor(m, p.grid).ConvolveInto(m, dst, p, q)
}

// MaxPMF returns the distribution of max(A, B) for independent A, B
// given as unit- or sub-unit-mass PMFs. With atoms at bin centers,
// P(max = k) = a[k]·CB[k] + b[k]·CA[k] − a[k]·b[k] (the joint atom
// at k is counted once). It records no metrics.
func MaxPMF(a, b *PMF) *PMF {
	return MaxPMFInto(nil, NewPMF(a.grid), a, b)
}

// MaxPMFInto writes the distribution of max(A, B) into dst (cleared
// first), charging its bin operations to m (nil records nothing), and
// returns dst. dst must not alias a or b. The cumulative sums run as
// scalars over the union support, so the kernel is a single
// allocation-free pass.
func MaxPMFInto(m *obs.Metrics, dst, a, b *PMF) *PMF {
	a.grid.check(b.grid, "MaxPMF")
	a.grid.check(dst.grid, "MaxPMF")
	dst.clear()
	lo, hi := unionSupport(a, b)
	if m != nil && hi > lo {
		m.CostBinOps.Add(int64(hi - lo))
	}
	ca, cb := 0.0, 0.0 // inclusive cumulative masses of A and B
	for k := lo; k < hi; k++ {
		av, bv := a.at(k), b.at(k)
		ca += av
		cb += bv
		if v := av*cb + bv*ca - av*bv; v != 0 {
			dst.w[k] = v
			dst.expand(k)
		}
	}
	return dst
}

// MinPMF returns the distribution of min(A, B) for independent A, B.
// It records no metrics.
func MinPMF(a, b *PMF) *PMF {
	return MinPMFInto(nil, NewPMF(a.grid), a, b)
}

// MinPMFInto writes the distribution of min(A, B) into dst (cleared
// first), charging its bin operations to m (nil records nothing), and
// returns dst. dst must not alias a or b.
func MinPMFInto(m *obs.Metrics, dst, a, b *PMF) *PMF {
	a.grid.check(b.grid, "MinPMF")
	a.grid.check(dst.grid, "MinPMF")
	dst.clear()
	lo, hi := unionSupport(a, b)
	if m != nil && hi > lo {
		m.CostBinOps.Add(int64(hi - lo))
	}
	ma, mb := a.Mass(), b.Mass()
	ca, cb := 0.0, 0.0
	for k := lo; k < hi; k++ {
		av, bv := a.at(k), b.at(k)
		ca += av
		cb += bv
		// P(min = k) = a[k]·P(B ≥ k) + b[k]·P(A > k)
		sb := mb - cb + bv // P(B ≥ k)
		sa := ma - ca      // P(A > k)
		if v := av*sb + bv*sa; v != 0 {
			dst.w[k] = v
			dst.expand(k)
		}
	}
	return dst
}

// unionSupport returns the union of two PMFs' supports ([0,0) when
// both are empty).
func unionSupport(a, b *PMF) (lo, hi int) {
	switch {
	case a.lo == a.hi:
		return b.lo, b.hi
	case b.lo == b.hi:
		return a.lo, a.hi
	}
	lo, hi = a.lo, a.hi
	if b.lo < lo {
		lo = b.lo
	}
	if b.hi > hi {
		hi = b.hi
	}
	return lo, hi
}

// TruncateTail zeroes support bins from both ends of [lo, hi) while
// the cumulative removed mass stays within eps, shrinking the tracked
// support, records the trim into m (nil records nothing), and returns
// the mass actually removed. The smaller end bin
// is always taken first, so for a fixed PMF and budget the truncation
// is deterministic; interior zero bins at the ends are absorbed for
// free. Removed mass is deleted, not redistributed — a t.o.p.'s Mass()
// (its transition occurrence probability) shrinks by the returned
// amount, which the caller folds back into its four-value probability
// accounting (see core's ε-bounded pruning, DESIGN.md §11). Every
// downstream kernel iterates only the support, so trimming the
// low-mass tails is what pushes mixture, MIN/MAX and convolution
// costs down. eps <= 0 is a no-op returning 0, as is a PMF whose
// support is empty or a single bin — there is no tail to trim around
// a point mass, so the scan is skipped entirely. The window is kept;
// Freeze trims it to the new support.
func (p *PMF) TruncateTail(m *obs.Metrics, eps float64) float64 {
	if eps <= 0 || p.hi-p.lo <= 1 {
		return 0
	}
	removed := 0.0
	lo, hi := p.lo, p.hi
	w, off := p.w, p.off
	for lo < hi {
		lw, rw := w[lo-off], w[hi-1-off]
		if lw <= rw {
			if removed+lw > eps {
				break
			}
			removed += lw
			w[lo-off] = 0
			lo++
		} else {
			if removed+rw > eps {
				break
			}
			removed += rw
			w[hi-1-off] = 0
			hi--
		}
	}
	changed := removed > 0 || lo != p.lo || hi != p.hi
	if m != nil && changed {
		m.TruncTails.Add(1)
		m.TruncatedMassFP.Add(obs.MassFP(removed))
		m.TruncatedBins.Observe((lo - p.lo) + (p.hi - hi))
		m.PrunedSupportWidth.Observe(hi - lo)
	}
	if changed {
		p.massOK = false
	}
	if lo >= hi {
		p.lo, p.hi = 0, 0
	} else {
		p.lo, p.hi = lo, hi
	}
	return removed
}

// Mean returns the conditional mean over bin centers (conditioned on
// the PMF's mass; 0 for a zero-mass PMF).
func (p *PMF) Mean() float64 {
	m, s := 0.0, 0.0
	for j, v := range p.bins() {
		s += v
		m += v * p.grid.X(p.lo+j)
	}
	if s == 0 {
		return 0
	}
	return m / s
}

// Var returns the conditional variance over bin centers.
func (p *PMF) Var() float64 {
	mass := p.Mass()
	if mass == 0 {
		return 0
	}
	mu := p.Mean()
	v := 0.0
	for j, w := range p.bins() {
		d := p.grid.X(p.lo+j) - mu
		v += w * d * d
	}
	v /= mass
	if v < 0 {
		v = 0
	}
	return v
}

// Sigma returns the conditional standard deviation.
func (p *PMF) Sigma() float64 { return math.Sqrt(p.Var()) }

// CDFAt returns the mass at or below x (not normalized): the sum of
// bins whose centers are ≤ x, computed as a single prefix sum up to
// the cut bin instead of a full-grid comparison scan.
func (p *PMF) CDFAt(x float64) float64 {
	// Largest i with X(i) = Lo + (i+0.5)·Dt ≤ x. The division can
	// land one bin off the edge-comparison result at exact centers,
	// so nudge with the original predicate (at most one step). The
	// float is range-checked before conversion: Go's float-to-int
	// conversion is unspecified outside the int range (x may be ±Inf
	// or far off-grid).
	t := (x-p.grid.Lo)/p.grid.Dt - 0.5
	var cut int
	switch {
	case t >= float64(p.grid.N-1):
		cut = p.grid.N - 1
	case t < 0, math.IsNaN(t):
		cut = -1
	default:
		cut = int(math.Floor(t))
	}
	for cut+1 < p.grid.N && p.grid.X(cut+1) <= x {
		cut++
	}
	for cut >= 0 && p.grid.X(cut) > x {
		cut--
	}
	if cut >= p.hi {
		cut = p.hi - 1
	}
	s := 0.0
	for i := p.lo; i <= cut; i++ {
		s += p.w[i-p.off]
	}
	return s
}

// Quantile returns the smallest bin center whose normalized
// cumulative mass reaches q. It panics on a zero-mass PMF or q
// outside (0, 1].
func (p *PMF) Quantile(q float64) float64 {
	if !(q > 0 && q <= 1) {
		panic(fmt.Sprintf("dist: Quantile(%v) out of (0,1]", q))
	}
	mass := p.Mass()
	if mass == 0 {
		panic("dist: Quantile of zero-mass PMF")
	}
	target := q * mass
	s := 0.0
	for i := 0; i < p.grid.N; i++ {
		s += p.at(i)
		if s >= target-1e-15 {
			return p.grid.X(i)
		}
	}
	return p.grid.X(p.grid.N - 1)
}

// Normal returns the moment-matched normal of the (conditional)
// distribution.
func (p *PMF) Normal() Normal { return Normal{p.Mean(), p.Sigma()} }

// Skewness returns the standardized third central moment of the
// conditional distribution (0 for zero-mass or zero-variance PMFs).
// Section 3.4 lists skewness among the moments SPSTA can track; the
// MAX operation produces right-skewed results while the WEIGHTED SUM
// of symmetric inputs stays near-symmetric (Fig. 4).
func (p *PMF) Skewness() float64 {
	mass := p.Mass()
	if mass == 0 {
		return 0
	}
	mu := p.Mean()
	sigma := p.Sigma()
	if sigma == 0 {
		return 0
	}
	m3 := 0.0
	for j, w := range p.bins() {
		d := p.grid.X(p.lo+j) - mu
		m3 += w * d * d * d
	}
	return m3 / mass / (sigma * sigma * sigma)
}
