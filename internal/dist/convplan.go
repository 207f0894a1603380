package dist

import (
	"math"
	"sync"

	"repro/internal/obs"
)

// ConvPlan precomputes the bin-split tables of the direct convolution
// kernel for one grid. The direct kernel places the product mass of
// bin centers i and j at fractional bin k = i + j + off
// (off = Lo/Dt + 1/2) and splits it linearly between floor(k) and
// floor(k)+1; floor, the split fraction and its complement depend
// only on the center-sum s = i + j, so one table over s ∈ [0, 2N−2]
// serves every convolution of the run. The plan also notes whether
// floor(s + off) advances by exactly one bin per unit of s (contig) —
// true for every real grid; the theoretical exception is a grid whose
// off sits within half an ulp of an integer — which is what lets the
// kernel process a whole in-grid source row against two table slices
// with no per-pair floor, branch, or bounds test. It further notes
// whether every split is exactly one half (half). That holds whenever
// Lo is a whole number of bins: TimingGrid for the paper's σ = 1
// launches puts Lo at −8, i.e. −128 bins, so off is a half-integer on
// it and on its Coarsen grids, and the kernel then runs source rows
// in pairs (see convolveDirect).
//
// Plans are read-only after construction and safe for concurrent use.
type ConvPlan struct {
	grid   Grid
	base   []int32   // floor(s + off)
	one    []float64 // 1 − frac(s + off)
	frc    []float64 // frac(s + off)
	contig bool
	half   bool // contig, and one[s] == frc[s] == 0.5 for every s
}

// NewConvPlan builds the split tables for grid g.
func NewConvPlan(g Grid) *ConvPlan {
	ns := 2*g.N - 1
	if ns < 1 {
		ns = 1
	}
	pl := &ConvPlan{
		grid: g,
		base: make([]int32, ns),
		one:  make([]float64, ns),
		frc:  make([]float64, ns),
	}
	off := g.Lo/g.Dt + 0.5
	for s := 0; s < ns; s++ {
		k := float64(s) + off
		b := math.Floor(k)
		pl.base[s] = int32(b)
		pl.frc[s] = k - b
		pl.one[s] = 1 - pl.frc[s]
	}
	pl.contig = true
	for s := 1; s < ns; s++ {
		if pl.base[s] != pl.base[s-1]+1 {
			pl.contig = false
			break
		}
	}
	pl.half = pl.contig
	for s := 0; s < ns && pl.half; s++ {
		pl.half = pl.one[s] == 0.5 && pl.frc[s] == 0.5
	}
	return pl
}

// Grid returns the grid the plan was built for.
func (pl *ConvPlan) Grid() Grid { return pl.grid }

// convPlans caches split-table plans by grid for the process
// lifetime, like fftPlans: plans are immutable once built and shared
// freely, so each grid — each resolution level of a coarsening run
// included — builds its tables once per process. The per-run hit/miss
// counters go to the registry of the caller asking for the plan.
var convPlans sync.Map // Grid → *ConvPlan

// PlanFor returns the (possibly cached) convolution plan for g,
// recording a plan-cache hit or miss into m (nil records nothing).
func PlanFor(m *obs.Metrics, g Grid) *ConvPlan {
	if v, ok := convPlans.Load(g); ok {
		if m != nil {
			m.ConvPlanHits.Add(1)
		}
		return v.(*ConvPlan)
	}
	if m != nil {
		m.ConvPlanMisses.Add(1)
	}
	pl := NewConvPlan(g)
	if v, loaded := convPlans.LoadOrStore(g, pl); loaded {
		return v.(*ConvPlan)
	}
	return pl
}

// ConvolveInto writes the convolution of p and q into dst (cleared
// first), charging it to m (nil records nothing), and returns dst;
// dst must not alias p or q. This is the one
// convolution kernel of the package: PMF.ConvolveInto, and through it
// the level scheduler and the incremental delta cones, run it.
// Operands whose supports both reach fftCrossover take the
// FFT path; everything else runs the table-driven direct loop, which
// reads the split factors from the plan tables instead of
// recomputing a floor per bin pair. Source rows whose destination
// bins lie fully inside the grid additionally run a register-carried
// form of the inner loop (each destination bin is read once and
// written once per row instead of twice), and on a half-split grid
// consecutive pairs of such rows run as one tile. Neither
// reassociates anything: every bin receives the same adds in the same
// order as the per-pair reference loop.
func (pl *ConvPlan) ConvolveInto(m *obs.Metrics, dst, p, q *PMF) *PMF {
	work, fft := pl.convStart(m, dst, p, q)
	switch {
	case !work:
	case fft:
		convolveFFTInto(m, dst, p, q)
	default:
		convolveDirect(pl, dst, p, q)
	}
	return dst
}

// convStart checks that p, q and dst live on the plan's grid, clears
// dst and charges the convolution to m. It reports whether there is
// any work (both supports non-empty) and whether the wide-operand FFT
// path takes it.
func (pl *ConvPlan) convStart(m *obs.Metrics, dst, p, q *PMF) (work, fft bool) {
	pl.grid.check(p.grid, "Convolve")
	p.grid.check(q.grid, "Convolve")
	p.grid.check(dst.grid, "Convolve")
	dst.clear()
	sa, sb := p.hi-p.lo, q.hi-q.lo
	if sa == 0 || sb == 0 {
		return false, false
	}
	fft = sa >= fftCrossover && sb >= fftCrossover
	if m != nil {
		m.ConvSupport.Observe(sa)
		m.ConvSupport.Observe(sb)
		if fft {
			m.ConvFFT.Add(1)
			m.CostBinOps.Add(fftCostUnits(sa + sb - 1))
		} else {
			m.ConvDirect.Add(1)
			m.CostBinOps.Add(int64(sa) * int64(sb))
		}
	}
	return true, fft
}

// convolveDirect is the table-driven direct kernel with per-row
// dispatch between the in-grid fast loops and the clamped fallback:
// each support bin of p is a source row, run against q's support
// bins.
//
// On a half plan, two consecutive non-zero source rows i and i+1 whose
// destination bins [t0, t0+nq+1] all lie inside the grid run as one
// tile. Every pair's two split products are the same number
// h = (a·b)·0.5, computed once, and row i+1 lands one bin to the right
// of row i, so bin t0+k receives row i's h0[k−1] and h0[k] and then
// row i+1's h1[k−2] and h1[k−1] — the adds, and their order, of the
// single-row loop run on row i and then on row i+1. The first two and
// last two bins of the tile miss some of those terms and are written
// outside the loop. Any other row runs the single-row loops.
func convolveDirect(pl *ConvPlan, dst, p, q *PMF) {
	n := pl.grid.N
	w := dst.w
	src, qs, qlo := p.bins(), q.bins(), q.lo
	nq := len(qs)
	clampAdd := func(i int, v float64) {
		if v == 0 {
			return
		}
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		w[i] += v
		dst.expand(i)
	}
	// firstT/lastT track the destination span of the fast rows; the
	// clamped fallback expands dst itself. The resulting support may
	// over-approximate the realized one (edge bins of a fast row can
	// be zero), which the support invariant permits: bins inside the
	// support may be zero, bins outside are exactly zero.
	firstT, lastT := -1, -1
	for i := 0; i < len(src); i++ {
		a := src[i]
		if a == 0 {
			continue
		}
		s0 := p.lo + i + qlo
		t0 := int(pl.base[s0])
		switch {
		case pl.half && nq >= 2 && i+1 < len(src) && src[i+1] != 0 && t0 >= 0 && t0+nq+1 < n:
			// Two-row tile: x carries h0[k−1] and y carries h1[k−2]
			// into bin k.
			a1 := src[i+1]
			wt := w[t0 : t0+nq+2]
			x := a * qs[0] * 0.5
			y := a1 * qs[0] * 0.5
			wt[0] += x
			h := a * qs[1] * 0.5
			wt[1] = wt[1] + x + h + y
			x = h
			for k := 2; k < nq; k++ {
				h0 := a * qs[k] * 0.5
				h1 := a1 * qs[k-1] * 0.5
				wt[k] = wt[k] + x + h0 + y + h1
				x, y = h0, h1
			}
			h = a1 * qs[nq-1] * 0.5
			wt[nq] = wt[nq] + x + y + h
			wt[nq+1] += h
			if firstT < 0 {
				firstT = t0
			}
			lastT = t0 + 1
			i++
		case pl.contig && t0 >= 0 && t0+nq < n:
			// Fast row: every destination bin [t0, t0+nq] is in-grid
			// and consecutive pairs share a bin, so carry the running
			// bin value in a register across the row. The j-th store
			// is exactly clampAdd(t0+j, m·one) after the previous
			// pair's clampAdd(t0+j, m·frc): same adds, same order.
			ot := pl.one[s0 : s0+nq]
			ft := pl.frc[s0 : s0+nq]
			wrow := w[t0 : t0+nq+1]
			cur := wrow[0]
			for j, b := range qs {
				m := a * b
				cur += m * ot[j]
				wrow[j] = cur
				cur = wrow[j+1] + m*ft[j]
			}
			wrow[nq] = cur
			if firstT < 0 {
				firstT = t0
			}
			lastT = t0
		default:
			for j, b := range qs {
				if b == 0 {
					continue
				}
				m := a * b
				s := s0 + j
				clampAdd(int(pl.base[s]), m*pl.one[s])
				clampAdd(int(pl.base[s])+1, m*pl.frc[s])
			}
		}
	}
	if firstT >= 0 {
		hi := lastT + nq + 1
		if dst.lo == dst.hi {
			dst.lo, dst.hi = firstT, hi
		} else {
			if firstT < dst.lo {
				dst.lo = firstT
			}
			if hi > dst.hi {
				dst.hi = hi
			}
		}
	}
}
