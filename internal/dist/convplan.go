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
// with no per-pair floor, branch, or bounds test.
//
// Plans are read-only after construction and safe for concurrent use.
type ConvPlan struct {
	grid   Grid
	base   []int32   // floor(s + off)
	one    []float64 // 1 − frac(s + off)
	frc    []float64 // frac(s + off)
	contig bool
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
// written once per row instead of twice), which reassociates
// nothing: every bin receives the same adds in the same order as the
// per-pair reference loop.
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
// dispatch between the in-grid fast loop and the clamped fallback:
// each support bin of p is a source row, run against q's support
// bins.
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
	for i, a := range src {
		if a == 0 {
			continue
		}
		s0 := p.lo + i + qlo
		t0 := int(pl.base[s0])
		if pl.contig && t0 >= 0 && t0+nq < n {
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
		} else {
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
