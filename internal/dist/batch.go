package dist

import (
	"math"
	"sync"
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

// planKey identifies one cached ConvPlan: grid geometry plus storage
// precision, the same identity KernelCache keys on. The tables depend
// on geometry only, but keeping precision in the key means a run's
// plan lookups mirror its kernel lookups one for one.
type planKey struct {
	lo, dt float64
	n      int
	prec   Precision
}

// convPlans caches split-table plans by grid for the process
// lifetime, like fftPlans: plans are immutable once built and shared
// freely, so each (geometry, precision) — each resolution level of a
// coarsening run included — builds its tables once per process. The
// per-run hit/miss counters ride on the requesting grid's metrics
// handle; the cached plan itself carries a metrics-free grid so a
// plan built under one request's scope never records into another's
// (the convolution kernels read the operand grid's handle, not the
// plan's).
var convPlans sync.Map // planKey → *ConvPlan

// PlanFor returns the (possibly cached) convolution plan for g,
// recording a plan-cache hit or miss on g's metrics handle.
func PlanFor(g Grid) *ConvPlan {
	key := planKey{lo: g.Lo, dt: g.Dt, n: g.N, prec: g.Precision}
	m := g.met
	if v, ok := convPlans.Load(key); ok {
		if m != nil {
			m.ConvPlanHits.Add(1)
		}
		return v.(*ConvPlan)
	}
	if m != nil {
		m.ConvPlanMisses.Add(1)
	}
	pl := NewConvPlan(g.WithMetrics(nil))
	if v, loaded := convPlans.LoadOrStore(key, pl); loaded {
		return v.(*ConvPlan)
	}
	return pl
}

// ConvolveInto writes the convolution of p and q into dst (cleared
// first) and returns dst; dst must not alias p or q. This is the one
// convolution kernel of the package: PMF.ConvolveInto, the per-gate
// scheduler, the incremental delta cones and the batched levels all
// run it. Operands whose supports both reach fftCrossover take the
// FFT path; everything else runs the table-driven direct loop, which
// reads the split factors from the plan tables instead of
// recomputing a floor per bin pair. Source rows whose destination
// bins lie fully inside the grid additionally run a register-carried
// form of the inner loop (each destination bin is read once and
// written once per row instead of twice), which reassociates
// nothing: every bin receives the same adds in the same order as the
// per-pair reference loop.
func (pl *ConvPlan) ConvolveInto(dst, p, q *PMF) *PMF {
	work, fft := pl.convStart(dst, p, q)
	switch {
	case !work:
	case fft:
		convolveFFTInto(dst, p, q)
	default:
		convolveDirect(pl, dst, p.w, p.lo, p.hi, q.w[q.lo:q.hi], q.lo)
	}
	return dst
}

// convStart checks that p, q and dst live on the plan's grid, clears
// dst and charges the convolution's metrics. It reports whether
// there is any work (both supports non-empty) and whether the
// wide-operand FFT path takes it.
func (pl *ConvPlan) convStart(dst, p, q *PMF) (work, fft bool) {
	pl.grid.check(p.grid, "Convolve")
	p.grid.check(q.grid, "Convolve")
	p.grid.check(dst.grid, "Convolve")
	dst.Reset()
	sa, sb := p.hi-p.lo, q.hi-q.lo
	if sa == 0 || sb == 0 {
		return false, false
	}
	fft = sa >= fftCrossover && sb >= fftCrossover
	if m := p.grid.met; m != nil {
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
// dispatch between the in-grid fast loop and the clamped fallback.
// src is a full-width row with support [slo, shi) and qs the
// kernel's support bins starting at absolute bin qlo; the float32
// instantiation reads the packed slab mirror. Products and
// accumulation are float64 either way.
func convolveDirect[T float32 | float64](pl *ConvPlan, dst *PMF, src []T, slo, shi int, qs []T, qlo int) {
	n := pl.grid.N
	w := dst.w
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
	for i := slo; i < shi; i++ {
		a := float64(src[i])
		if a == 0 {
			continue
		}
		s0 := i + qlo
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
				m := a * float64(b)
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
				m := a * float64(b)
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

// ShiftBatch translates every src by d into the matching dst (cleared
// first). d == 0 degenerates to a straight copy, matching the serial
// deterministic-delay path bin for bin.
func ShiftBatch(dsts, srcs []*PMF, d float64) {
	for i, src := range srcs {
		if d == 0 {
			dsts[i].CopyFrom(src)
		} else {
			src.ShiftInto(dsts[i], d)
		}
	}
}

// MixtureJob is one weighted-mixture output of a batch: the SPSTA
// non-controlled-direction (max) or controlled-direction (min)
// mixture of a gate, destined for a slab row.
type MixtureJob struct {
	Dst *PMF
	In  []SwitchInput
	Min bool
}

// MixtureBatch evaluates every job in order, writing each mixture
// into its destination row with the same closed-form kernels the
// serial path uses.
func MixtureBatch(jobs []MixtureJob) {
	for i := range jobs {
		j := &jobs[i]
		if j.Min {
			MinMixtureInto(j.Dst, j.In)
		} else {
			MaxMixtureInto(j.Dst, j.In)
		}
	}
}

// QuantizeF32 rounds every support bin of p to its nearest float32 in
// place. The F32 batch path applies it to every stored result so the
// analysis is a function of the rounded values only — reproducible
// whether a bin was produced by the packed float32 loop or by a
// float64 one (shift, FFT).
func (p *PMF) QuantizeF32() {
	for i := p.lo; i < p.hi; i++ {
		p.w[i] = float64(float32(p.w[i]))
	}
}

// ConvolveBatchF32 convolves every src with the shared kernel q into
// the matching dst, reading packed operands: source rows are read from the slab's float32 mirror (half the
// memory traffic of the float64 rows) and the kernel from q32, the
// float32 mirror of q's support bins (as built by KernelF32).
// Products and bin accumulation stay float64; every stored output bin
// is then rounded to float32 (QuantizeF32), so downstream levels see
// float32-representable values regardless of which loop produced
// them. Wide operands fall back to the float64 FFT path — reading the
// quantized float64 rows, hence the same numbers — before the same
// output rounding.
//
// rows[i] names the slab row backing srcs[i]; srcs[i] must be
// slab.Row(rows[i]) with its float32 mirror current (Quantize).
func ConvolveBatchF32(pl *ConvPlan, dsts []*PMF, slab *Slab, rows []int, srcs []*PMF, q *PMF, q32 []float32) {
	for i, src := range srcs {
		dst := dsts[i]
		work, fft := pl.convStart(dst, src, q)
		switch {
		case !work:
			continue
		case fft:
			convolveFFTInto(dst, src, q)
		default:
			convolveDirect(pl, dst, slab.Row32(rows[i]), src.lo, src.hi, q32, q.lo)
		}
		dst.QuantizeF32()
	}
}

// KernelF32 appends the float32 mirror of q's support bins to buf and
// returns it. The kernel PMF itself must already hold
// float32-representable values (KernelCache quantizes kernels it
// discretizes for F32 grids), so the mirror is exact.
func KernelF32(q *PMF, buf []float32) []float32 {
	buf = buf[:0]
	for _, v := range q.w[q.lo:q.hi] {
		buf = append(buf, float32(v))
	}
	return buf
}
