package dist

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// bandPMF returns a random PMF on g whose support is exactly [lo, hi)
// (both end bins non-zero, interior zeros allowed), with sub-unit mass.
func bandPMF(g Grid, rng *rand.Rand, lo, hi int) *PMF {
	p := NewPMF(g)
	for i := lo; i < hi; i++ {
		if i == lo || i == hi-1 || rng.Float64() < 0.7 {
			p.SetBin(i, 0.01+rng.Float64())
		}
	}
	return p.Scale((0.1 + 0.9*rng.Float64()) / p.Mass())
}

// windowCase is one kernel run twice: on full-width operands (the
// reference) and on the same operands frozen to their supports. Each
// run gets its own metrics registry and returns the PMFs and scalars
// to compare.
type windowCase struct {
	name string
	run  func(m *obs.Metrics, g Grid, frozen bool) ([]*PMF, []float64)
}

// operand returns p re-tagged onto g, full-width or frozen: frozen
// operands alternate between a slab copy and an in-place Freeze of a
// full-width clone, the two ways a stored t.o.p. gets its window.
func operand(p *PMF, g Grid, frozen bool, slab *Slab) *PMF {
	q := p.Clone()
	q.grid = g
	q.massOK = false
	if !frozen {
		return q
	}
	if slab != nil {
		return slab.Store(q)
	}
	return q.Freeze()
}

// samePMF reports whether a and b have the same support bounds and the
// same float bits in every grid bin, and the same mass bits.
func samePMF(t *testing.T, name string, a, b *PMF) {
	t.Helper()
	alo, ahi := a.Support()
	blo, bhi := b.Support()
	if alo != blo || ahi != bhi {
		t.Fatalf("%s: support [%d,%d) frozen vs [%d,%d) full", name, blo, bhi, alo, ahi)
	}
	for i := -2; i < a.grid.N+2; i++ {
		if math.Float64bits(a.W(i)) != math.Float64bits(b.W(i)) {
			t.Fatalf("%s: bin %d = %v frozen vs %v full", name, i, b.W(i), a.W(i))
		}
	}
	if math.Float64bits(a.Mass()) != math.Float64bits(b.Mass()) {
		t.Fatalf("%s: mass %v frozen vs %v full", name, b.Mass(), a.Mass())
	}
	if a.massOK && a.mass != sum(a.bins()) || b.massOK && b.mass != sum(b.bins()) {
		t.Fatalf("%s: cached mass differs from the left-to-right sum", name)
	}
}

// TestWindowedKernelsMatchFullWidth runs every kernel on operands
// frozen to their supports and on full-width copies of the same
// operands: the results must agree in every float bit, in their
// support bounds and in the metrics counters the kernel records.
func TestWindowedKernelsMatchFullWidth(t *testing.T) {
	base := NewGrid(-4, 28, 1.0/16) // 512 bins
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		var ops []*PMF
		for i := 0; i < 4; i++ {
			lo := rng.Intn(base.N - 40)
			hi := lo + 1 + rng.Intn(min(base.N-lo-1, 200))
			ops = append(ops, bandPMF(base, rng, lo, hi))
		}
		// Two operands wide enough for the FFT path.
		wideA := bandPMF(base, rng, 20, 20+fftCrossover+rng.Intn(60))
		wideB := bandPMF(base, rng, 150, 150+fftCrossover+rng.Intn(60))
		stays := []float64{rng.Float64() * 0.5, rng.Float64() * 0.5, rng.Float64() * 0.5, 0}
		shift := float64(rng.Intn(40)-20) / 16
		frac := rng.Float64()*6 - 3
		eps := rng.Float64() * 0.05
		x := base.Lo + rng.Float64()*(base.Hi()-base.Lo)
		q := 0.05 + 0.9*rng.Float64()

		var slab *Slab
		if trial%2 == 0 {
			slab = NewSlab(64)
		}
		in := func(g Grid, frozen bool) []SwitchInput {
			s := make([]SwitchInput, 3)
			for i := range s {
				s[i] = SwitchInput{Stay: stays[i], TOP: operand(ops[i], g, frozen, slab)}
			}
			return s
		}
		one := func(g Grid, frozen bool, i int) *PMF { return operand(ops[i], g, frozen, slab) }
		cases := []windowCase{
			{"MaxMixtureInto", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				return []*PMF{MaxMixtureInto(m, NewPMF(g), in(g, f))}, nil
			}},
			{"MinMixtureInto", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				return []*PMF{MinMixtureInto(m, NewPMF(g), in(g, f))}, nil
			}},
			{"MaxPMFInto", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				return []*PMF{MaxPMFInto(m, NewPMF(g), one(g, f, 0), one(g, f, 1))}, nil
			}},
			{"MinPMFInto", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				return []*PMF{MinPMFInto(m, NewPMF(g), one(g, f, 0), one(g, f, 1))}, nil
			}},
			{"AccumWeighted into full", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				dst := one(g, false, 2)
				return []*PMF{dst.AccumWeighted(one(g, f, 0), 0.3)}, nil
			}},
			{"AccumWeighted into window", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				// Into the frozen operand itself: inside its window, then
				// from an operand that reaches outside it.
				dst := one(g, f, 0)
				dst.AccumWeighted(one(g, false, 0), 0.5)
				return []*PMF{dst.AccumWeighted(one(g, f, 3), 0.25)}, nil
			}},
			{"ShiftInto whole bins", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				return []*PMF{one(g, f, 1).ShiftInto(m, NewPMF(g), shift)}, nil
			}},
			{"ShiftInto fractional", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				return []*PMF{one(g, f, 1).ShiftInto(m, NewPMF(g), frac)}, nil
			}},
			{"ShiftInto edge-clamped", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				return []*PMF{one(g, f, 2).ShiftInto(m, NewPMF(g), 40+frac), one(g, f, 2).ShiftInto(m, NewPMF(g), -40-frac)}, nil
			}},
			{"ConvolveInto direct", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				return []*PMF{one(g, f, 0).ConvolveInto(m, NewPMF(g), one(g, f, 1))}, nil
			}},
			{"ConvolveInto FFT", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				a, b := operand(wideA, g, f, slab), operand(wideB, g, f, slab)
				return []*PMF{a.ConvolveInto(m, NewPMF(g), b)}, nil
			}},
			{"Rebin in place", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				var out []*PMF
				var devs []float64
				for _, factor := range []int{2, 4} {
					for i := range ops {
						p := one(g, f, i)
						devs = append(devs, p.Rebin(g.Coarsen(factor), factor))
						out = append(out, p)
					}
				}
				return out, devs
			}},
			{"RebinInto", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				dst := NewPMF(g.Coarsen(4))
				return []*PMF{dst}, []float64{one(g, f, 3).RebinInto(m, dst, 4)}
			}},
			{"TruncateTail", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				p := one(g, f, 1)
				r := p.TruncateTail(m, eps)
				p2 := one(g, f, 2)
				r2 := p2.TruncateTail(m, 1)
				return []*PMF{p, p2.Freeze()}, []float64{r, r2}
			}},
			{"statistics", func(m *obs.Metrics, g Grid, f bool) ([]*PMF, []float64) {
				p := one(g, f, 0)
				return nil, []float64{p.CDFAt(x), p.Quantile(q), p.Mean(), p.Var(), p.Skewness(), p.Mass()}
			}},
		}
		for _, c := range cases {
			mFull, mWin := obs.NewMetrics(), obs.NewMetrics()
			fullOut, fullVals := c.run(mFull, base, false)
			winOut, winVals := c.run(mWin, base, true)
			name := c.name
			for i := range fullOut {
				// samePMF reads every grid bin and two past each edge, so
				// W outside a frozen window is covered too.
				samePMF(t, name, fullOut[i], winOut[i])
			}
			for i := range fullVals {
				if math.Float64bits(fullVals[i]) != math.Float64bits(winVals[i]) {
					t.Fatalf("trial %d %s: value %d = %v frozen vs %v full", trial, name, i, winVals[i], fullVals[i])
				}
			}
			// The process-wide plan caches hit or miss by test order.
			a, b := mFull.Snapshot(), mWin.Snapshot()
			if a.Batch = b.Batch; !reflect.DeepEqual(a, b) {
				t.Fatalf("trial %d %s: metrics differ:\nfull   %+v\nfrozen %+v", trial, name, a, b)
			}
		}
	}
}

// TestRebinWindowResidues pins in-place Rebin on frozen windows whose
// first bin sits at every residue modulo the factor, against RebinInto
// on a full-width copy.
func TestRebinWindowResidues(t *testing.T) {
	g := NewGrid(0, 16, 1.0/16)
	rng := rand.New(rand.NewSource(3))
	for _, factor := range []int{2, 4} {
		for lo := 40; lo < 40+2*factor; lo++ {
			for _, width := range []int{1, 2, 3, 5, 17} {
				p := bandPMF(g, rng, lo, lo+width)
				want := NewPMF(g.Coarsen(factor))
				wantDev := p.RebinInto(nil, want, factor)
				q := NewSlab(0).Store(p)
				if dev := q.Rebin(g.Coarsen(factor), factor); dev != wantDev {
					t.Fatalf("f=%d lo=%d w=%d: bound %v, want %v", factor, lo, width, dev, wantDev)
				}
				samePMF(t, "frozen Rebin", want, q)
				if len(q.w) != q.hi-q.lo || q.off != q.lo {
					t.Fatalf("f=%d lo=%d w=%d: window [%d,+%d) is not the support [%d,%d)",
						factor, lo, width, q.off, len(q.w), q.lo, q.hi)
				}
			}
		}
	}
}

// TestSlabStoresMatchKernels checks the fused slab stores against the
// kernels they replace: StoreMixture against a mixture followed by
// CopyFrom or ShiftInto, StoreShifted against ShiftInto and StoreScaled
// against AccumWeighted — bins, support, mass and metrics — and that
// the out-of-grid and fractional cases decline without charging.
func TestSlabStoresMatchKernels(t *testing.T) {
	base := NewGrid(-4, 20, 1.0/16)
	rng := rand.New(rand.NewSource(17))
	slab := NewSlab(128)
	for trial := 0; trial < 60; trial++ {
		var in []SwitchInput
		for i := 0; i < 1+rng.Intn(4); i++ {
			lo := rng.Intn(base.N - 30)
			in = append(in, SwitchInput{Stay: rng.Float64() * 0.6, TOP: slab.Store(bandPMF(base, rng, lo, lo+1+rng.Intn(25)))})
		}
		d := float64(rng.Intn(200)-60) / 16
		if trial%7 == 0 {
			d = 0
		}
		for _, max := range []bool{true, false} {
			mRef, mGot := obs.NewMetrics(), obs.NewMetrics()
			mix := NewPMF(base)
			mixtureInto(mRef, mix, in, max)
			var want *PMF
			if d == 0 {
				want = NewPMF(base).CopyFrom(mix)
			} else {
				want = mix.ShiftInto(mRef, NewPMF(base), d)
			}
			got := slab.StoreMixture(mGot, base, in, max, d)
			if got == nil {
				// Declined: the union shifted past the grid edge. Nothing
				// may have been charged.
				if s := mGot.Snapshot(); s.Cost.MixtureOps != 0 || s.Cost.BinOps != 0 {
					t.Fatalf("trial %d: declined StoreMixture charged %+v", trial, s.Cost)
				}
				continue
			}
			samePMF(t, "StoreMixture", want, got)
			if math.Float64bits(got.Mass()) != math.Float64bits(mix.Mass()) {
				t.Fatalf("trial %d: stored mixture mass %v, mixture mass %v", trial, got.Mass(), mix.Mass())
			}
			if a, b := mRef.Snapshot(), mGot.Snapshot(); a.Cost != b.Cost || !reflect.DeepEqual(a.Mixture, b.Mixture) {
				t.Fatalf("trial %d: StoreMixture metrics differ", trial)
			}
		}
		src := in[0].TOP
		if got := slab.StoreShifted(nil, src, d+0.5/16); got != nil {
			t.Fatalf("trial %d: StoreShifted accepted a fractional shift", trial)
		}
		if got := slab.StoreShifted(nil, src, d); got != nil {
			samePMF(t, "StoreShifted", src.ShiftInto(nil, NewPMF(base), d), got)
		}
		w := rng.Float64()
		samePMF(t, "StoreScaled", NewPMF(base).AccumWeighted(src, w), slab.StoreScaled(src, w))
	}
}

// refMixture is the bin-by-bin mixture recurrence on full-width reads:
// for each bin, every input's cumulative advances and the product takes
// the factors in input order.
func refMixture(g Grid, in []SwitchInput, max bool) *PMF {
	out := NewPMF(g)
	cum := make([]float64, len(in))
	prev := 1.0
	for _, s := range in {
		if max {
			prev *= s.Stay
		} else {
			prev *= s.Stay + s.TOP.Mass()
		}
	}
	for k := 0; k < g.N; k++ {
		h := 1.0
		for i, s := range in {
			cum[i] += s.TOP.W(k)
			if max {
				h *= s.Stay + cum[i]
			} else {
				h *= s.Stay + (s.TOP.Mass() - cum[i])
			}
		}
		v := h - prev
		if !max {
			v = prev - h
		}
		if v != 0 {
			out.SetBin(k, v)
		}
		prev = h
	}
	return out
}

// TestMixtureMatchesBinByBin pins the fused mixture kernel to
// the bin-by-bin recurrence, bit for bit, on frozen and full-width
// inputs — including inputs with equal cumulative products, where a
// negated difference would store −0 instead of +0.
func TestMixtureMatchesBinByBin(t *testing.T) {
	g := NewGrid(-4, 20, 1.0/16)
	rng := rand.New(rand.NewSource(23))
	slab := NewSlab(256)
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(6)
		if trial%25 == 0 {
			k = 17 // past the kernels' 16-input fast path
		}
		var in []SwitchInput
		for i := 0; i < k; i++ {
			lo := rng.Intn(g.N - 60)
			top := bandPMF(g, rng, lo, lo+1+rng.Intn(60))
			if trial%2 == 0 {
				top = slab.Store(top)
			}
			if rng.Intn(8) == 0 {
				top = slab.Empty(g)
			}
			in = append(in, SwitchInput{Stay: float64(rng.Intn(3)) * 0.25, TOP: top})
		}
		for _, max := range []bool{true, false} {
			want := refMixture(g, in, max)
			got := mixtureInto(nil, NewPMF(g), in, max)
			for i := 0; i < g.N; i++ {
				if math.Float64bits(got.W(i)) != math.Float64bits(want.W(i)) {
					t.Fatalf("trial %d max=%v: bin %d = %v (%#x), bin-by-bin %v (%#x)",
						trial, max, i, got.W(i), math.Float64bits(got.W(i)), want.W(i), math.Float64bits(want.W(i)))
				}
			}
			if glo, ghi := got.Support(); glo != want.lo || ghi != want.hi {
				t.Fatalf("trial %d max=%v: support [%d,%d), bin-by-bin [%d,%d)", trial, max, glo, ghi, want.lo, want.hi)
			}
			if math.Float64bits(got.Mass()) != math.Float64bits(sum(want.bins())) {
				t.Fatalf("trial %d max=%v: cached mass %v, sum %v", trial, max, got.Mass(), sum(want.bins()))
			}
		}
	}
}
