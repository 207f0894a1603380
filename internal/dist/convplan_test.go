package dist

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// randPMF fills a PMF with positive mass on [lo, hi) so every bin of
// the support participates in the kernels under test.
func randPMF(g Grid, rng *rand.Rand, lo, hi int) *PMF {
	p := NewPMF(g)
	total := 0.0
	for i := lo; i < hi; i++ {
		p.SetBin(i, rng.Float64())
		total += p.W(i)
	}
	p.Scale(1 / total)
	return p
}

// requireSameBins asserts bit-identical bin values across the whole
// grid. Supports are allowed to differ (a batch kernel may
// over-approximate with exactly-zero edge bins); the support
// invariant — zero outside [lo, hi) — is checked for both.
func requireSameBins(t *testing.T, name string, want, got *PMF) {
	t.Helper()
	for _, p := range []*PMF{want, got} {
		lo, hi := p.Support()
		for i := 0; i < p.Grid().N; i++ {
			if (i < lo || i >= hi) && p.W(i) != 0 {
				t.Fatalf("%s: bin %d = %v outside support [%d,%d)", name, i, p.W(i), lo, hi)
			}
		}
	}
	for i := 0; i < want.Grid().N; i++ {
		if math.Float64bits(want.W(i)) != math.Float64bits(got.W(i)) {
			t.Fatalf("%s: bin %d: want %v got %v", name, i, want.W(i), got.W(i))
		}
	}
}

// refConvolveInto is the independent oracle for the plan kernel:
// the historical per-pair-floor convolution, which recomputes the
// split bin and fraction of every (i, j) pair with math.Floor and
// clamps each add to the grid, behind the same FFT dispatch. The
// plan kernel must reproduce it bit for bit.
func refConvolveInto(dst, p, q *PMF) *PMF {
	dst.Reset()
	sa, sb := p.hi-p.lo, q.hi-q.lo
	if sa == 0 || sb == 0 {
		return dst
	}
	if sa >= fftCrossover && sb >= fftCrossover {
		convolveFFTInto(nil, dst, p, q)
		return dst
	}
	return refDirectInto(dst, p, q)
}

// refConvolveDirect runs the per-pair reference loop whatever the
// support sizes, as the FFT path's reference.
func refConvolveDirect(p, q *PMF) *PMF {
	return refDirectInto(NewPMF(p.grid), p, q)
}

func refDirectInto(dst, p, q *PMF) *PMF {
	g := p.grid
	clampAdd := func(i int, v float64) {
		if v == 0 {
			return
		}
		if i < 0 {
			i = 0
		}
		if i >= g.N {
			i = g.N - 1
		}
		dst.w[i] += v
		dst.expand(i)
	}
	// In bin-center coordinates k = (x−Lo)/Dt − 1/2, the sum of
	// centers i and j sits at k = i + j + 1/2 + Lo/Dt.
	off := g.Lo/g.Dt + 0.5
	for i := p.lo; i < p.hi; i++ {
		a := p.w[i]
		if a == 0 {
			continue
		}
		for j := q.lo; j < q.hi; j++ {
			b := q.w[j]
			if b == 0 {
				continue
			}
			m := a * b
			k := float64(i+j) + off
			base := math.Floor(k)
			frac := k - base
			clampAdd(int(base), m*(1-frac))
			clampAdd(int(base)+1, m*frac)
		}
	}
	return dst
}

// TestConvPlanBitIdenticalDirect drives the plan's table-driven direct
// kernel over narrow, edge-clamped and sparse operands and requires
// bit-identical bins against the per-pair reference — the fast
// register-carried rows and the clamped fallback rows must replay the
// reference's floating-point adds exactly. PMF.ConvolveInto runs the
// same kernel through the grid's cached plan and must agree too.
func TestConvPlanBitIdenticalDirect(t *testing.T) {
	g := NewGrid(-4, 12, 1.0/16)
	pl := NewConvPlan(g)
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name               string
		plo, phi, qlo, qhi int
	}{
		{"interior", 64, 96, 100, 120},
		{"left-clamp", 0, 20, 0, 16},
		{"right-clamp", g.N - 30, g.N - 1, g.N - 40, g.N - 1},
		{"narrow-kernel", 80, 140, 90, 92},
		{"single-bin", 100, 101, 50, 51},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := randPMF(g, rng, tc.plo, tc.phi)
			q := randPMF(g, rng, tc.qlo, tc.qhi)
			// Punch zero holes so the b==0 skip paths run.
			if tc.phi-tc.plo > 4 {
				p.SetBin(tc.plo+2, 0)
			}
			if tc.qhi-tc.qlo > 4 {
				q.SetBin(tc.qlo+1, 0)
			}
			want := refConvolveInto(NewPMF(g), p, q)
			requireSameBins(t, tc.name, want, pl.ConvolveInto(nil, NewPMF(g), p, q))
			requireSameBins(t, tc.name+"/pmf", want, p.ConvolveInto(nil, NewPMF(g), q))
		})
	}
}

// TestConvPlanBitIdenticalRandom draws random grids and operands —
// arbitrary supports, zero holes anywhere (edge bins included), and
// mass clamped at both grid edges — and requires the plan kernel to
// match the per-pair reference bit for bit on every draw. Some draws
// are wide enough for the FFT dispatch, which must route identically.
func TestConvPlanBitIdenticalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260417))
	var clampLo, clampHi, fft int
	for draw := 0; draw < 300; draw++ {
		// Random left edge and width: the split fraction
		// frac(Lo/Dt + 1/2) varies from draw to draw.
		dt := 1.0 / 16
		lo := -6 + 4*rng.Float64()
		n := 40 + rng.Intn(360)
		g := NewGrid(lo, lo+float64(n)*dt, dt)
		pl := NewConvPlan(g)
		pick := func() *PMF {
			w := 1 + rng.Intn(g.N/2+1)
			if rng.Intn(8) == 0 {
				w = 1 + rng.Intn(g.N)
			}
			s := rng.Intn(g.N - w + 1)
			p := randPMF(g, rng, s, s+w)
			for h := rng.Intn(w/3 + 1); h > 0; h-- {
				p.SetBin(s+rng.Intn(w), 0)
			}
			return p
		}
		p, q := pick(), pick()
		want := refConvolveInto(NewPMF(g), p, q)
		requireSameBins(t, "random", want, pl.ConvolveInto(nil, NewPMF(g), p, q))
		requireSameBins(t, "random/pmf", want, p.ConvolveInto(nil, NewPMF(g), q))

		// Tally the regimes the draw exercised.
		sa, sb := supportWidth(p), supportWidth(q)
		if sa >= fftCrossover && sb >= fftCrossover {
			fft++
			continue
		}
		off := g.Lo/g.Dt + 0.5
		if float64(p.lo+q.lo)+off < 0 {
			clampLo++
		}
		if float64(p.hi+q.hi-2)+off+1 >= float64(g.N) {
			clampHi++
		}
	}
	if clampLo < 20 || clampHi < 20 || fft == 0 {
		t.Fatalf("draws too tame: %d left-clamped, %d right-clamped, %d FFT", clampLo, clampHi, fft)
	}
}

// TestConvPlanBitIdenticalFFT checks the wide-operand dispatch: the
// plan kernel and PMF.ConvolveInto must both route to the FFT and
// agree bitwise with the reference dispatch (all three share
// convolveFFTInto; TestFFTPlanTwiddles anchors the plan-table FFT to
// the historical per-call Sincos kernel).
func TestConvPlanBitIdenticalFFT(t *testing.T) {
	g := NewGrid(-8, 24, 1.0/16)
	m := obs.NewMetrics()
	pl := NewConvPlan(g)
	p := FromNormal(g, Normal{Mu: 4, Sigma: 2})
	q := FromNormal(g, Normal{Mu: 2, Sigma: 1.5})
	if sa, sb := supportWidth(p), supportWidth(q); sa < fftCrossover || sb < fftCrossover {
		t.Fatalf("operands too narrow for FFT dispatch: %d, %d", sa, sb)
	}
	want := refConvolveInto(NewPMF(g), p, q)
	requireSameBins(t, "fft", want, pl.ConvolveInto(m, NewPMF(g), p, q))
	requireSameBins(t, "fft/pmf", want, p.ConvolveInto(m, NewPMF(g), q))
	if n := m.Snapshot().Convolution.FFT; n != 2 {
		t.Errorf("ConvFFT = %d, want 2 (both kernel calls dispatched to FFT)", n)
	}
}

func supportWidth(p *PMF) int {
	lo, hi := p.Support()
	return hi - lo
}

// TestFFTPlanTwiddles pins the plan tables to the values the
// un-planned kernel computed per call: forward twiddles are exactly
// math.Sincos(−π·j/h) and the bit-reversal table is the standard
// permutation. This is the bit-identity anchor for the cached-plan
// transform.
func TestFFTPlanTwiddles(t *testing.T) {
	const n = 64
	p := newFFTPlan(n)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := -math.Pi / float64(half)
		off := half - 1
		for j := 0; j < half; j++ {
			wi, wr := math.Sincos(ang * float64(j))
			if math.Float64bits(p.wr[off+j]) != math.Float64bits(wr) ||
				math.Float64bits(p.wi[off+j]) != math.Float64bits(wi) {
				t.Fatalf("stage %d twiddle %d: (%v,%v) want (%v,%v)",
					size, j, p.wr[off+j], p.wi[off+j], wr, wi)
			}
		}
	}
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		r := int(p.rev[i])
		if r < 0 || r >= n || (i > 0 && seen[r]) {
			t.Fatalf("rev[%d] = %d is not a permutation", i, r)
		}
		seen[r] = true
	}
}

// TestFFTPlanCacheCounters checks the per-run hit/miss accounting on
// the process-global plan cache: after one transform size is planned,
// further lookups are hits.
func TestFFTPlanCacheCounters(t *testing.T) {
	m := obs.NewMetrics()
	// An odd size no convolution uses, so this test owns the cache
	// entry regardless of test order.
	const n = 1 << 18
	planFFT(n, m)
	planFFT(n, m)
	planFFT(n, m)
	s := m.Snapshot().Batch
	if s.FFTPlanMisses != 1 {
		t.Errorf("misses = %d, want 1", s.FFTPlanMisses)
	}
	if s.FFTPlanHits != 2 {
		t.Errorf("hits = %d, want 2", s.FFTPlanHits)
	}
}
