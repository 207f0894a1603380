package dist

import (
	"math"
	"math/rand"
	"testing"
)

// checkSupport asserts the one-directional support invariant: every
// bin outside [lo, hi) is exactly zero.
func checkSupport(t *testing.T, name string, p *PMF) {
	t.Helper()
	lo, hi := p.Support()
	if lo < 0 || hi > p.grid.N || lo > hi {
		t.Fatalf("%s: support [%d,%d) out of range (N=%d)", name, lo, hi, p.grid.N)
	}
	for i := 0; i < p.grid.N; i++ {
		if (i < lo || i >= hi) && p.W(i) != 0 {
			t.Fatalf("%s: bin %d = %v outside support [%d,%d)", name, i, p.W(i), lo, hi)
		}
	}
}

func TestSupportInvariants(t *testing.T) {
	g := NewGrid(-8, 24, 1.0/16)
	rng := rand.New(rand.NewSource(7))
	a := FromNormal(g, Normal{0, 1})
	b := FromNormal(g, Normal{2, 0.5})
	checkSupport(t, "FromNormal", a)
	if lo, hi := a.Support(); hi-lo >= g.N {
		t.Errorf("FromNormal support [%d,%d) spans the whole grid; the ±σ tail should be exact zeros", lo, hi)
	}
	checkSupport(t, "Delta", Delta(g, 3))
	checkSupport(t, "Clone", a.Clone())
	checkSupport(t, "Shift", a.Shift(1.7))
	checkSupport(t, "Shift clamp", a.Shift(1e6))
	checkSupport(t, "Convolve", a.Convolve(b))
	checkSupport(t, "MaxPMF", MaxPMF(a, b))
	checkSupport(t, "MinPMF", MinPMF(a, b))
	checkSupport(t, "Scale", a.Clone().Scale(0.25))
	acc := NewPMF(g)
	acc.AccumWeighted(a, 0.5)
	acc.AccumWeighted(b, 0.3)
	checkSupport(t, "AccumWeighted", acc)
	for i := 0; i < 20; i++ {
		p := randomPMF(g, rng)
		q := randomPMF(g, rng)
		checkSupport(t, "random", p)
		checkSupport(t, "random Convolve", p.Convolve(q))
		checkSupport(t, "random Max", MaxPMF(p, q))
		checkSupport(t, "random Min", MinPMF(p, q))
		checkSupport(t, "random Shift", p.Shift(rng.Float64()*8-4))
	}
}

// TestSparseOpsMatchDense pins that the support-aware kernels are
// bit-identical to a dense re-evaluation of the same formulas.
func TestSparseOpsMatchDense(t *testing.T) {
	g := NewGrid(-4, 12, 1.0/16)
	rng := rand.New(rand.NewSource(21))
	denseMax := func(a, b *PMF) []float64 {
		out := make([]float64, g.N)
		ca, cb := 0.0, 0.0
		for k := 0; k < g.N; k++ {
			ca += a.W(k)
			cb += b.W(k)
			out[k] = a.W(k)*cb + b.W(k)*ca - a.W(k)*b.W(k)
		}
		return out
	}
	for trial := 0; trial < 50; trial++ {
		a, b := randomPMF(g, rng), randomPMF(g, rng)
		m := MaxPMF(a, b)
		for k, want := range denseMax(a, b) {
			if m.W(k) != want {
				t.Fatalf("trial %d: MaxPMF bin %d = %v, dense = %v", trial, k, m.W(k), want)
			}
		}
	}
}

func TestIntoVariantsMatchAllocating(t *testing.T) {
	g := NewGrid(-8, 16, 1.0/16)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		a, b := randomPMF(g, rng), randomPMF(g, rng)
		d := rng.Float64()*6 - 3

		dst := NewPMF(g)
		// Dirty the destination to prove the Into variants clear it.
		dst.SetBin(rng.Intn(g.N), rng.Float64())

		pairs := []struct {
			name  string
			alloc *PMF
			into  *PMF
		}{
			{"ShiftInto", a.Shift(d), a.ShiftInto(nil, dst, d).Clone()},
			{"ConvolveInto", a.Convolve(b), a.ConvolveInto(nil, dst, b).Clone()},
			{"MaxPMFInto", MaxPMF(a, b), MaxPMFInto(nil, dst, a, b).Clone()},
			{"MinPMFInto", MinPMF(a, b), MinPMFInto(nil, dst, a, b).Clone()},
		}
		for _, p := range pairs {
			checkSupport(t, p.name, p.into)
			for k := 0; k < g.N; k++ {
				if p.alloc.W(k) != p.into.W(k) {
					t.Fatalf("trial %d: %s bin %d = %v, want %v",
						trial, p.name, k, p.into.W(k), p.alloc.W(k))
				}
			}
		}
	}
}

func TestMixtureIntoMatchesAllocating(t *testing.T) {
	g := NewGrid(-8, 16, 1.0/16)
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{1, 2, 5, 18} { // 18 exceeds the stack-array fast path
		in := make([]SwitchInput, k)
		for i := range in {
			top := FromNormal(g, Normal{Mu: rng.Float64() * 4, Sigma: 0.3 + rng.Float64()})
			top.Scale(0.2 + 0.5*rng.Float64())
			in[i] = SwitchInput{Stay: rng.Float64() * 0.5, TOP: top}
		}
		mx, mn := MaxMixture(g, in), MinMixture(g, in)
		checkSupport(t, "MaxMixture", mx)
		checkSupport(t, "MinMixture", mn)
		dst := NewPMF(g)
		dst.SetBin(3, 0.7)
		mx2 := MaxMixtureInto(nil, dst, in).Clone()
		mn2 := MinMixtureInto(nil, dst, in).Clone()
		for i := 0; i < g.N; i++ {
			if mx.W(i) != mx2.W(i) || mn.W(i) != mn2.W(i) {
				t.Fatalf("k=%d: mixture Into mismatch at bin %d", k, i)
			}
		}
	}
}

// TestCDFAtPrefixSumEdges pins the prefix-sum CDFAt cut against the
// original full-scan semantics (sum of bins with center ≤ x),
// including exact bin centers, edges, and off-grid clamping.
func TestCDFAtPrefixSumEdges(t *testing.T) {
	g := NewGrid(0, 4, 0.5) // centers 0.25, 0.75, …, 3.75
	p := NewPMF(g)
	for i := 0; i < g.N; i++ {
		p.SetBin(i, float64(i+1)) // distinct masses, total 36
	}
	scan := func(x float64) float64 {
		s := 0.0
		for i := 0; i < g.N; i++ {
			if g.X(i) <= x {
				s += p.W(i)
			}
		}
		return s
	}
	xs := []float64{
		-100, -0.001, 0, 0.249, 0.25, 0.251, // below / at / above first center
		0.5, 0.75, 1, 1.999, 2, 3.74, 3.75, 3.76, // interior edges and centers
		4, 5, 100, math.Inf(1), math.Inf(-1), // beyond the grid
	}
	for i := 0; i < g.N; i++ {
		xs = append(xs, g.X(i), g.Edge(i)) // every exact center and edge
	}
	for _, x := range xs {
		if got, want := p.CDFAt(x), scan(x); got != want {
			t.Errorf("CDFAt(%v) = %v, scan = %v", x, got, want)
		}
	}
	if got := p.CDFAt(math.NaN()); got != 0 {
		t.Errorf("CDFAt(NaN) = %v, want 0", got)
	}
	// A sub-unit-mass t.o.p. with sparse support behaves the same.
	q := NewPMF(g)
	q.SetBin(3, 0.25)
	q.SetBin(5, 0.5)
	for _, x := range xs {
		s := 0.0
		for i := 0; i < g.N; i++ {
			if g.X(i) <= x {
				s += q.W(i)
			}
		}
		if got := q.CDFAt(x); got != s {
			t.Errorf("sparse CDFAt(%v) = %v, want %v", x, got, s)
		}
	}
}

// tvDistance is the total-variation distance between two PMFs on the
// same grid: half the L1 distance bin by bin.
func tvDistance(a, b *PMF) float64 {
	s := 0.0
	for i := 0; i < a.grid.N; i++ {
		s += math.Abs(a.W(i) - b.W(i))
	}
	return s / 2
}

// TestConvolveFFTMatchesDirect is the acceptance property test: the
// FFT path and the direct path agree within 1e-12 total-variation
// distance on randomized wide-support PMFs.
func TestConvolveFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		// Wide grid so supports comfortably exceed the crossover.
		g := NewGrid(-8, 40, 1.0/16)
		a, b := NewPMF(g), NewPMF(g)
		// Dense random supports wider than fftCrossover.
		width := fftCrossover + rng.Intn(200)
		offA, offB := rng.Intn(g.N-width), rng.Intn(g.N-width)
		for i := 0; i < width; i++ {
			a.SetBin(offA+i, rng.Float64())
			b.SetBin(offB+i, rng.Float64())
		}
		a.Scale(1 / a.Mass())
		b.Scale((0.1 + 0.9*rng.Float64()) / b.Mass()) // sub-unit t.o.p. mass

		viaFFT := NewPMF(g)
		convolveFFTInto(nil, viaFFT, a, b)
		direct := refConvolveDirect(a, b)
		if tv := tvDistance(viaFFT, direct); tv > 1e-12 {
			t.Fatalf("trial %d: TV(fft, direct) = %g > 1e-12", trial, tv)
		}
		checkSupport(t, "fft", viaFFT)
		// And the dispatching Convolve (which picks the FFT path for
		// these supports) matches too.
		if tv := tvDistance(a.Convolve(b), direct); tv > 1e-12 {
			t.Fatalf("trial %d: dispatched Convolve diverges", trial)
		}
	}
}

// TestConvolveFFTMassConservation: the FFT path preserves the mass
// product exactly like the direct path.
func TestConvolveFFTMassConservation(t *testing.T) {
	g := NewGrid(-8, 40, 1.0/16)
	rng := rand.New(rand.NewSource(17))
	a, b := NewPMF(g), NewPMF(g)
	for i := 0; i < fftCrossover+64; i++ {
		a.SetBin(100+i, rng.Float64())
		b.SetBin(40+i, rng.Float64())
	}
	a.Scale(0.7 / a.Mass())
	b.Scale(0.4 / b.Mass())
	out := NewPMF(g)
	convolveFFTInto(nil, out, a, b)
	if diff := math.Abs(out.Mass() - 0.7*0.4); diff > 1e-12 {
		t.Errorf("FFT convolution mass off by %g", diff)
	}
}

func TestKernelCache(t *testing.T) {
	g := NewGrid(-8, 8, 1.0/16)
	kc := NewKernelCache()
	n := Normal{Mu: 1, Sigma: 0.5}
	p1, _ := kc.FromNormal(nil, g, n, 0)
	p2, _ := kc.FromNormal(nil, g, n, 0)
	if p1 != p2 {
		t.Error("cache returned distinct kernels for the same Normal")
	}
	if kc.Len() != 1 {
		t.Errorf("cache Len = %d, want 1", kc.Len())
	}
	want := FromNormal(g, n)
	for i := 0; i < g.N; i++ {
		if p1.W(i) != want.W(i) {
			t.Fatalf("cached kernel differs at bin %d", i)
		}
	}
	kc.FromNormal(nil, g, Normal{Mu: 2, Sigma: 0.5}, 0)
	if kc.Len() != 2 {
		t.Errorf("cache Len = %d, want 2", kc.Len())
	}
}

func TestCopyFromAndReset(t *testing.T) {
	g := NewGrid(0, 8, 0.25)
	a := FromNormal(g, Normal{4, 0.5})
	b := NewPMF(g)
	b.SetBin(0, 9)
	b.CopyFrom(a)
	checkSupport(t, "CopyFrom", b)
	for i := 0; i < g.N; i++ {
		if a.W(i) != b.W(i) {
			t.Fatalf("CopyFrom mismatch at bin %d", i)
		}
	}
	b.Reset()
	checkSupport(t, "Reset", b)
	if b.Mass() != 0 {
		t.Error("Reset left mass behind")
	}
	// Self-copy is a no-op.
	a.CopyFrom(a)
	if math.Abs(a.Mass()-1) > 1e-12 {
		t.Error("self CopyFrom corrupted the PMF")
	}
}
