package dist

import (
	"math"
	"math/bits"

	"repro/internal/obs"
)

// fftCostUnits is the work-unit cost charged for one FFT convolution
// of linear length l: three radix-2 transforms of size m (the next
// power of two ≥ l) at m·log₂(m) butterfly units each, plus the l-bin
// shift/clamp pass. It is a formula over the operand supports, not a
// measurement, so the charge is identical whether the plan cache hit
// or missed — the package-global plan cache is warmed by whichever
// request runs first, and cost units must not depend on cross-request
// state (the determinism contract of DESIGN.md §14).
func fftCostUnits(l int) int64 {
	m := 1
	for m < l {
		m <<= 1
	}
	return 3*int64(m)*int64(bits.Len(uint(m))-1) + int64(l)
}

// fftCrossover is the minimum support size BOTH convolution operands
// must reach before Convolve switches from the O(sa·sb) direct
// product to the O(M log M) FFT path. Below it the direct kernel's
// tiny constant wins; the value was picked with
// BenchmarkConvolveCrossover on the dist bench suite.
const fftCrossover = 160

// convolveFFTInto computes the same result as the direct Convolve
// kernel via an FFT linear convolution. The direct kernel places the
// product mass of centers i and j at fractional bin k = i + j + off
// (off = Lo/Dt + 1/2), split linearly between floor(k) and
// floor(k)+1 and clamped to the grid. Because off is the same for
// every (i, j) pair, the split fraction is a constant: the direct
// kernel is exactly "full linear convolution, then one constant
// fractional shift with edge clamping". The FFT computes the linear
// convolution in O(M log M); the shift/clamp pass is unchanged. The
// two paths agree to floating-point roundoff (~1e-15 relative; see
// TestConvolveFFTMatchesDirect).
func convolveFFTInto(met *obs.Metrics, dst, p, q *PMF) {
	g := p.grid
	sa, sb := p.hi-p.lo, q.hi-q.lo
	// Linear convolution length and FFT size (next power of two).
	l := sa + sb - 1
	m := 1
	for m < l {
		m <<= 1
	}
	// Pack a into the real part and b into the imaginary part of one
	// complex vector: one forward transform computes both spectra. The
	// buffer is allocated per call; only operands that both reach
	// fftCrossover come here, and the grid's delay kernels never do on
	// the default timing grid.
	buf := make([]float64, 2*m)
	re, im := buf[:m], buf[m:]
	copy(re[:sa], p.bins())
	copy(im[:sb], q.bins())
	pl := planFFT(m, met)
	fftRadix2(re, im, false, pl)
	// With z = a + i·b, A[k] = (Z[k] + conj(Z[−k]))/2 and
	// B[k] = (Z[k] − conj(Z[−k]))/(2i). Store P = A·B back in place,
	// handling the conjugate-symmetric pair (k, m−k) together.
	for k := 0; k <= m/2; k++ {
		j := (m - k) & (m - 1)
		ar := (re[k] + re[j]) / 2
		ai := (im[k] - im[j]) / 2
		br := (im[k] + im[j]) / 2
		bi := (re[j] - re[k]) / 2
		pr := ar*br - ai*bi
		pi := ar*bi + ai*br
		re[k], im[k] = pr, pi
		if j != k {
			re[j], im[j] = pr, -pi // P[−k] = conj(P[k]) for real a, b
		}
	}
	fftRadix2(re, im, true, pl)
	// Distribute r[m] at integer center-sum s = lo_a + lo_b + m with
	// the direct kernel's constant-fraction split and edge clamping.
	off := g.Lo/g.Dt + 0.5
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
	base0 := p.lo + q.lo
	for t := 0; t < l; t++ {
		v := re[t]
		if v == 0 {
			continue
		}
		k := float64(base0+t) + off
		base := math.Floor(k)
		frac := k - base
		clampAdd(int(base), v*(1-frac))
		clampAdd(int(base)+1, v*frac)
	}
}

// fftRadix2 is an in-place iterative radix-2 complex FFT (stdlib
// only, decimation in time). len(re) == len(im) must equal pl.n, a
// power of two. The twiddle factors come from the plan, which stores
// one exact math.Sincos evaluation per frequency index — the same
// values the kernel historically computed per call, so planned
// transforms are bit-identical to the unplanned ones while the
// butterfly loop runs with pure table loads. The inverse transform
// negates the stored sine (exact), avoiding a second table.
func fftRadix2(re, im []float64, inverse bool, pl *fftPlan) {
	n := len(re)
	if n < 2 {
		return
	}
	// Bit-reversal permutation from the plan.
	for i, jj := range pl.rev {
		j := int(jj)
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	sign := 1.0
	if inverse {
		sign = -1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		twr := pl.wr[half-1 : 2*half-1]
		twi := pl.wi[half-1 : 2*half-1]
		for j := 0; j < half; j++ {
			wr := twr[j]
			wi := sign * twi[j]
			for k := j; k < n; k += size {
				l := k + half
				tr := re[l]*wr - im[l]*wi
				ti := re[l]*wi + im[l]*wr
				re[l] = re[k] - tr
				im[l] = im[k] - ti
				re[k] += tr
				im[k] += ti
			}
		}
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range re {
			re[i] *= inv
			im[i] *= inv
		}
	}
}
