package dist

import (
	"math"
	"sync"

	"repro/internal/obs"
)

// fftPlan precomputes the data-independent part of a radix-2 FFT of
// one size: the bit-reversal permutation and every stage's twiddle
// factors. The butterfly loop then runs with two table loads where it
// used to call math.Sincos per frequency index, and the tables are
// shared by every transform of the run — the forward and inverse
// transforms of one convolution, both directions of a gate, and every
// gate of the run.
//
// The stored values are exactly the ones the un-planned kernel
// computed: wr[k] = cos(−π·j/h), wi[k] = sin(−π·j/h) via one
// math.Sincos call at plan-build time. The inverse transform needs
// sin(+π·j/h) = −wi[k] (IEEE negation is exact), so one table serves
// both directions and planned transforms are bit-identical to the
// historical per-call Sincos kernel.
type fftPlan struct {
	n   int
	rev []int32 // rev[i] = bit-reversed index of i
	// wr/wi hold the forward twiddles of every stage concatenated:
	// the stage with half-size h (h = 1, 2, …, n/2) occupies
	// [h−1, 2h−1), so the whole table has n−1 entries.
	wr, wi []float64
}

// fftPlans caches plans by transform size for the process lifetime.
// Plans are immutable once built and a few KB each (sizes are powers
// of two up to ~2·grid bins), so a global cache strictly dominates a
// per-run one; the per-run hit/miss counters go to the registry of
// the convolution that asks for the plan.
var fftPlans sync.Map // int → *fftPlan

// planFFT returns the (possibly cached) plan for size n, recording a
// hit or miss on m.
func planFFT(n int, m *obs.Metrics) *fftPlan {
	if v, ok := fftPlans.Load(n); ok {
		if m != nil {
			m.FFTPlanHits.Add(1)
		}
		return v.(*fftPlan)
	}
	if m != nil {
		m.FFTPlanMisses.Add(1)
	}
	p := newFFTPlan(n)
	if v, loaded := fftPlans.LoadOrStore(n, p); loaded {
		return v.(*fftPlan)
	}
	return p
}

func newFFTPlan(n int) *fftPlan {
	p := &fftPlan{n: n, rev: make([]int32, n)}
	if n < 2 {
		return p
	}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		p.rev[i] = int32(j)
	}
	p.wr = make([]float64, n-1)
	p.wi = make([]float64, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := -math.Pi / float64(half)
		off := half - 1
		for j := 0; j < half; j++ {
			wi, wr := math.Sincos(ang * float64(j))
			p.wr[off+j] = wr
			p.wi[off+j] = wi
		}
	}
	return p
}
