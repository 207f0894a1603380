package dist

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestKernelCacheConcurrentOnce hammers one key from many goroutines:
// every caller must get the same shared PMF pointer, and the metrics
// must show exactly one miss — concurrent first lookups wait on the
// entry's Once instead of each discretizing and discarding the kernel.
func TestKernelCacheConcurrentOnce(t *testing.T) {
	const callers = 32
	m := obs.NewMetrics()

	g := Grid{Lo: -4, Dt: 0.125, N: 128}
	kc := NewKernelCache()
	n := Normal{Mu: 1, Sigma: 0.2}

	got := make([]*PMF, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		i := i
		go func() {
			defer done.Done()
			start.Wait() // line everyone up on the empty cache
			got[i], _ = kc.FromNormal(m, g, n, 0)
		}()
	}
	start.Done()
	done.Wait()

	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different PMF pointer", i)
		}
	}
	if kc.Len() != 1 {
		t.Fatalf("cache holds %d kernels, want 1", kc.Len())
	}

	snap := m.Snapshot()
	kcs := snap.KernelCache
	if kcs.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (one discretization per key)", kcs.Misses)
	}
	if kcs.Hits+kcs.Races != callers-1 {
		t.Errorf("hits (%d) + races (%d) = %d, want %d", kcs.Hits, kcs.Races, kcs.Hits+kcs.Races, callers-1)
	}

	// A later lookup is a plain hit.
	before := kcs.Hits
	if p, _ := kc.FromNormal(m, g, n, 0); p != got[0] {
		t.Fatal("warm lookup returned a different pointer")
	}
	if h := m.Snapshot().KernelCache.Hits; h != before+1 {
		t.Errorf("warm lookup: hits = %d, want %d", h, before+1)
	}
}

// TestKernelCacheMassMatchesUncached: the cached discretization is the
// same PMF FromNormal produces directly.
func TestKernelCacheMassMatchesUncached(t *testing.T) {
	g := Grid{Lo: -4, Dt: 0.125, N: 128}
	kc := NewKernelCache()
	n := Normal{Mu: 0.5, Sigma: 1.5}
	cached, moved := kc.FromNormal(nil, g, n, 0)
	if moved != 0 {
		t.Fatalf("tail 0 moved %g", moved)
	}
	direct := FromNormal(g, n)
	lo, hi := cached.Support()
	dlo, dhi := direct.Support()
	if lo != dlo || hi != dhi {
		t.Fatalf("support [%d,%d) vs direct [%d,%d)", lo, hi, dlo, dhi)
	}
	for i := lo; i < hi; i++ {
		if cached.W(i) != direct.W(i) {
			t.Fatalf("bin %d: cached %v direct %v", i, cached.W(i), direct.W(i))
		}
	}
}

// TestFoldedKernelCertified checks the folded delay kernels on random
// Normals, tails and inputs: a tail of 0 still returns the cached,
// unmodified full kernel once a folded one is cached; a folded kernel
// keeps the full kernel's mass, displaces at
// most its tail share, never widens the support and lies within its
// displaced share δ of the full kernel in Kolmogorov distance; and a
// convolution with it lies within δ·mass(input) of the convolution
// with the full kernel, on both the direct and the FFT path.
func TestFoldedKernelCertified(t *testing.T) {
	const slack = 1e-12
	rng := rand.New(rand.NewSource(33))
	g := NewGrid(-4, 20, 1.0/16)
	kc := NewKernelCache()
	var folded, fft int
	for trial := 0; trial < 60; trial++ {
		n := Normal{Mu: 4 * rng.Float64(), Sigma: 0.05 + 1.45*rng.Float64()}
		tail := []float64{1e-9, 1.25e-5, 1e-3, 0.05}[trial%4]
		full, _ := kc.FromNormal(nil, g, n, 0)
		k, delta := kc.FromNormal(nil, g, n, tail)
		// Folding works on its own discretization: the cached full
		// kernel is still served for tail 0, bin for bin FromNormal's.
		if again, moved := kc.FromNormal(nil, g, n, 0); moved != 0 || again != full {
			t.Fatalf("trial %d: tail 0 moved %g or missed the cached kernel", trial, moved)
		}
		direct := FromNormal(g, n)
		for i := 0; i < g.N; i++ {
			if full.W(i) != direct.W(i) {
				t.Fatalf("trial %d: cached full kernel differs from FromNormal at bin %d", trial, i)
			}
		}
		if delta < 0 || delta > tail {
			t.Fatalf("trial %d: displaced %g outside [0, tail %g]", trial, delta, tail)
		}
		if d := math.Abs(k.Mass() - full.Mass()); d > 1e-15 {
			t.Fatalf("trial %d: folding changed the mass by %g", trial, d)
		}
		klo, khi := k.Support()
		flo, fhi := full.Support()
		if klo < flo || khi > fhi || (delta > 0) != (khi-klo < fhi-flo) {
			t.Fatalf("trial %d: support [%d,%d) against full [%d,%d), displaced %g", trial, klo, khi, flo, fhi, delta)
		}
		if delta > 0 {
			folded++
		}
		if ks := kolmogorov(k, full); ks > delta+slack {
			t.Fatalf("trial %d: kernel Kolmogorov distance %g > displaced %g", trial, ks, delta)
		}
		x := randomPMF(g, rng)
		if trial%3 == 0 {
			// A narrow input keeps the convolution on the direct path.
			x.TruncateTail(nil, 0.7*x.Mass())
		}
		xlo, xhi := x.Support()
		if min(xhi-xlo, khi-klo) >= fftCrossover {
			fft++
		}
		got, want := x.Convolve(k), x.Convolve(full)
		if ks := kolmogorov(got, want); ks > delta*x.Mass()+slack {
			t.Fatalf("trial %d: convolution Kolmogorov distance %g > δ·m = %g", trial, ks, delta*x.Mass())
		}
	}
	if folded == 0 || fft == 0 {
		t.Fatalf("%d trials folded a tail and %d took the FFT; want both > 0", folded, fft)
	}
}
