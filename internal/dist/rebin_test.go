package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// kolmogorov computes the exact sup-norm distance between the CDFs of
// two point-mass distributions (mass at bin centers).
func kolmogorov(a, b *PMF) float64 {
	type atom struct {
		x float64
		d float64
	}
	var atoms []atom
	collect := func(p *PMF, sign float64) {
		g := p.Grid()
		lo, hi := p.Support()
		for i := lo; i < hi; i++ {
			if w := p.W(i); w != 0 {
				atoms = append(atoms, atom{g.Lo + (float64(i)+0.5)*g.Dt, sign * w})
			}
		}
	}
	collect(a, 1)
	collect(b, -1)
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].x < atoms[j].x })
	sup, run := 0.0, 0.0
	for i := 0; i < len(atoms); {
		j := i
		for j < len(atoms) && atoms[j].x == atoms[i].x {
			run += atoms[j].d
			j++
		}
		if d := math.Abs(run); d > sup {
			sup = d
		}
		i = j
	}
	return sup
}

// TestRebinMassConservationAndBound: across random PMFs and both
// factors, re-binning conserves total mass to within summation
// reassociation (~1e-12), keeps all mass inside the tracked support,
// and the returned deviation bound dominates the exact Kolmogorov
// distance between the fine and coarse distributions.
func TestRebinMassConservationAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGrid(-4, 20, 1.0/16)
	for trial := 0; trial < 50; trial++ {
		for _, factor := range []int{2, 4} {
			p := randomPMF(g, rng)
			mass := p.Mass()
			cg := g.Coarsen(factor)
			dst := NewPMF(cg)
			dev := p.RebinInto(dst, factor)
			if d := math.Abs(dst.Mass() - mass); d > 1e-12 {
				t.Fatalf("trial %d f=%d: mass drifted by %g", trial, factor, d)
			}
			lo, hi := dst.Support()
			for i := 0; i < cg.N; i++ {
				if (i < lo || i >= hi) && dst.W(i) != 0 {
					t.Fatalf("trial %d f=%d: mass outside support at bin %d", trial, factor, i)
				}
			}
			if ks := kolmogorov(p, dst); ks > dev+1e-12 {
				t.Fatalf("trial %d f=%d: Kolmogorov distance %g exceeds bound %g", trial, factor, ks, dev)
			}
			p.Release()
		}
	}
}

// TestRebinInPlaceMatchesInto: the aliasing in-place Rebin must
// produce bit-identical bins, support and bound to RebinInto.
func TestRebinInPlaceMatchesInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := NewGrid(-4, 20, 1.0/16)
	for trial := 0; trial < 50; trial++ {
		for _, factor := range []int{2, 4} {
			p := randomPMF(g, rng)
			cg := g.Coarsen(factor)
			want := NewPMF(cg)
			wantDev := p.Clone().RebinInto(want, factor)
			dev := p.Rebin(cg, factor)
			if dev != wantDev {
				t.Fatalf("trial %d f=%d: in-place bound %g, Into bound %g", trial, factor, dev, wantDev)
			}
			plo, phi := p.Support()
			wlo, whi := want.Support()
			if plo != wlo || phi != whi {
				t.Fatalf("trial %d f=%d: supports differ: [%d,%d) vs [%d,%d)", trial, factor, plo, phi, wlo, whi)
			}
			for i := 0; i < cg.N; i++ {
				if p.W(i) != want.W(i) {
					t.Fatalf("trial %d f=%d bin %d: %g vs %g", trial, factor, i, p.W(i), want.W(i))
				}
			}
			// The in-place form must restore zeros past the coarse
			// support inside the old fine support.
			for i := cg.N; i < g.N; i++ {
				if p.W(i) != 0 {
					t.Fatalf("trial %d f=%d: stale fine bin %d = %g", trial, factor, i, p.W(i))
				}
			}
		}
	}
}

// TestRebinEmpty: empty PMFs re-bin to empty with a zero bound.
func TestRebinEmpty(t *testing.T) {
	g := NewGrid(-4, 20, 1.0/16)
	empty := NewPMF(g)
	if dev := empty.RebinInto(NewPMF(g.Coarsen(2)), 2); dev != 0 {
		t.Fatalf("empty RebinInto bound %g", dev)
	}
	if dev := empty.Rebin(g.Coarsen(2), 2); dev != 0 {
		t.Fatalf("empty Rebin bound %g", dev)
	}
	if lo, hi := empty.Support(); lo != hi {
		t.Fatalf("empty rebin grew support [%d,%d)", lo, hi)
	}
}

// TestRebinValidation: the guard must reject bad factors and
// mismatched target grids.
func TestRebinValidation(t *testing.T) {
	g := NewGrid(-4, 20, 1.0/16)
	p := FromNormal(g, Normal{Mu: 0, Sigma: 1})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("factor 3", func() { p.Rebin(g.Coarsen(3), 3) })
	mustPanic("wrong grid", func() { p.Rebin(g, 2) })
	mustPanic("mismatched Into", func() { p.RebinInto(NewPMF(g.Coarsen(4)), 2) })
}

// TestTruncateTailEdgeCases: the ε>0 scan must be skipped entirely —
// returning 0 and leaving the support alone — on an empty PMF and on
// a single-bin point mass (even one whose whole mass fits in ε), and
// an all-zero multi-bin support must empty without removing mass.
func TestTruncateTailEdgeCases(t *testing.T) {
	g := NewGrid(-4, 4, 1.0/16)

	empty := NewPMF(g)
	if r := empty.TruncateTail(0.5); r != 0 {
		t.Fatalf("empty PMF trimmed %g", r)
	}
	if lo, hi := empty.Support(); lo != 0 || hi != 0 {
		t.Fatalf("empty PMF support became [%d,%d)", lo, hi)
	}

	point := Delta(g, 0)
	lo0, hi0 := point.Support()
	if hi0-lo0 != 1 {
		t.Fatalf("Delta support [%d,%d)", lo0, hi0)
	}
	// The budget exceeds the whole mass: a tail-trim must still keep
	// the point mass (there is no tail around a single bin).
	if r := point.TruncateTail(2); r != 0 {
		t.Fatalf("point mass trimmed %g", r)
	}
	if lo, hi := point.Support(); lo != lo0 || hi != hi0 {
		t.Fatalf("point support moved to [%d,%d)", lo, hi)
	}
	if point.Mass() != 1 {
		t.Fatalf("point mass now %g", point.Mass())
	}

	// A multi-bin support of exact zeros: nothing to remove, and the
	// support collapses to empty (interior zeros absorb for free).
	z := NewPMF(g)
	z.SetBin(10, 0.5)
	z.SetBin(20, 0.25)
	z.SetBin(10, 0)
	z.SetBin(20, 0)
	if r := z.TruncateTail(1e-9); r != 0 {
		t.Fatalf("zero-mass support trimmed %g", r)
	}
	if lo, hi := z.Support(); lo != hi {
		t.Fatalf("zero-mass support kept [%d,%d)", lo, hi)
	}
}
