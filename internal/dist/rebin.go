package dist

import (
	"fmt"

	"repro/internal/obs"
)

// Re-binning maps a PMF from its grid G onto the factor×-coarser grid
// G′ = G.Coarsen(factor): every coarse bin receives the exact sum of
// the factor fine bins it covers, so mass is conserved bin group by
// bin group (no splitting, no renormalization — the same floats are
// summed in ascending bin order, deterministically).
//
// The returned value is a computable worst-case deviation bound: the
// largest mass any single coarse bin absorbed. Because coarse bin
// edges are a subset of fine bin edges (shared Lo, Dt′ = factor·Dt),
// the fine and coarse CDFs agree exactly at every coarse edge, and
// the sup-norm distance between them (the Kolmogorov distance) is at
// most the largest within-bin mass — exactly the returned bound. Any
// probability a downstream threshold query (Yield, CDFAt) reads off
// the coarse PMF therefore deviates from the fine answer by at most
// this bound, and core's budget accounting folds it into the same
// per-net certificate ε-pruning uses (DESIGN.md §15).

// checkRebin validates a (fine grid, coarse grid, factor) triple.
func checkRebin(fine, coarse Grid, factor int) {
	if factor != 2 && factor != 4 {
		panic(fmt.Sprintf("dist: Rebin factor %d (want 2 or 4)", factor))
	}
	if want := fine.Coarsen(factor); !coarse.Equal(want) {
		panic(fmt.Sprintf("dist: Rebin target grid [%v,%v) dt=%v n=%d is not the %d×-coarsening of [%v,%v) dt=%v n=%d",
			coarse.Lo, coarse.Hi(), coarse.Dt, coarse.N, factor, fine.Lo, fine.Hi(), fine.Dt, fine.N))
	}
}

// RebinInto writes p re-binned by factor into dst (cleared first) and
// returns the worst-case deviation bound (the largest single coarse
// bin mass). dst must live on p.Grid().Coarsen(factor) and must not
// alias p; use Rebin for the in-place form.
func (p *PMF) RebinInto(dst *PMF, factor int) float64 {
	checkRebin(p.grid, dst.grid, factor)
	dst.Reset()
	if p.lo == p.hi {
		return 0
	}
	if m := p.grid.met; m != nil {
		m.RebinCalls.Add(1)
		m.CostBinOps.Add(int64(p.hi - p.lo))
	}
	dev := 0.0
	clo, chi := p.lo/factor, (p.hi-1)/factor+1
	for c := clo; c < chi; c++ {
		i0, i1 := c*factor, (c+1)*factor
		if i0 < p.lo {
			i0 = p.lo
		}
		if i1 > p.hi {
			i1 = p.hi
		}
		s := 0.0
		for i := i0; i < i1; i++ {
			s += p.w[i]
		}
		dst.w[c] = s
		if s > dev {
			dev = s
		}
	}
	// The support may over-approximate (edge coarse bins can be zero),
	// which the one-directional support invariant permits.
	dst.lo, dst.hi = clo, chi
	if m := p.grid.met; m != nil {
		m.RebinDeviationFP.Add(obs.MassFP(dev))
	}
	return dev
}

// Rebin re-bins p by factor in place, retagging it onto cg (which
// must equal p.Grid().Coarsen(factor) up to geometry; pass the
// caller's coarse grid so the metrics handle carries over),
// and returns the deviation bound. The backing slice keeps its fine
// length — harmless, since every kernel indexes bins below Grid().N.
//
// The in-place aggregation is alias-safe by construction: coarse bin
// c is written at index c after reading fine bins [c·f, (c+1)·f), and
// every later coarse bin c′ > c reads from index ≥ (c+1)·f ≥ 2c+2 > c,
// so no write ever clobbers an unread fine bin.
func (p *PMF) Rebin(cg Grid, factor int) float64 {
	checkRebin(p.grid, cg, factor)
	if p.lo == p.hi {
		p.grid = cg
		return 0
	}
	if m := p.grid.met; m != nil {
		m.RebinCalls.Add(1)
		m.CostBinOps.Add(int64(p.hi - p.lo))
	}
	dev := 0.0
	clo, chi := p.lo/factor, (p.hi-1)/factor+1
	for c := clo; c < chi; c++ {
		i0, i1 := c*factor, (c+1)*factor
		if i0 < p.lo {
			i0 = p.lo
		}
		if i1 > p.hi {
			i1 = p.hi
		}
		s := 0.0
		for i := i0; i < i1; i++ {
			s += p.w[i]
		}
		p.w[c] = s
		if s > dev {
			dev = s
		}
	}
	// Fine bins past the last coarse write still hold stale values;
	// restore the all-zero-outside-support invariant.
	zlo := chi
	if zlo < p.lo {
		zlo = p.lo
	}
	for i := zlo; i < p.hi; i++ {
		p.w[i] = 0
	}
	p.grid = cg
	p.lo, p.hi = clo, chi
	if m := cg.met; m != nil {
		m.RebinDeviationFP.Add(obs.MassFP(dev))
	}
	return dev
}
