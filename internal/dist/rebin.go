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
	if want := fine.Coarsen(factor); coarse != want {
		panic(fmt.Sprintf("dist: Rebin target grid [%v,%v) dt=%v n=%d is not the %d×-coarsening of [%v,%v) dt=%v n=%d",
			coarse.Lo, coarse.Hi(), coarse.Dt, coarse.N, factor, fine.Lo, fine.Hi(), fine.Dt, fine.N))
	}
}

// RebinInto writes p re-binned by factor into dst (cleared first),
// charging the re-bin to m (nil records nothing), and returns the
// worst-case deviation bound (the largest single coarse bin mass). dst
// must live on p.Grid().Coarsen(factor) and must not alias p; use
// Coarsen for the in-place form.
func (p *PMF) RebinInto(m *obs.Metrics, dst *PMF, factor int) float64 {
	checkRebin(p.grid, dst.grid, factor)
	dst.clear()
	if p.lo == p.hi {
		return 0
	}
	clo, chi := p.lo/factor, (p.hi-1)/factor+1
	dev, mass := rebinBins(dst.w, 0, p.w, p.off, p.lo, p.hi, factor)
	// The support may over-approximate (edge coarse bins can be zero),
	// which the one-directional support invariant permits.
	dst.lo, dst.hi = clo, chi
	dst.mass, dst.massOK = mass, true
	recordRebin(m, p.hi-p.lo, dev)
	return dev
}

// recordRebin charges one re-bin of a width-bin support with deviation
// bound dev to m.
func recordRebin(m *obs.Metrics, width int, dev float64) {
	if m != nil {
		m.RebinCalls.Add(1)
		m.CostBinOps.Add(int64(width))
		m.RebinDeviationFP.Add(obs.MassFP(dev))
	}
}

// rebinBins sums the fine bins [lo, hi), stored in src from bin soff
// on, into coarse bins written at dst[c-doff], in ascending order, and
// returns the largest coarse bin and the left-to-right sum of the
// coarse bins. Coarse bin c is written only after every fine bin it
// covers has been read, so dst may alias src as long as doff <= soff
// and no coarse write lands on a fine bin a later coarse bin reads
// (see Coarsen).
func rebinBins(dst []float64, doff int, src []float64, soff, lo, hi, factor int) (dev, mass float64) {
	clo, chi := lo/factor, (hi-1)/factor+1
	for c := clo; c < chi; c++ {
		i0, i1 := c*factor, (c+1)*factor
		if i0 < lo {
			i0 = lo
		}
		if i1 > hi {
			i1 = hi
		}
		s := 0.0
		for _, v := range src[i0-soff : i1-soff] {
			s += v
		}
		dst[c-doff] = s
		if s > dev {
			dev = s
		}
		mass += s
	}
	return dev, mass
}

// Coarsen re-bins p by factor in place onto p.Grid().Coarsen(factor),
// charging the re-bin to m (nil records nothing), and returns the
// deviation bound. The coarse mass is summed in the same pass and
// cached.
//
// The coarse bins reuse p's window: position j holds coarse bin
// j + off′ with off′ = min(off, lo/factor), so a window frozen to
// [lo, hi) becomes one frozen to [lo/factor, (hi−1)/factor+1). The
// in-place aggregation is alias-safe by construction: coarse bin c is
// written at position c − off′ after reading fine bins from
// max(c·f, lo) on, and every later coarse bin c′ > c reads positions
// ≥ (c+1)·f − off. Since off − off′ ≤ lo − lo/f < (c+1)·f − c for
// every c ≥ lo/f, no write ever clobbers an unread fine bin, whatever
// the residue of lo modulo f.
func (p *PMF) Coarsen(m *obs.Metrics, factor int) float64 {
	cg := p.grid.Coarsen(factor)
	checkRebin(p.grid, cg, factor)
	if p.lo == p.hi {
		p.grid = cg
		return 0
	}
	width := p.hi - p.lo
	clo, chi := p.lo/factor, (p.hi-1)/factor+1
	off := min(p.off, clo)
	frozen := p.off == p.lo && len(p.w) == p.hi-p.lo
	dev, mass := rebinBins(p.w, off, p.w, p.off, p.lo, p.hi, factor)
	if frozen {
		p.w = p.w[: chi-off : chi-off]
	} else {
		// Fine bins past the last coarse write still hold stale values;
		// restore the all-zero-outside-support invariant.
		for j := max(chi-off, p.lo-p.off); j < p.hi-p.off; j++ {
			p.w[j] = 0
		}
	}
	p.grid = cg
	p.off, p.lo, p.hi = off, clo, chi
	p.mass, p.massOK = mass, true
	recordRebin(m, width, dev)
	return dev
}

// Rebin is Coarsen onto cg, which must be p.Grid().Coarsen(factor),
// and records no metrics.
func (p *PMF) Rebin(cg Grid, factor int) float64 {
	checkRebin(p.grid, cg, factor)
	return p.Coarsen(nil, factor)
}
