// Depth-adaptive grid coarsening (DESIGN.md §15). As pruned t.o.p.
// supports widen with circuit depth, the per-bin kernels pay for
// resolution the deep levels no longer need: the launch-point shapes
// were discretized at dt = 1/16, but after a dozen unit-delay
// convolutions the distributions are many σ wide and a 2× coarser
// grid represents them essentially as well for half the bin work.
// The scheduler therefore re-bins every stored t.o.p. function onto a
// coarser grid at a level boundary — between the barrier of one level
// and the first gate of the next, when no worker is running — and
// continues the analysis entirely on the coarse grid: the kernel
// cache, keyed on the grid, discretizes delay kernels once per
// resolution level, the FFT/convolution plans come from the per-grid
// plan cache, and each worker's scratch stack moves to the coarse
// grid (stored rows carry their own grid, so the slabs need nothing).
//
// Re-binning is certified like ε-pruning: dist.PMF.Coarsen conserves
// mass exactly and returns the Kolmogorov-distance bound (the largest
// single coarse-bin mass), which maybeCoarsen folds into every net's
// cumulative Budget so ConsumedBudget / MaxConsumedBudget remain
// sound deviation certificates. With Coarsen off the analysis never
// touches any of this and stays bit-identical to the single-grid
// engine.
package core

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// CoarsenMode selects the multi-resolution grid policy of
// Analyzer.Run.
type CoarsenMode int

const (
	// CoarsenOff (the zero value) keeps the whole analysis on one
	// grid — bit-identical to the pre-§15 engine.
	CoarsenOff CoarsenMode = iota
	// CoarsenAuto re-bins ×coarsenFactor at a level boundary whenever
	// the finished level's widest t.o.p. support exceeds
	// coarsenThreshold bins, repeatedly if supports keep widening —
	// the adaptive policy for deep circuits.
	CoarsenAuto
)

// String returns the CLI spelling of the mode.
func (m CoarsenMode) String() string {
	switch m {
	case CoarsenOff:
		return "off"
	case CoarsenAuto:
		return "auto"
	}
	return fmt.Sprintf("CoarsenMode(%d)", int(m))
}

// ParseCoarsenMode parses the spelling of a coarsening mode, the one
// the CLIs and spstad's coarsen request field share; the empty string
// selects CoarsenOff.
func ParseCoarsenMode(s string) (CoarsenMode, error) {
	switch s {
	case "", "off":
		return CoarsenOff, nil
	case "auto":
		return CoarsenAuto, nil
	}
	return CoarsenOff, fmt.Errorf("unknown coarsen mode %q (want off or auto)", s)
}

// coarsenFactor is the per-boundary re-binning factor.
const coarsenFactor = 2

// coarsenThreshold is the auto-mode support-width trigger (in bins):
// 1.5× the bin width of the widest launch kernel on the default
// dt=1/16 grid, so auto never fires before convolution growth
// actually widens the supports.
const coarsenThreshold = 96

// CoarsenPolicy configures depth-adaptive grid coarsening.
type CoarsenPolicy struct {
	// Mode selects the policy (off, auto).
	Mode CoarsenMode
}

// Validate rejects a mode outside off and auto; Run calls it before
// any work.
func (p CoarsenPolicy) Validate() error {
	switch p.Mode {
	case CoarsenOff, CoarsenAuto:
		return nil
	}
	return fmt.Errorf("core: invalid coarsen mode %d", int(p.Mode))
}

// maxSupportWidth returns the widest t.o.p. support (in bins) among
// the given nets' stored directions. The nets are final (their level's
// barrier has passed), so the scan is race-free and deterministic.
func maxSupportWidth(res *Result, level []netlist.NodeID) int {
	w := 0
	for _, id := range level {
		for d := range res.State[id].TOP {
			if top := res.State[id].TOP[d]; top != nil {
				if lo, hi := top.Support(); hi-lo > w {
					w = hi - lo
				}
			}
		}
	}
	return w
}

// maybeCoarsen runs on the scheduling goroutine at a level boundary
// (after the barrier of `level`, before the next level's first gate;
// never after the last level) and applies the auto rule: it fires
// when the finished level's widest support exceeds coarsenThreshold
// bins. When it fires, every stored t.o.p. function in res is
// re-binned in place onto the coarsenFactor×-coarser grid, each net's Budget
// absorbs its rise+fall deviation bounds (PrunedMass is untouched —
// no occurrence mass is removed, only displaced within a bin group),
// and the run context, result grid, worker scratch stacks and shared
// empty PMF move to the coarse grid so everything downstream lives on
// it. Reports whether the grid changed.
func (rc *runCtx) maybeCoarsen(res *Result, level []netlist.NodeID) bool {
	if rc.coarsen.Mode != CoarsenAuto || maxSupportWidth(res, level) <= coarsenThreshold {
		return false
	}
	cg := rc.grid.Coarsen(coarsenFactor)
	if cg.N < 2 {
		// Nothing left to halve; keep the current resolution.
		return false
	}
	for i := range res.State {
		st := &res.State[i]
		dev := 0.0
		for d := range st.TOP {
			if top := st.TOP[d]; top != nil {
				dev += top.Coarsen(rc.met, coarsenFactor)
			}
		}
		st.Budget += dev
	}
	rc.grid = cg
	res.Grid = cg
	for i := range rc.workers {
		rc.workers[i].scr.retarget(cg)
	}
	if rc.empty != nil {
		// Absorbed mixture inputs must point at an empty t.o.p. on the
		// current grid; the old one stays valid for already-built nets.
		rc.empty = rc.workers[0].slab.Empty(cg)
	}
	if m := rc.met; m != nil {
		m.RebinLevels.Add(1)
	}
	return true
}

// recordSupportPeak folds one net's widest stored support into the
// run's peak-support-width gauge (metrics-gated; obs.ObserveMax is a
// monotone CAS, so concurrent workers may record freely).
func recordSupportPeak(m *obs.Metrics, st *NetState) {
	if m == nil {
		return
	}
	w := 0
	for d := range st.TOP {
		if top := st.TOP[d]; top != nil {
			if lo, hi := top.Support(); hi-lo > w {
				w = hi - lo
			}
		}
	}
	obs.ObserveMax(&m.SupportWidthPeak, int64(w))
}
