package core

import (
	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// worker is one level-scheduler worker's private storage: the slab its
// nodes' stored t.o.p. functions are carved from and its scratch
// stack. runLevels hands every node function its worker index, so no
// two goroutines ever touch the same worker.
type worker struct {
	slab *dist.Slab
	scr  scratch
}

// runChunk is the minimum slab chunk of a full Run, in grid rows: a
// deep circuit stores hundreds of rows per worker, so chunks this size
// keep the allocation count per worker small, while a small circuit
// wastes at most this much.
const runChunk = 16

// newWorkers returns the per-worker storage of one propagation on
// grid g. chunk is the slab chunk in bins (0 stores every row on its
// own, see dist.NewSlab).
func newWorkers(n int, g dist.Grid, chunk int) []worker {
	ws := make([]worker, n)
	for i := range ws {
		ws[i] = worker{slab: dist.NewSlab(chunk), scr: scratch{grid: g}}
	}
	return ws
}

// scratch is a stack of grid-sized PMFs for the intermediates of one
// node: mixtures, parity conditionals and convolution outputs. get
// pushes an all-zero PMF; free pops back to a mark, zeroing the
// support of every popped PMF, so a PMF is all-zero whenever it is
// taken. computeNode frees to 0 after every node, and each parity leaf
// frees back to its own mark. The stack also holds the parity
// enumeration's per-gate slices and conditionals (parityConds).
type scratch struct {
	grid dist.Grid
	pmfs []*dist.PMF
	n    int

	vals   []logic.Value
	ord    []netlist.NodeID
	suffix []float64
	conds  []*dist.PMF
}

// get returns an all-zero PMF on the scratch grid, valid until the
// stack is freed below it.
func (s *scratch) get() *dist.PMF {
	if s.n == len(s.pmfs) {
		s.pmfs = append(s.pmfs, dist.NewPMF(s.grid))
	}
	p := s.pmfs[s.n]
	s.n++
	return p
}

// mark returns the current stack height for a later free.
func (s *scratch) mark() int { return s.n }

// free pops every PMF taken since mark, clearing it.
func (s *scratch) free(mark int) {
	for _, p := range s.pmfs[mark:s.n] {
		p.Reset()
	}
	s.n = mark
}

// retarget moves the empty stack onto grid g at a coarsening
// boundary, dropping its PMFs and keeping its slices' capacity.
func (s *scratch) retarget(g dist.Grid) {
	clear(s.pmfs)
	s.pmfs = s.pmfs[:0]
	clear(s.conds)
	s.conds = s.conds[:0]
	s.grid = g
}

// parityVals returns the stack's parity value slice, length k.
func (s *scratch) parityVals(k int) []logic.Value {
	if cap(s.vals) < k {
		s.vals = make([]logic.Value, k)
	}
	s.vals = s.vals[:k]
	return s.vals
}

// parityConds pushes 2k all-zero PMFs for a parity gate of fanin k,
// one per (fanin position j, direction d) conditional, at
// s.conds[2j+d]. They sit below every leaf's mark, so a conditional
// built by one leaf serves every later leaf of the gate; the node's
// free clears them.
func (s *scratch) parityConds(k int) {
	s.conds = s.conds[:0]
	for range 2 * k {
		s.conds = append(s.conds, s.get())
	}
}

// storeDelayed returns a stored (frozen) copy of top delayed by d,
// its tails trimmed with budget trim (see dist.PMF.TruncateTail), and
// the trimmed mass: shifted for a deterministic delay, convolved with
// the cached kernel for a variational one. A whole-bin in-grid shift
// copies straight into the stored row; every other case goes through
// a scratch PMF, trimmed before it is stored so the row holds only
// what is kept. The work is charged to the run's registry.
//
// At ε > 0 the delay kernel's outer tails are folded inward
// (kernelTailShare). The convolution then displaces at most δ·m of
// top's mass m, δ being the kernel's folded share. That mass is moved,
// not removed, so it is charged to st's PrunedMass and Budget but not
// to its probabilities, and it comes out of the trim allowance, so the
// net's spend stays within ε.
func (w *worker) storeDelayed(rc *runCtx, st *NetState, top *dist.PMF, d dist.Normal, trim float64) (*dist.PMF, float64) {
	if d.Sigma == 0 {
		var p *dist.PMF
		if d.Mu == 0 {
			p = w.slab.Store(top)
		} else {
			p = w.slab.StoreShifted(rc.met, top, d.Mu)
		}
		if p != nil {
			return trimStored(rc.met, p, trim)
		}
		return w.keep(rc.met, applyDelayInto(rc, w.scr.get(), top, d), trim)
	}
	k, share := rc.kernels.FromNormal(rc.met, rc.grid, d, rc.eps*kernelTailShare)
	if share > 0 {
		moved := share * top.Mass()
		st.PrunedMass += moved
		st.Budget += moved
		trim -= moved
	}
	return w.keep(rc.met, top.ConvolveInto(rc.met, w.scr.get(), k), trim)
}

// keep trims p's tails with budget trim and stores it; p is the
// worker's to modify (scratch, or a PMF nothing else holds).
func (w *worker) keep(m *obs.Metrics, p *dist.PMF, trim float64) (*dist.PMF, float64) {
	tr := p.TruncateTail(m, trim)
	return w.slab.Store(p), tr
}

// trimStored trims a stored row's tails in place and re-freezes it.
func trimStored(m *obs.Metrics, p *dist.PMF, trim float64) (*dist.PMF, float64) {
	tr := p.TruncateTail(m, trim)
	return p.Freeze(), tr
}

// storeMixture evaluates the max (or min) mixture of in and stores it
// delayed by d for net st, its tails trimmed with budget trim. It
// returns the stored t.o.p., the mixture's mass before the delay and
// the trim (the probabilities always take the undelayed sum), and the
// trimmed mass. A deterministic whole-bin delay writes the mixture
// straight into its stored row.
func (w *worker) storeMixture(rc *runCtx, st *NetState, in []dist.SwitchInput, max bool, d dist.Normal, trim float64) (*dist.PMF, float64, float64) {
	if d.Sigma == 0 {
		if p := w.slab.StoreMixture(rc.met, rc.grid, in, max, d.Mu); p != nil {
			mass := p.Mass()
			p, tr := trimStored(rc.met, p, trim)
			return p, mass, tr
		}
	}
	mix := w.scr.get()
	if max {
		dist.MaxMixtureInto(rc.met, mix, in)
	} else {
		dist.MinMixtureInto(rc.met, mix, in)
	}
	p, tr := w.storeDelayed(rc, st, mix, d, trim)
	return p, mix.Mass(), tr
}
