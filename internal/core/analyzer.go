// Package core implements SPSTA — signal probability based
// statistical timing analysis, the paper's contribution (Section 3).
//
// For every net the analyzer maintains the four-value signal
// probabilities P0, P1, Pr, Pf (Eq. 9/10) and, for each transition
// direction, the signal transition temporal occurrence probability
// (t.o.p.) function: an unnormalized arrival-time distribution whose
// total mass is the transition's occurrence probability
// (Definition 3). Gates combine their inputs' t.o.p. functions with
// the WEIGHTED SUM operation (Eq. 8/11/12): a mixture over
// switching-input subsets, each subset's arrival pdf combined with
// MIN or MAX according to the gate logic and transition direction
// (Table 1), weighted by the subset's occurrence probability with
// the remaining inputs at the gate's non-controlling value.
//
// Three abstractions are provided:
//
//   - Analyzer: discretized t.o.p. functions on a shared grid (the
//     most accurate; used for the paper's Table 2);
//   - MomentTiming: per-direction (probability, mean, sigma) tuples
//     with Clark moment matching inside subsets (Section 3.4 applied
//     to timing, an accuracy/efficiency tradeoff);
//   - ToggleMoments: the literal Eq. 13 linear propagation of
//     toggling-rate means, variances and correlations.
package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/ssta"
)

// DefaultMaxParityFanin bounds the O(4^k) parity-gate enumeration.
const DefaultMaxParityFanin = 6

// Analyzer is the discretized-pdf SPSTA engine.
type Analyzer struct {
	// Grid is the shared discretization grid. The zero value
	// selects dist.TimingGrid for the circuit depth and the widest
	// launch-point arrival statistics.
	Grid dist.Grid
	// Delay is the gate delay model (default ssta.UnitDelay).
	// Deterministic delays shift the t.o.p. functions; variational
	// delays convolve them (the SUM operation, Eq. 1).
	Delay ssta.DelayModel
	// MaxParityFanin caps XOR/XNOR fanin (default
	// DefaultMaxParityFanin); wider parity gates are rejected.
	MaxParityFanin int
	// ExactProbabilities enables the Section 3.5 higher-order
	// correlation correction: exact four-value probabilities are
	// computed on pair-BDDs (power.PairSymbolic) and every net's
	// probabilities and t.o.p. masses are rescaled to them, so the
	// occurrence probabilities account for reconvergent-fanout
	// correlations exactly while the arrival-time shapes keep the
	// independence approximation.
	ExactProbabilities bool
	// BDDLimit bounds the pair-BDD size when ExactProbabilities is
	// set (0 for the bdd package default).
	BDDLimit int
	// MIS, when non-nil, replaces the per-gate Delay with a
	// multiple-input-switching model (the paper's reference [2]):
	// the delay of a gate whose output transition is caused by k
	// simultaneously switching inputs is MIS(gate, k). Evaluation
	// falls back to the O(2^k) subset enumeration for monotone
	// gates.
	MIS MISModel
	// Workers is the number of goroutines evaluating gates of one
	// unit-delay level concurrently (0 = GOMAXPROCS, 1 = serial).
	// Every gate of a level has all its fanins in earlier levels, so
	// any worker count produces bit-identical results to the serial
	// run — parallelism changes the schedule, never the arithmetic.
	Workers int
	// SerialCutoff tunes the cost-aware schedule: a level whose
	// estimated work — sum over its gates of (fanin+1) × grid bins —
	// falls below the cutoff is evaluated inline instead of being
	// dispatched to the worker pool, because for small levels the
	// channel sends and barrier wake-ups outweigh the distributed
	// work. 0 selects DefaultAnalyzerSerialCutoff (calibrated on the
	// cmd/benchperf harness); negative disables the fallback and
	// dispatches every level. On GOMAXPROCS=1 runtimes every level
	// runs inline regardless (unless SerialCutoff is negative), since
	// a single processor cannot overlap the pool's work.
	SerialCutoff int64
	// ErrorBudget is the per-net ε for adaptive pruning (DESIGN.md
	// §11): each net may spend at most this much occurrence mass on
	// subset branch-and-bound cuts, negligible-switcher absorption
	// and t.o.p. tail truncation combined. Removed mass is folded
	// back into the four-value probabilities (they still sum to 1)
	// and tracked per net: NetState.PrunedMass is the local spend,
	// NetState.Budget the cumulative certified deviation bound. Zero
	// disables pruning and is bit-identical to the exact engine;
	// pruning decisions depend only on the configuration, never on
	// Workers.
	ErrorBudget float64
	// Obs is the analysis' observability scope (metrics and optional
	// tracing). nil disables instrumentation — the zero-cost default.
	// Scopes are per-analysis: concurrent Runs with distinct scopes
	// record into fully isolated registries, and instrumentation never
	// changes results.
	Obs *obs.Scope
	// Batched selects the level scheduler: the default (BatchAuto)
	// analyzes all nets of a topological level as one batch — slab
	// staging, per-delay-kernel grouping, table-driven convolution —
	// with bit-identical results; BatchOff restores the per-gate
	// scheduler (see batch.go).
	Batched BatchMode
	// Coarsen configures depth-adaptive grid coarsening (DESIGN.md
	// §15): at level boundaries the stored t.o.p. functions are
	// re-binned onto a 2×/4×-coarser grid with a certified deviation
	// bound folded into each net's Budget. The zero value (CoarsenOff)
	// keeps the whole analysis on one grid, bit-identical to the
	// single-resolution engine.
	Coarsen CoarsenPolicy
}

// DefaultAnalyzerSerialCutoff is the default serial-fallback
// threshold of Analyzer in (fanin+1)×bins work units — roughly ten
// average gates on the default timing grid, the break-even point
// between per-level dispatch overhead and distributable convolution
// work on the cmd/benchperf harness.
const DefaultAnalyzerSerialCutoff = 16384

// MISModel maps a gate and its simultaneously-switching input count
// to the gate delay (an alias of ssta.MISModel).
type MISModel = ssta.MISModel

// NetState is the SPSTA view of one net.
type NetState struct {
	// P holds the four-value occurrence probabilities indexed by
	// logic.Value (Eq. 9/10).
	P [logic.NumValues]float64
	// TOP holds the unnormalized transition temporal occurrence
	// probability function per direction, indexed by ssta.Dir.
	// TOP[d].Mass() equals P[Rise] or P[Fall] up to discretization.
	TOP [2]*dist.PMF
	// PrunedMass bounds the occurrence mass removed or displaced at
	// this net by ε-bounded pruning (0 on exact runs). It has already
	// been folded back into P, so the probabilities still sum to 1.
	PrunedMass float64
	// Budget is the net's cumulative certified deviation bound: the
	// local pruning bound plus every combinational fanin's Budget.
	Budget float64
}

// Result is a completed SPSTA analysis.
type Result struct {
	C     *netlist.Circuit
	Grid  dist.Grid
	State []NetState

	// kernels memoizes delay-kernel discretizations for this
	// analysis; it lives on the Result so incremental re-analysis
	// (ComputeNode) keeps hitting the cache built by Run.
	kernels *dist.KernelCache

	// arena backs the stored t.o.p. functions; Recycle hands it back
	// for reuse by a later Run.
	arena *dist.Arena
}

// Kernels returns the delay-kernel cache that Run built and that
// ComputeNode keeps using (nil before either has run).
func (r *Result) Kernels() *dist.KernelCache { return r.kernels }

// Recycle releases the result's t.o.p. storage for reuse by a later
// Run, skipping the slab allocation and full-width zeroing that
// otherwise dominate repeated analyses of small circuits. Every
// stored t.o.p. pointer in State becomes invalid; the caller must be
// completely done with the result. The probability and certificate
// scalars (P, PrunedMass, Budget) remain readable.
func (r *Result) Recycle() {
	if r.arena == nil {
		return
	}
	for i := range r.State {
		r.State[i].TOP = [2]*dist.PMF{}
	}
	r.arena.Recycle()
	r.arena = nil
}

// runCtx carries the per-run configuration threaded through node
// evaluation: the resolved grid, delay model, parity cap and the
// shared (concurrency-safe) kernel cache.
type runCtx struct {
	grid      dist.Grid
	delay     ssta.DelayModel
	maxParity int
	kernels   *dist.KernelCache
	// eps is the per-net pruning budget; 0 keeps every code path
	// bit-identical to the exact engine. empty is the shared empty
	// t.o.p. that absorbed mixture inputs point at (allocated only
	// when eps > 0).
	eps   float64
	empty *dist.PMF
	// certify is true when the run maintains the per-net Budget
	// certificates: under ε-pruning, and under grid coarsening even at
	// ε=0 (the re-binning deviation must still flow fanin→fanout).
	certify bool
	// coarsen is the run's grid-coarsening policy; coarsened records
	// that a fixed-mode boundary already fired.
	coarsen   CoarsenPolicy
	coarsened bool
	// arena backs the stored t.o.p. functions of a full Run (nil for
	// single-node recomputation, which falls back to NewPMF).
	arena *dist.Arena
	// met is the run's metrics registry (also carried by grid); nil
	// disables the core-level counters.
	met *obs.Metrics
}

// newTOP returns an empty PMF for a stored t.o.p. function, carved
// from the run's arena when one is available.
func (rc *runCtx) newTOP() *dist.PMF {
	if p := rc.arena.Take(); p != nil {
		return p
	}
	return dist.NewPMF(rc.grid)
}

// Run executes SPSTA over the circuit. inputs maps launch points to
// their cycle statistics (default: the paper's scenario I).
func (a *Analyzer) Run(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats) (*Result, error) {
	maxParity := a.MaxParityFanin
	if maxParity == 0 {
		maxParity = DefaultMaxParityFanin
	}
	if err := a.Coarsen.Validate(); err != nil {
		return nil, err
	}
	delay := a.Delay
	if delay == nil {
		delay = ssta.UnitDelay
	}
	grid := a.Grid
	if grid.N == 0 {
		mu, sigma := 0.0, 1.0
		for _, st := range inputs {
			if st.Sigma > sigma {
				sigma = st.Sigma
			}
		}
		grid = dist.TimingGrid(c.Depth(), mu, sigma)
	}
	// Attach the scope's registry to the grid so every dist kernel
	// call site (convolution, mixtures, the scratch pool, the kernel
	// cache) records into this run's scope.
	grid = grid.WithMetrics(a.Obs.M())
	for id, st := range inputs {
		if err := st.Validate(); err != nil {
			return nil, fmt.Errorf("core: launch %s: %w", c.Nodes[id].Name, err)
		}
	}

	var exact [][logic.NumValues]float64
	if a.ExactProbabilities {
		ps, err := power.BuildPairSymbolic(c, a.BDDLimit)
		if err != nil {
			return nil, err
		}
		if exact, err = ps.FourValue(inputs); err != nil {
			return nil, err
		}
	}

	res := &Result{
		C:       c,
		Grid:    grid,
		State:   make([]NetState, len(c.Nodes)),
		kernels: dist.NewKernelCache(grid),
	}
	rc := &runCtx{
		grid: grid, delay: delay, maxParity: maxParity, kernels: res.kernels,
		eps:     a.ErrorBudget,
		certify: a.ErrorBudget > 0 || a.Coarsen.Mode != CoarsenOff,
		coarsen: a.Coarsen,
		arena:   dist.NewArena(grid, 2*len(c.Nodes)),
		met:     a.Obs.M(),
	}
	res.arena = rc.arena
	if rc.eps > 0 {
		rc.empty = dist.NewPMF(grid)
	}
	name := func(id netlist.NodeID) string { return c.Nodes[id].Name }
	cutoff := a.SerialCutoff
	if cutoff == 0 {
		cutoff = DefaultAnalyzerSerialCutoff
	}
	// Per-gate work scales with the number of fanin t.o.p. functions
	// combined and the width of the grid they currently live on
	// (rc.grid, not the captured launch grid — coarsening narrows it
	// mid-run).
	cost := func(id netlist.NodeID) int64 {
		return int64(len(c.Nodes[id].Fanin)+1) * int64(rc.grid.N)
	}
	if rc.eps > 0 {
		// Post-pruning estimate: the kernels only visit the union of
		// the fanin t.o.p. supports, which tail truncation keeps
		// narrow. Fanin states are final when the scheduler costs a
		// level (levels are costed after the previous level's barrier),
		// so reading them here is race-free.
		cost = func(id netlist.NodeID) int64 {
			n := c.Nodes[id]
			lo, hi := rc.grid.N, 0
			for _, f := range n.Fanin {
				for d := range res.State[f].TOP {
					if top := res.State[f].TOP[d]; top != nil {
						if tlo, thi := top.Support(); tlo < thi {
							if tlo < lo {
								lo = tlo
							}
							if thi > hi {
								hi = thi
							}
						}
					}
				}
			}
			w := hi - lo
			if w < 1 {
				w = 1
			}
			return int64(len(n.Fanin)+1) * int64(w)
		}
	}
	node := func(id netlist.NodeID) error {
		if err := a.computeNode(res, id, inputs, rc); err != nil {
			return err
		}
		if exact != nil {
			correctToExact(&res.State[id], exact[id])
		}
		return nil
	}
	var err error
	switch {
	case a.Batched.On():
		err = a.runBatched(res, c, inputs, rc, exact, resolveWorkers(a.Workers), cost, cutoff)
	case a.Coarsen.Mode != CoarsenOff:
		// Escape-hatch parity: -batched=false under coarsening follows
		// the same boundary policy as the batch scheduler by walking
		// the schedule one level per runLevels call with maybeCoarsen
		// between the calls. Per-level spans and metrics then label
		// every level L0 — an accepted observability degradation on
		// this path; results are identical to the batched run.
		levels := c.Levelize()
		for li, level := range levels {
			if m := rc.met; m != nil {
				m.GridBinsPerLevel.Observe(rc.grid.N)
			}
			err = runLevels(a.Obs.M(), a.Obs.T(), a.Obs.SpanID(), resolveWorkers(a.Workers),
				[][]netlist.NodeID{level}, len(c.Nodes), name, cost, cutoff, node)
			if err != nil {
				break
			}
			if li < len(levels)-1 {
				rc.maybeCoarsen(res, level)
			}
		}
	default:
		err = runLevels(a.Obs.M(), a.Obs.T(), a.Obs.SpanID(), resolveWorkers(a.Workers), c.Levelize(), len(c.Nodes), name, cost, cutoff, node)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ComputeNode recomputes one net's four-value probabilities and
// t.o.p. functions from the fanin states already stored in res — the
// single-node step of Run, exported for incremental re-analysis
// (package incr). The exact-probability correction is whole-circuit
// and is not applied here.
func (a *Analyzer) ComputeNode(res *Result, id netlist.NodeID, inputs map[netlist.NodeID]logic.InputStats) error {
	delay := a.Delay
	if delay == nil {
		delay = ssta.UnitDelay
	}
	maxParity := a.MaxParityFanin
	if maxParity == 0 {
		maxParity = DefaultMaxParityFanin
	}
	if res.kernels == nil || !res.kernels.Grid().Equal(res.Grid) {
		res.kernels = dist.NewKernelCache(res.Grid)
	}
	// Incremental recomputation records into the scope the result was
	// built with: res.Grid carries the registry Run attached.
	rc := &runCtx{
		grid: res.Grid, delay: delay, maxParity: maxParity, kernels: res.kernels,
		eps: a.ErrorBudget, met: res.Grid.Metrics(),
		// Single-node recomputation replays the fanin budget sums the
		// original run performed (the grid never changes here, so the
		// coarsening policy itself stays idle).
		certify: a.ErrorBudget > 0 || a.Coarsen.Mode != CoarsenOff,
	}
	if rc.eps > 0 {
		rc.empty = dist.NewPMF(res.Grid)
	}
	return a.computeNode(res, id, inputs, rc)
}

func (a *Analyzer) computeNode(res *Result, id netlist.NodeID, inputs map[netlist.NodeID]logic.InputStats, rc *runCtx) error {
	n := res.C.Nodes[id]
	st := &res.State[id]
	switch {
	case n.Type == logic.Const0:
		*st = NetState{}
		st.P[logic.Zero] = 1
		st.TOP[ssta.DirRise] = rc.newTOP()
		st.TOP[ssta.DirFall] = rc.newTOP()
	case n.Type == logic.Const1:
		*st = NetState{}
		st.P[logic.One] = 1
		st.TOP[ssta.DirRise] = rc.newTOP()
		st.TOP[ssta.DirFall] = rc.newTOP()
	case !n.Type.Combinational():
		in, ok := inputs[id]
		if !ok {
			in = logic.UniformStats()
		}
		*st = NetState{}
		st.P = in.P
		// The cached launch kernel is shared and read-only; each
		// direction scales it into its own fresh t.o.p.
		arr := rc.kernels.FromNormal(dist.Normal{Mu: in.Mu, Sigma: in.Sigma})
		st.TOP[ssta.DirRise] = rc.newTOP().AccumWeighted(arr, in.P[logic.Rise])
		st.TOP[ssta.DirFall] = rc.newTOP().AccumWeighted(arr, in.P[logic.Fall])
		if rc.eps > 0 {
			truncateState(st, rc.eps)
		}
	default:
		*st = NetState{}
		if err := a.gate(res, n, rc); err != nil {
			return err
		}
		if rc.certify {
			// Cumulative certificate: the gate's probability map is
			// multilinear in its fanin probabilities with coefficients
			// in [0,1], so fanin deviation bounds add. gate() stored
			// the local bound (zero at ε=0, where only re-binning
			// deviations flow through); fanins are final (earlier
			// levels).
			for _, f := range n.Fanin {
				st.Budget += res.State[f].Budget
			}
		}
	}
	recordSupportPeak(rc.met, st)
	return nil
}

// correctToExact rescales a net's t.o.p. masses to the exact
// transition probabilities and overwrites the four-value
// probabilities (Section 3.5 correction). A transition the
// independence analysis deems impossible but the exact computation
// does not keeps an empty t.o.p. — there is no shape information to
// scale — while the probability is still corrected.
func correctToExact(st *NetState, exact [logic.NumValues]float64) {
	for d, v := range [2]logic.Value{logic.Rise, logic.Fall} {
		mass := st.TOP[d].Mass()
		if mass > 0 {
			st.TOP[d].Scale(exact[v] / mass)
		}
	}
	st.P = exact
}

// gate computes one combinational gate's four-value probabilities
// and t.o.p. functions from its fanin states. Intermediate mixtures
// live in pooled scratch PMFs; only the two stored t.o.p. functions
// are allocated.
func (a *Analyzer) gate(res *Result, n *netlist.Node, rc *runCtx) error {
	grid := rc.grid
	st := &res.State[n.ID]
	var rise, fall *dist.PMF

	switch {
	case n.Type == logic.Buf || n.Type == logic.Not:
		in := &res.State[n.Fanin[0]]
		if n.Type == logic.Buf {
			st.P = in.P
			rise = in.TOP[ssta.DirRise]
			fall = in.TOP[ssta.DirFall]
		} else {
			st.P[logic.Zero] = in.P[logic.One]
			st.P[logic.One] = in.P[logic.Zero]
			st.P[logic.Rise] = in.P[logic.Fall]
			st.P[logic.Fall] = in.P[logic.Rise]
			rise = in.TOP[ssta.DirFall]
			fall = in.TOP[ssta.DirRise]
		}
		d := rc.delay(n)
		st.TOP[ssta.DirRise] = applyDelayInto(rc.newTOP(), rise, d, rc.kernels)
		st.TOP[ssta.DirFall] = applyDelayInto(rc.newTOP(), fall, d, rc.kernels)
		if rc.eps > 0 {
			truncateState(st, rc.eps)
		}
		return nil

	case n.Type.Monotone():
		// Non-controlling input constant: 1 for AND/NAND, 0 for
		// OR/NOR. Transitions toward / away from it select the
		// mixture inputs (Eq. 11).
		ctrl, _ := n.Type.Controlling()
		ncVal := logic.Zero
		towardNC, towardCtrl := logic.Fall, logic.Rise
		if !ctrl { // controlling 0 → non-controlling 1
			ncVal = logic.One
			towardNC, towardCtrl = logic.Rise, logic.Fall
		}
		k := len(n.Fanin)
		var ncdArr, cdArr [16]dist.SwitchInput
		var ncdMassArr, cdMassArr [16]float64
		ncdIn, cdIn := ncdArr[:0], cdArr[:0]
		ncdMass, cdMass := ncdMassArr[:0], cdMassArr[:0]
		if k > len(ncdArr) {
			ncdIn = make([]dist.SwitchInput, 0, k)
			cdIn = make([]dist.SwitchInput, 0, k)
			ncdMass = make([]float64, 0, k)
			cdMass = make([]float64, 0, k)
		}
		pNCD := 1.0 // probability of the constant non-controlled output
		for _, f := range n.Fanin {
			in := &res.State[f]
			stay := in.P[ncVal]
			pNCD *= stay
			ncdIn = append(ncdIn, dist.SwitchInput{Stay: stay, TOP: in.TOP[dirOf(towardNC)]})
			cdIn = append(cdIn, dist.SwitchInput{Stay: stay, TOP: in.TOP[dirOf(towardCtrl)]})
			ncdMass = append(ncdMass, in.P[towardNC])
			cdMass = append(cdMass, in.P[towardCtrl])
		}
		// Transition to the non-controlled output value: every
		// switching input must arrive — MAX (Eq. 11). Transition to
		// the controlled value: the first controlling arrival — MIN.
		var ncdTOP, cdTOP *dist.PMF
		if a.MIS != nil {
			// MIS falls back to subset enumeration, so the ε budget is
			// spent on branch-and-bound cuts (ε/4 per mixture; exact
			// when eps is 0).
			misDelay := func(size int) dist.Normal { return a.MIS(n, size) }
			var p1, p2 float64
			ncdTOP, p1 = dist.SizedMixturePruned(grid, ncdIn, true, misDelay, rc.eps/4)
			cdTOP, p2 = dist.SizedMixturePruned(grid, cdIn, false, misDelay, rc.eps/4)
			st.PrunedMass += p1 + p2
		} else {
			if rc.eps > 0 {
				// Negligible-switcher absorption (ε/4 per mixture):
				// the closed-form kernels then iterate a narrower
				// union support. The residual probability bucket
				// below absorbs the displaced mass.
				st.PrunedMass += absorbNegligible(ncdIn, ncdMass, rc.eps/4, rc.empty, rc.met)
				st.PrunedMass += absorbNegligible(cdIn, cdMass, rc.eps/4, rc.empty, rc.met)
			}
			ncdTOP = dist.MaxMixtureInto(dist.NewScratch(grid), ncdIn)
			cdTOP = dist.MinMixtureInto(dist.NewScratch(grid), cdIn)
		}
		// Output value with all inputs non-controlling (the
		// non-controlled value) decides which mixture is rising.
		ncdOut := n.Type.EvalBool(allBool(k, !ctrl))
		if ncdOut {
			rise, fall = ncdTOP, cdTOP
		} else {
			rise, fall = cdTOP, ncdTOP
		}
		st.P[boolVal(ncdOut)] = pNCD
		st.P[logic.Rise] = rise.Mass()
		st.P[logic.Fall] = fall.Mass()
		st.P[boolVal(!ncdOut)] = clampProb(1 - pNCD - st.P[logic.Rise] - st.P[logic.Fall])
		if a.MIS != nil {
			// SizedMixture already applied the per-size delay.
			st.TOP[ssta.DirRise] = rise
			st.TOP[ssta.DirFall] = fall
		} else {
			d := rc.delay(n)
			st.TOP[ssta.DirRise] = applyDelayInto(rc.newTOP(), rise, d, rc.kernels)
			st.TOP[ssta.DirFall] = applyDelayInto(rc.newTOP(), fall, d, rc.kernels)
			rise.Release()
			fall.Release()
		}
		if rc.eps > 0 {
			// Trim the stored tails (ε/4 per direction) and deduct the
			// trimmed mass from the transition probabilities (set from
			// the mixture masses above; the delay shift preserves mass);
			// the controlled-value residual bucket absorbs the trimmed
			// and pruned mass so the four probabilities sum to 1.
			tr := st.TOP[ssta.DirRise].TruncateTail(rc.eps / 4)
			tf := st.TOP[ssta.DirFall].TruncateTail(rc.eps / 4)
			st.PrunedMass += tr + tf
			st.P[logic.Rise] = clampProb(st.P[logic.Rise] - tr)
			st.P[logic.Fall] = clampProb(st.P[logic.Fall] - tf)
			st.P[boolVal(!ncdOut)] = clampProb(1 - pNCD - st.P[logic.Rise] - st.P[logic.Fall])
			st.Budget = st.PrunedMass
		}
		return nil

	case n.Type.Parity():
		if len(n.Fanin) > rc.maxParity {
			return fmt.Errorf("core: %s: %v fanin %d exceeds parity cap %d",
				n.Name, n.Type, len(n.Fanin), rc.maxParity)
		}
		if a.MIS != nil {
			// parityCombos applies the per-combo MIS delay; the
			// accumulators are stored directly.
			rise = rc.newTOP()
			fall = rc.newTOP()
		} else {
			rise = dist.NewScratch(grid)
			fall = dist.NewScratch(grid)
		}
		vals := make([]logic.Value, len(n.Fanin))
		// With a budget, fanins are reordered by ascending switching
		// probability so low-weight subtrees sit near the enumeration
		// root, and whole subtrees are cut when their exact remaining
		// occurrence weight fits in the budget (ε/2 for the
		// enumeration, ε/4 per direction for tail trimming below).
		ord := n.Fanin
		var suffix []float64
		var bb *bbState
		if rc.eps > 0 {
			ord, suffix = parityOrder(res, n.Fanin)
			bb = &bbState{budget: rc.eps / 2}
		}
		if m := rc.met; m != nil {
			var leaves int64
			a.parityCombos(res, n, ord, vals, 0, 1.0, st, rise, fall, rc, &leaves, suffix, bb)
			m.SubsetLeaves.Add(len(n.Fanin), leaves)
			m.CostLeafOps.Add(leaves)
		} else {
			a.parityCombos(res, n, ord, vals, 0, 1.0, st, rise, fall, rc, nil, suffix, bb)
		}
		bb.flush(rc.met, len(n.Fanin))
		st.P[logic.Rise] = rise.Mass()
		st.P[logic.Fall] = fall.Mass()
		if a.MIS != nil {
			st.TOP[ssta.DirRise] = rise
			st.TOP[ssta.DirFall] = fall
		} else {
			d := rc.delay(n)
			st.TOP[ssta.DirRise] = applyDelayInto(rc.newTOP(), rise, d, rc.kernels)
			st.TOP[ssta.DirFall] = applyDelayInto(rc.newTOP(), fall, d, rc.kernels)
			rise.Release()
			fall.Release()
		}
		if rc.eps > 0 {
			tr := st.TOP[ssta.DirRise].TruncateTail(rc.eps / 4)
			tf := st.TOP[ssta.DirFall].TruncateTail(rc.eps / 4)
			st.P[logic.Rise] = clampProb(st.P[logic.Rise] - tr)
			st.P[logic.Fall] = clampProb(st.P[logic.Fall] - tf)
			renormParity(st)
		}
		return nil
	}
	return fmt.Errorf("core: unsupported gate %v", n.Type)
}

// parityCombos enumerates the 4^k input-value combinations of a
// parity gate (O(4^k), the paper's Section 3.3 cost), accumulating
// constant-output probabilities into st.P and transition t.o.p.
// mass into rise/fall. The settled transition time of a parity gate
// is the MAX over its switching inputs (every switch toggles the
// output; see logic.SettleOp). leaves, when non-nil, counts the
// enumerated combinations for the obs subset-leaf histogram.
//
// ord is the fanin evaluation order (n.Fanin itself on exact runs,
// a switching-probability sort under a budget). When bb is non-nil,
// suffix[i] holds the exact total occurrence weight of the subtree
// rooted at position i per unit of incoming weight (Π_{j≥i} Σ_v
// P_j[v]), and any subtree whose weight·suffix[i] fits in the
// remaining budget is cut whole.
func (a *Analyzer) parityCombos(res *Result, n *netlist.Node, ord []netlist.NodeID, vals []logic.Value, i int, weight float64, st *NetState, rise, fall *dist.PMF, rc *runCtx, leaves *int64, suffix []float64, bb *bbState) {
	if weight == 0 {
		return
	}
	if bb != nil {
		if sub := weight * suffix[i]; sub <= bb.budget {
			bb.budget -= sub
			bb.pruned += sub
			bb.cuts++
			bb.leaves += pow4(len(vals) - i)
			return
		}
	}
	if i == len(vals) {
		if leaves != nil {
			*leaves++
		}
		out, op := n.Type.SettleOp(vals)
		if !out.Switching() {
			st.P[out] += weight
			return
		}
		// Conditional MAX pdf over switching inputs; all
		// intermediates live in pooled scratch buffers.
		var acc *dist.PMF
		for j, v := range vals {
			if !v.Switching() {
				continue
			}
			in := &res.State[ord[j]]
			p := in.P[v]
			if p == 0 {
				if acc != nil {
					acc.Release()
				}
				return
			}
			cond := dist.NewScratch(rc.grid).AccumWeighted(in.TOP[dirOf(v)], 1/p)
			if acc == nil {
				acc = cond
			} else {
				next := dist.NewScratch(rc.grid)
				if op == logic.OpMax {
					dist.MaxPMFInto(next, acc, cond)
				} else {
					dist.MinPMFInto(next, acc, cond)
				}
				acc.Release()
				cond.Release()
				acc = next
			}
		}
		if acc == nil {
			return
		}
		if a.MIS != nil {
			k := 0
			for _, v := range vals {
				if v.Switching() {
					k++
				}
			}
			next := applyDelayInto(dist.NewScratch(rc.grid), acc, a.MIS(n, k), rc.kernels)
			acc.Release()
			acc = next
		}
		if out == logic.Rise {
			rise.AccumWeighted(acc, weight)
		} else {
			fall.AccumWeighted(acc, weight)
		}
		acc.Release()
		return
	}
	in := &res.State[ord[i]]
	for v := logic.Zero; v < logic.NumValues; v++ {
		vals[i] = v
		a.parityCombos(res, n, ord, vals, i+1, weight*in.P[v], st, rise, fall, rc, leaves, suffix, bb)
	}
}

// applyDelayInto writes top shifted (deterministic delay) or
// convolved (variational delay, kernel from the shared cache) into
// dst and returns dst. top is read-only, so callers can pass a fanin
// t.o.p. or a cached kernel without cloning.
func applyDelayInto(dst, top *dist.PMF, d dist.Normal, kc *dist.KernelCache) *dist.PMF {
	if d.Sigma == 0 {
		if d.Mu == 0 {
			return dst.CopyFrom(top)
		}
		return top.ShiftInto(dst, d.Mu)
	}
	return top.ConvolveInto(dst, kc.FromNormal(d))
}

func dirOf(v logic.Value) ssta.Dir {
	if v == logic.Rise {
		return ssta.DirRise
	}
	return ssta.DirFall
}

func boolVal(b bool) logic.Value {
	if b {
		return logic.One
	}
	return logic.Zero
}

func allBool(n int, v bool) []bool {
	s := make([]bool, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Probability returns P(net id has value v).
func (r *Result) Probability(id netlist.NodeID, v logic.Value) float64 {
	return r.State[id].P[v]
}

// SignalProbability returns the time-averaged one-probability
// P1 + (Pr+Pf)/2 of net id.
func (r *Result) SignalProbability(id netlist.NodeID) float64 {
	s := &r.State[id]
	return s.P[logic.One] + (s.P[logic.Rise]+s.P[logic.Fall])/2
}

// TogglingRate returns Pr + Pf of net id.
func (r *Result) TogglingRate(id netlist.NodeID) float64 {
	s := &r.State[id]
	return s.P[logic.Rise] + s.P[logic.Fall]
}

// TOP returns the unnormalized t.o.p. function of direction d at
// net id.
func (r *Result) TOP(id netlist.NodeID, d ssta.Dir) *dist.PMF { return r.State[id].TOP[d] }

// Arrival returns the conditional arrival-time distribution
// (normalized t.o.p.) moments of direction d at net id, and the
// transition occurrence probability.
func (r *Result) Arrival(id netlist.NodeID, d ssta.Dir) (mean, sigma, prob float64) {
	top := r.State[id].TOP[d]
	return top.Mean(), top.Sigma(), top.Mass()
}
