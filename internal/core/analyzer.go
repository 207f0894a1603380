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
	// independence approximation. The pair-BDDs are bounded by the
	// bdd package's default node limit (4M nodes).
	ExactProbabilities bool
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
	// ErrorBudget is the per-net ε for adaptive pruning (DESIGN.md
	// §11): each net may spend at most this much occurrence mass on
	// subset branch-and-bound cuts, negligible-switcher absorption,
	// t.o.p. tail truncation and delay-kernel tail folding combined.
	// Removed mass is folded back into the four-value probabilities
	// (they still sum to 1; folded kernel mass is moved, not removed)
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
	// Coarsen configures depth-adaptive grid coarsening (DESIGN.md
	// §15): under CoarsenAuto, at every level boundary where the
	// finished level's widest t.o.p. support exceeds 96 bins, the
	// stored t.o.p. functions are re-binned onto a 2×-coarser grid
	// with a certified deviation bound folded into each net's Budget.
	// The zero value (CoarsenOff) keeps the whole analysis on one
	// grid, bit-identical to the single-resolution engine.
	Coarsen CoarsenPolicy
}

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
	// (Update) keeps hitting the cache built by Run.
	kernels *dist.KernelCache
	// scratch holds the per-worker scratch stacks of the last Update,
	// so the next one reuses their grid-sized PMFs.
	scratch []scratch
}

// Kernels returns the delay-kernel cache that Run built and that
// Update keeps using.
func (r *Result) Kernels() *dist.KernelCache { return r.kernels }

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
	// coarsen is the run's grid-coarsening policy.
	coarsen CoarsenPolicy
	// workers holds each scheduler worker's slab and scratch stack.
	workers []worker
	// met is the registry of the current Run or Update, the one every
	// kernel of the propagation charges; nil disables the counters.
	met *obs.Metrics
}

// newRunCtx resolves the analyzer's configuration for propagating
// over res on its current grid and kernel cache, with slab chunks of
// chunk bins (see newWorkers).
func (a *Analyzer) newRunCtx(res *Result, chunk int) *runCtx {
	rc := &runCtx{
		grid: res.Grid, delay: a.Delay, maxParity: a.MaxParityFanin, kernels: res.kernels,
		eps:     a.ErrorBudget,
		certify: a.ErrorBudget > 0 || a.Coarsen.Mode != CoarsenOff,
		coarsen: a.Coarsen,
		met:     a.Obs.M(),
	}
	if rc.delay == nil {
		rc.delay = ssta.UnitDelay
	}
	if rc.maxParity == 0 {
		rc.maxParity = DefaultMaxParityFanin
	}
	rc.workers = newWorkers(resolveWorkers(a.Workers), res.Grid, chunk)
	if rc.eps > 0 {
		rc.empty = rc.workers[0].slab.Empty(res.Grid)
	}
	return rc
}

// expectRows sizes the workers' next slab chunks at a level boundary:
// the remaining nodes are expected to store as many bins per node as
// the done nodes, evaluated on the current grid, did since it took
// effect (an underestimate as supports widen with depth;
// the next boundary corrects it), spread evenly over the workers.
// Sizing a chunk by the stored rows keeps the slab close to their
// footprint while carving most of a run's rows from a few early
// allocations.
func (rc *runCtx) expectRows(done, remaining int, since int64) {
	var per int64
	if done > 0 {
		per = (rc.slabUsed() - since) * int64(remaining) / int64(done) / int64(len(rc.workers))
	}
	for _, w := range rc.workers {
		w.slab.Expect(per)
	}
}

// slabUsed returns the bins the workers have carved into rows.
func (rc *runCtx) slabUsed() int64 {
	var b int64
	for _, w := range rc.workers {
		b += w.slab.Used()
	}
	return b
}

// slabBytes returns the bytes of stored-row storage the run's workers
// allocated.
func (rc *runCtx) slabBytes() int64 {
	var b int64
	for _, w := range rc.workers {
		b += w.slab.Bytes()
	}
	return b
}

// GridFor returns the grid Run analyzes c on with these launch
// statistics: a.Grid when set, else dist.TimingGrid for the circuit
// depth and the widest launch arrival sigma, at least 1. An
// incremental session checks its launch edits against it, since an
// edit that moves it cannot be re-timed on the session's grid.
func (a *Analyzer) GridFor(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats) dist.Grid {
	if a.Grid.N != 0 {
		return a.Grid
	}
	return dist.TimingGrid(c.Depth(), 0, LaunchSigma(inputs))
}

// LaunchSigma is the launch arrival sigma GridFor sizes its default
// grid for: the widest in inputs, at least 1.
func LaunchSigma(inputs map[netlist.NodeID]logic.InputStats) float64 {
	sigma := 1.0
	for _, st := range inputs {
		if st.Sigma > sigma {
			sigma = st.Sigma
		}
	}
	return sigma
}

// Run executes SPSTA over the circuit. inputs maps launch points to
// their cycle statistics (default: the paper's scenario I).
func (a *Analyzer) Run(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats) (*Result, error) {
	if err := a.Coarsen.Validate(); err != nil {
		return nil, err
	}
	grid := a.GridFor(c, inputs)
	for id, st := range inputs {
		if err := st.Validate(); err != nil {
			return nil, fmt.Errorf("core: launch %s: %w", c.Nodes[id].Name, err)
		}
	}

	var exact [][logic.NumValues]float64
	if a.ExactProbabilities {
		ps, err := power.BuildPairSymbolic(c, 0)
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
		kernels: dist.NewKernelCache(),
	}
	rc := a.newRunCtx(res, runChunk*grid.N)
	node := func(w int, id netlist.NodeID) error {
		if err := a.computeNode(res, id, inputs, rc, w); err != nil {
			return err
		}
		if nodeDone != nil {
			nodeDone(&rc.workers[w])
		}
		if exact != nil {
			correctToExact(&res.State[id], exact[id])
		}
		return nil
	}
	// Level boundaries record the grid each level ran on and apply
	// the coarsening policy (never after the last level), on the
	// scheduling goroutine while no worker runs.
	levels := c.Levelize()
	// The slab estimate runs over the nodes evaluated on the current
	// grid: since is the bins carved before it, done the nodes after.
	done, remaining, since := 0, len(c.Nodes), int64(0)
	boundary := func(li int, level []netlist.NodeID) {
		if m := rc.met; m != nil {
			m.GridBinsPerLevel.Observe(rc.grid.N)
		}
		remaining -= len(level)
		if li < len(levels)-1 {
			done += len(level)
			if rc.maybeCoarsen(res, level) {
				done, since = 0, rc.slabUsed()
			}
			rc.expectRows(done, remaining, since)
		}
	}
	if err := a.propagate(res, levels, node, boundary); err != nil {
		return nil, err
	}
	if m := rc.met; m != nil {
		obs.ObserveMax(&m.SlabBytesPeak, rc.slabBytes())
	}
	return res, nil
}

// Update re-times res in place after the launch statistics or the
// delay of net seed changed (inputs and a.Delay already carry the new
// values) and returns the number of nets recomputed: seed, then
// exactly the combinational nets with a fanin whose state changed,
// level by level on Run's scheduler. A recomputed net whose state
// comes out unchanged keeps its stored state, so the result is
// bit-identical to a full Run. Work and spans record into a.Obs. res
// must come from Run of the same circuit; the ExactProbabilities
// correction and grid coarsening are whole-circuit steps Update does
// not replay. Recomputed t.o.p. functions are stored in rows of their
// own, so replacing one never pins another run's chunk.
func (a *Analyzer) Update(res *Result, inputs map[netlist.NodeID]logic.InputStats, seed netlist.NodeID) (int, error) {
	c := res.C
	rc := a.newRunCtx(res, 0)
	if len(res.scratch) == len(rc.workers) && res.scratch[0].grid == rc.grid {
		// The stacks are empty after every node; they are kept unless
		// res.Grid moved since they were built.
		for i := range rc.workers {
			rc.workers[i].scr = res.scratch[i]
		}
	}
	defer func() {
		res.scratch = res.scratch[:0]
		for _, w := range rc.workers {
			res.scratch = append(res.scratch, w.scr)
		}
	}()
	levels := make([][]netlist.NodeID, c.Depth()+1)
	levels[c.Nodes[seed].Level] = []netlist.NodeID{seed}
	// A node's evaluation writes only its own changed slot; queued is
	// touched only by the boundary hook on the scheduling goroutine.
	changed := make([]bool, len(c.Nodes))
	queued := make([]bool, len(c.Nodes))
	node := func(w int, id netlist.NodeID) error {
		prev := res.State[id]
		if err := a.computeNode(res, id, inputs, rc, w); err != nil {
			return err
		}
		if sameState(&prev, &res.State[id]) {
			// Keep the stored state itself, t.o.p. storage included.
			res.State[id] = prev
		} else {
			changed[id] = true
		}
		return nil
	}
	evals := 0
	boundary := func(_ int, level []netlist.NodeID) {
		evals += len(level)
		for _, id := range level {
			if !changed[id] {
				continue
			}
			for _, out := range c.Nodes[id].Fanout {
				if o := c.Nodes[out]; o.Type.Combinational() && !queued[out] {
					queued[out] = true
					levels[o.Level] = append(levels[o.Level], out)
				}
			}
		}
	}
	err := a.propagate(res, levels, node, boundary)
	return evals, err
}

// sameState reports whether two states of one net are equal value
// for value. The pruning certificate is part of the state: a stale
// consumed budget could under-report the certified deviation of a
// cone whose fanins re-spent their budgets differently, so budget
// changes propagate like value changes.
func sameState(a, b *NetState) bool {
	if a.P != b.P || a.PrunedMass != b.PrunedMass || a.Budget != b.Budget {
		return false
	}
	for d := range a.TOP {
		pa, pb := a.TOP[d], b.TOP[d]
		if (pa == nil) != (pb == nil) {
			return false
		}
		if pa == nil {
			continue
		}
		for i := 0; i < pa.Grid().N; i++ {
			if pa.W(i) != pb.W(i) {
				return false
			}
		}
	}
	return true
}

// propagate evaluates node over levels on the level scheduler with
// the analyzer's workers and scope; Run and Update share it.
func (a *Analyzer) propagate(res *Result, levels [][]netlist.NodeID,
	node func(int, netlist.NodeID) error, boundary func(int, []netlist.NodeID)) error {
	name := func(id netlist.NodeID) string { return res.C.Nodes[id].Name }
	return runLevels(a.Obs.M(), a.Obs.T(), a.Obs.SpanID(), resolveWorkers(a.Workers), levels, name, node, boundary)
}

// nodeDone, when set, runs on the evaluating worker after every node
// of a Run, with that worker's storage. It is a test seam: tests set it
// to inspect the scratch stack between nodes; it is nil otherwise.
var nodeDone func(*worker)

// computeNode evaluates net id on worker w, storing its t.o.p.
// functions in the worker's slab, and leaves the worker's scratch
// stack empty.
func (a *Analyzer) computeNode(res *Result, id netlist.NodeID, inputs map[netlist.NodeID]logic.InputStats, rc *runCtx, w int) error {
	n := res.C.Nodes[id]
	st := &res.State[id]
	ws := &rc.workers[w]
	defer ws.scr.free(0)
	switch {
	case n.Type == logic.Const0:
		*st = NetState{}
		st.P[logic.Zero] = 1
		st.TOP[ssta.DirRise] = ws.slab.Empty(rc.grid)
		st.TOP[ssta.DirFall] = ws.slab.Empty(rc.grid)
	case n.Type == logic.Const1:
		*st = NetState{}
		st.P[logic.One] = 1
		st.TOP[ssta.DirRise] = ws.slab.Empty(rc.grid)
		st.TOP[ssta.DirFall] = ws.slab.Empty(rc.grid)
	case !n.Type.Combinational():
		in, ok := inputs[id]
		if !ok {
			in = logic.UniformStats()
		}
		*st = NetState{}
		st.P = in.P
		// The cached launch kernel is shared and read-only; each
		// direction scales it into its own stored t.o.p.
		arr, _ := rc.kernels.FromNormal(rc.met, rc.grid, dist.Normal{Mu: in.Mu, Sigma: in.Sigma}, 0)
		var tr, tf float64
		st.TOP[ssta.DirRise], tr = trimStored(rc.met, ws.slab.StoreScaled(arr, in.P[logic.Rise]), rc.eps/2)
		st.TOP[ssta.DirFall], tf = trimStored(rc.met, ws.slab.StoreScaled(arr, in.P[logic.Fall]), rc.eps/2)
		foldTrim(st, tr, tf)
	default:
		*st = NetState{}
		if err := a.gate(res, n, rc, ws); err != nil {
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
// and t.o.p. functions from its fanin states on worker ws.
// Intermediate mixtures live on the worker's scratch stack; only the
// two stored t.o.p. functions take slab rows, and a whole-bin
// deterministic delay writes the mixtures straight into them.
func (a *Analyzer) gate(res *Result, n *netlist.Node, rc *runCtx, ws *worker) error {
	st := &res.State[n.ID]

	switch {
	case n.Type == logic.Buf || n.Type == logic.Not:
		in := &res.State[n.Fanin[0]]
		var rise, fall *dist.PMF
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
		var tr, tf float64
		st.TOP[ssta.DirRise], tr = ws.storeDelayed(rc, st, rise, d, rc.eps/2)
		st.TOP[ssta.DirFall], tf = ws.storeDelayed(rc, st, fall, d, rc.eps/2)
		foldTrim(st, tr, tf)
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
		// Each stored direction is trimmed with budget ε/4 (see below).
		var ncdTOP, cdTOP *dist.PMF
		var pNCDSwitch, pCDSwitch, ncdTrim, cdTrim float64
		if a.MIS != nil {
			// MIS falls back to subset enumeration, so the ε budget is
			// spent on branch-and-bound cuts (ε/4 per mixture; exact
			// when eps is 0). SizedMixturePruned already applies the
			// per-size delay.
			misDelay := func(size int) dist.Normal { return a.MIS(n, size) }
			ncd, p1 := dist.SizedMixturePruned(rc.met, rc.grid, ncdIn, true, misDelay, rc.eps/4)
			cd, p2 := dist.SizedMixturePruned(rc.met, rc.grid, cdIn, false, misDelay, rc.eps/4)
			st.PrunedMass += p1 + p2
			pNCDSwitch, pCDSwitch = ncd.Mass(), cd.Mass()
			ncdTOP, ncdTrim = ws.keep(rc.met, ncd, rc.eps/4)
			cdTOP, cdTrim = ws.keep(rc.met, cd, rc.eps/4)
		} else {
			if rc.eps > 0 {
				// Negligible-switcher absorption (ε/4 per mixture):
				// the closed-form kernels then iterate a narrower
				// union support. The residual probability bucket
				// below absorbs the displaced mass.
				st.PrunedMass += absorbNegligible(ncdIn, ncdMass, rc.eps/4, rc.empty, rc.met)
				st.PrunedMass += absorbNegligible(cdIn, cdMass, rc.eps/4, rc.empty, rc.met)
			}
			d := rc.delay(n)
			ncdTOP, pNCDSwitch, ncdTrim = ws.storeMixture(rc, st, ncdIn, true, d, rc.eps/4)
			cdTOP, pCDSwitch, cdTrim = ws.storeMixture(rc, st, cdIn, false, d, rc.eps/4)
		}
		// The output with every input at its non-controlling value
		// (the non-controlled value) decides which mixture is rising.
		ncdOut := nonControlledOutput(n.Type, ctrl)
		tr, tf := ncdTrim, cdTrim
		if ncdOut {
			st.TOP[ssta.DirRise], st.TOP[ssta.DirFall] = ncdTOP, cdTOP
			st.P[logic.Rise], st.P[logic.Fall] = pNCDSwitch, pCDSwitch
		} else {
			st.TOP[ssta.DirRise], st.TOP[ssta.DirFall] = cdTOP, ncdTOP
			st.P[logic.Rise], st.P[logic.Fall] = pCDSwitch, pNCDSwitch
			tr, tf = cdTrim, ncdTrim
		}
		st.P[boolVal(ncdOut)] = pNCD
		st.P[boolVal(!ncdOut)] = clampProb(1 - pNCD - st.P[logic.Rise] - st.P[logic.Fall])
		if rc.eps > 0 {
			// The stored tails were trimmed (ε/4 per direction): deduct
			// the trimmed mass from the transition probabilities (set
			// from the mixture masses above; the delay shift preserves
			// mass); the controlled-value residual bucket absorbs the
			// trimmed and pruned mass so the four probabilities sum to 1.
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
		sc := &ws.scr
		rise, fall := sc.get(), sc.get()
		vals := sc.parityVals(len(n.Fanin))
		sc.parityConds(len(n.Fanin))
		// With a budget, fanins are reordered by ascending switching
		// probability so low-weight subtrees sit near the enumeration
		// root, and whole subtrees are cut when their exact remaining
		// occurrence weight fits in the budget (ε/2 for the
		// enumeration, ε/4 per direction for tail trimming below).
		ord := n.Fanin
		var suffix []float64
		var bb *bbState
		if rc.eps > 0 {
			ord, suffix = parityOrder(res, n.Fanin, sc)
			bb = &bbState{budget: rc.eps / 2}
		}
		if m := rc.met; m != nil {
			var leaves int64
			a.parityCombos(res, n, ord, vals, 0, 1.0, st, rise, fall, rc, sc, &leaves, suffix, bb)
			m.SubsetLeaves.Add(len(n.Fanin), leaves)
			m.CostLeafOps.Add(leaves)
		} else {
			a.parityCombos(res, n, ord, vals, 0, 1.0, st, rise, fall, rc, sc, nil, suffix, bb)
		}
		bb.flush(rc.met, len(n.Fanin))
		st.P[logic.Rise] = rise.Mass()
		st.P[logic.Fall] = fall.Mass()
		// Both directions are stored with their tails trimmed (ε/4
		// each).
		var tr, tf float64
		if a.MIS != nil {
			// parityCombos applied the per-combo MIS delay.
			st.TOP[ssta.DirRise], tr = ws.keep(rc.met, rise, rc.eps/4)
			st.TOP[ssta.DirFall], tf = ws.keep(rc.met, fall, rc.eps/4)
		} else {
			d := rc.delay(n)
			st.TOP[ssta.DirRise], tr = ws.storeDelayed(rc, st, rise, d, rc.eps/4)
			st.TOP[ssta.DirFall], tf = ws.storeDelayed(rc, st, fall, d, rc.eps/4)
		}
		if rc.eps > 0 {
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
// enumerated combinations for the obs subset-leaf histogram. The
// conditional pdf of fanin position j switching in direction d,
// in.TOP[d]/P, is built by the first leaf that needs it into
// sc.conds[2j+d], below every leaf's mark, and read by every later
// one: 0 + w·x is w·x, so it is the same conditional a leaf would
// build. Each leaf's MAX/MIN combinations and delayed pdf live on the
// stack above the leaf's mark and are freed when the leaf is done.
//
// ord is the fanin evaluation order (n.Fanin itself on exact runs,
// a switching-probability sort under a budget). When bb is non-nil,
// suffix[i] holds the exact total occurrence weight of the subtree
// rooted at position i per unit of incoming weight (Π_{j≥i} Σ_v
// P_j[v]), and any subtree whose weight·suffix[i] fits in the
// remaining budget is cut whole.
func (a *Analyzer) parityCombos(res *Result, n *netlist.Node, ord []netlist.NodeID, vals []logic.Value, i int, weight float64, st *NetState, rise, fall *dist.PMF, rc *runCtx, sc *scratch, leaves *int64, suffix []float64, bb *bbState) {
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
		// Conditional MAX pdf over switching inputs.
		mark := sc.mark()
		defer sc.free(mark)
		var acc *dist.PMF
		for j, v := range vals {
			if !v.Switching() {
				continue
			}
			in := &res.State[ord[j]]
			p := in.P[v]
			if p == 0 {
				return
			}
			d := dirOf(v)
			cond := sc.conds[2*j+int(d)]
			if lo, hi := cond.Support(); lo == hi {
				// Not built yet (or built from an empty t.o.p., which
				// rebuilding leaves empty).
				cond.AccumWeighted(in.TOP[d], 1/p)
			}
			if acc == nil {
				acc = cond
			} else {
				next := sc.get()
				if op == logic.OpMax {
					dist.MaxPMFInto(rc.met, next, acc, cond)
				} else {
					dist.MinPMFInto(rc.met, next, acc, cond)
				}
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
			acc = applyDelayInto(rc, sc.get(), acc, a.MIS(n, k))
		}
		if out == logic.Rise {
			rise.AccumWeighted(acc, weight)
		} else {
			fall.AccumWeighted(acc, weight)
		}
		return
	}
	in := &res.State[ord[i]]
	for v := logic.Zero; v < logic.NumValues; v++ {
		vals[i] = v
		a.parityCombos(res, n, ord, vals, i+1, weight*in.P[v], st, rise, fall, rc, sc, leaves, suffix, bb)
	}
}

// applyDelayInto writes top shifted (deterministic delay) or
// convolved (variational delay, the full kernel from the run's cache)
// into dst, charging the run's registry, and returns dst. top is
// read-only, so callers can pass a fanin t.o.p. or a cached kernel
// without cloning.
func applyDelayInto(rc *runCtx, dst, top *dist.PMF, d dist.Normal) *dist.PMF {
	if d.Sigma == 0 {
		if d.Mu == 0 {
			return dst.CopyFrom(top)
		}
		return top.ShiftInto(rc.met, dst, d.Mu)
	}
	k, _ := rc.kernels.FromNormal(rc.met, rc.grid, d, 0)
	return top.ConvolveInto(rc.met, dst, k)
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

// nonControlledOutput returns a monotone gate's output when every
// input holds the non-controlling value !ctrl: the gate's AND/OR core
// passes !ctrl through, and an inverting gate complements it.
func nonControlledOutput(t logic.GateType, ctrl bool) bool { return !ctrl != t.Inverting() }

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
