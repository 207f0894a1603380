// The batched level scheduler: instead of walking a topological level
// gate by gate through computeNode, every batchable net of the level
// is decomposed into three flat passes over struct-of-arrays storage —
//
//	M  mixtures: build each gate's switching-input lists, run the
//	   closed-form MAX/MIN mixtures into adjacent slab rows, and
//	   settle the four-value probabilities;
//	D  delays: group the nets by delay kernel and shift or convolve
//	   every row of a group with the shared (cached) kernel in one
//	   tight table-driven batch (dist.ConvPlan);
//	T  trims: per-net ε tail truncation, certificate accounting and
//	   the exact-probability correction.
//
// Nets the flat passes cannot express — launch points, constants,
// parity gates, and monotone gates under a MIS model — fall back to
// computeNode inside the same level, so the batch path accepts every
// circuit the serial path does.
//
// The float64 batch path is bit-identical to the serial scheduler:
// phases reorder whole-net steps, never the arithmetic inside a net,
// and both schedulers convolve with the same kernel
// (dist.ConvPlan.ConvolveInto).
// On an F32-precision grid the slab additionally quantizes every
// staged and stored row to float32 (see DESIGN.md §13 for the error
// model).
package core

import (
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ssta"
)

// BatchMode selects the level scheduler of Analyzer.Run.
type BatchMode int

const (
	// BatchAuto (the zero value) runs the batched scheduler — the
	// default since it is bit-identical on float64 grids and strictly
	// faster.
	BatchAuto BatchMode = iota
	// BatchOn forces the batched scheduler (same as BatchAuto today;
	// the distinct value keeps "explicitly requested" observable).
	BatchOn
	// BatchOff restores the per-gate serial scheduler — the escape
	// hatch behind -batched=false in the CLIs.
	BatchOff
)

// On reports whether the mode selects the batched scheduler.
func (m BatchMode) On() bool { return m != BatchOff }

// batchRec is the per-net staging record of one level: what phase M
// leaves behind for phases D and T. rise/fall point at the net's
// pre-delay t.o.p. sources — slab rows for mixture outputs (and F32
// staging copies), fanin-owned t.o.p. functions for Buf/Not.
type batchRec struct {
	id     netlist.NodeID
	buf    bool // Buf/Not (probabilities copied, no mixture)
	ncdOut bool
	pNCD   float64
	d      dist.Normal
	rise   *dist.PMF
	fall   *dist.PMF
	// riseRow/fallRow name the slab rows backing rise/fall, or -1
	// when they are fanin t.o.p. pointers (F64 Buf/Not).
	riseRow, fallRow int
}

// batchExec carries the reusable storage of one batched run.
type batchExec struct {
	a      *Analyzer
	rc     *runCtx
	res    *Result
	inputs map[netlist.NodeID]logic.InputStats
	exact  [][logic.NumValues]float64

	slab *dist.Slab
	plan *dist.ConvPlan
	recs []batchRec

	// Per-level scratch, reused across levels.
	batch    []int // level indices of batchable nets (rec index order)
	fallback []netlist.NodeID
	groups   []delayGroup
	groupIx  map[dist.Normal]int
	srcs     []*dist.PMF
	dsts     []*dist.PMF
	rows     []int
	k32      []float32
	errs     []error
}

// delayGroup is one shared delay kernel and the recs it applies to.
type delayGroup struct {
	d    dist.Normal
	recs []int
}

// batchable reports whether computeNode's work for node n can be
// expressed by the flat phases: combinational Buf/Not always, other
// monotone gates unless a MIS model replaces the shared delay.
func (a *Analyzer) batchable(n *netlist.Node) bool {
	if !n.Type.Combinational() {
		return false
	}
	switch {
	case n.Type == logic.Buf || n.Type == logic.Not:
		return true
	case n.Type.Monotone():
		return a.MIS == nil
	}
	return false
}

// runBatched is the batched counterpart of the runLevels call in Run:
// same level barriers, same cost-aware inline fallback for small
// levels, same first-error-in-level-order contract.
func (a *Analyzer) runBatched(res *Result, c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats,
	rc *runCtx, exact [][logic.NumValues]float64, workers int, cost func(netlist.NodeID) int64, serialBelow int64) error {
	levels := c.Levelize()
	m, tr := rc.met, a.Obs.T()
	parent := a.Obs.SpanID()
	instr := m != nil || tr != nil
	if workers > 1 && serialBelow >= 0 && runtime.GOMAXPROCS(0) == 1 {
		// One P: fanning out cannot overlap work, only add context
		// switches (same rule as runLevels).
		serialBelow = math.MaxInt64
	}

	maxBatch := 0
	for _, level := range levels {
		nb := 0
		for _, id := range level {
			if a.batchable(c.Nodes[id]) {
				nb++
			}
		}
		if nb > maxBatch {
			maxBatch = nb
		}
	}
	bx := &batchExec{
		a: a, rc: rc, res: res, inputs: inputs, exact: exact,
		groupIx: make(map[dist.Normal]int),
	}
	if maxBatch > 0 {
		bx.slab = dist.NewSlab(rc.grid, 2*maxBatch)
		bx.recs = make([]batchRec, maxBatch)
		defer func() {
			bx.slab.Recycle()
			bx.slab = nil
		}()
	}

	for li, level := range levels {
		lw := workers
		if lw > 1 && serialBelow >= 0 && levelCost(level, cost) < serialBelow {
			lw = 1
		}
		var lt0 time.Time
		var lid obs.SpanID
		var cost0 int64
		if instr {
			lt0 = time.Now()
			lid = tr.NewSpan()
			cost0 = m.CostUnits()
		}
		if m != nil {
			m.GridBinsPerLevel.Observe(rc.grid.N)
		}
		if err := bx.runLevel(level, lw, tr, lid); err != nil {
			return err
		}
		if instr {
			if m != nil && lw <= 1 {
				m.AddWorkerChunk(0, len(level), int64(time.Since(lt0)))
			}
			recordLevel(m, tr, parent, lid, li, len(level), lt0, m.CostUnits()-cost0)
		}
		// Level boundary: the coarsening policy may re-bin every stored
		// t.o.p. onto a coarser grid (all workers have hit the barrier;
		// slab rows are dead between levels, so the staging slab is
		// simply swapped for a coarse one).
		if li < len(levels)-1 && rc.maybeCoarsen(res, level) && bx.slab != nil {
			bx.slab.Recycle()
			bx.slab = dist.NewSlab(rc.grid, 2*maxBatch)
		}
	}
	return nil
}

// runLevel executes one level: fallback nets through computeNode,
// batchable nets through the M/D/T phases. lid is the level span's
// pre-allocated ID; the fallback pass and the combined batch phases
// each record one child span under it (coarse-tracer friendly — the
// span count stays O(levels), never O(gates)).
func (bx *batchExec) runLevel(level []netlist.NodeID, workers int, tr *obs.Tracer, lid obs.SpanID) error {
	c, m := bx.res.C, bx.rc.met
	bx.batch = bx.batch[:0]
	bx.fallback = bx.fallback[:0]
	for _, id := range level {
		if bx.a.batchable(c.Nodes[id]) {
			bx.batch = append(bx.batch, len(bx.batch))
			bx.recs[len(bx.batch)-1].id = id
		} else {
			bx.fallback = append(bx.fallback, id)
		}
	}
	if m != nil {
		m.BatchNets.Observe(len(bx.batch))
	}

	// A dispatched level evaluates every node even after a failure, so
	// the returned error is deterministically the first one in level
	// order (same contract as runLevels). Only fallback nets can fail —
	// batchable nets exclude parity caps and MIS — so the batch phases
	// run regardless and the fallback error is returned afterwards.
	var ferr error
	if len(bx.fallback) > 0 {
		var f0 time.Time
		if tr != nil {
			f0 = time.Now()
		}
		ferr = bx.runFallback(workers)
		if tr != nil {
			tr.RecordSpan(tr.NewSpan(), lid, "fallback ("+strconv.Itoa(len(bx.fallback))+" nets)",
				"phase", 0, f0, time.Since(f0), nil)
		}
	}
	if len(bx.batch) == 0 {
		return ferr
	}
	var b0 time.Time
	if tr != nil {
		b0 = time.Now()
	}

	// Phase M: switching-input lists, mixtures into slab rows, and
	// four-value probabilities. Per-net work is independent (disjoint
	// State slots, disjoint slab rows), so any chunking is exact. Each
	// batch net is counted as a gate here (once per net, like the
	// serial scheduler); phases D and T only add busy time.
	parallelChunks(workers, len(bx.batch), m, true, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			bx.phaseM(&bx.recs[bi], bi)
		}
	})

	// Phase D: group by delay kernel in first-seen rec order, then
	// shift or convolve each group's rows in batch.
	bx.buildGroups()
	for gi := range bx.groups {
		bx.runGroup(&bx.groups[gi], workers)
	}

	// Phase T: ε trims, certificates and the exact correction, in
	// level order (cheap scalar work; serial keeps it simple). The
	// certificate sums run whenever the run certifies — including
	// ε=0 coarsened runs, where only re-binning deviations flow.
	if bx.rc.certify || bx.exact != nil {
		for _, bi := range bx.batch {
			bx.phaseT(&bx.recs[bi])
		}
	}
	if m != nil {
		for _, bi := range bx.batch {
			recordSupportPeak(m, &bx.res.State[bx.recs[bi].id])
		}
	}

	if tr != nil {
		tr.RecordSpan(tr.NewSpan(), lid, "batch ("+strconv.Itoa(len(bx.batch))+" nets)",
			"phase", 0, b0, time.Since(b0), nil)
	}
	bx.slab.ResetRows(2 * len(bx.batch))
	return ferr
}

// runFallback evaluates the level's non-batchable nets through
// computeNode, returning the first error in level order (workers
// write disjoint error slots, mirroring the runLevels contract).
func (bx *batchExec) runFallback(workers int) error {
	ids := bx.fallback
	if cap(bx.errs) < len(ids) {
		bx.errs = make([]error, len(ids))
	}
	errs := bx.errs[:len(ids)]
	parallelChunks(workers, len(ids), bx.rc.met, true, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			id := ids[i]
			err := bx.a.computeNode(bx.res, id, bx.inputs, bx.rc)
			if err == nil && bx.exact != nil {
				correctToExact(&bx.res.State[id], bx.exact[id])
			}
			errs[i] = err
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// phaseM stages net bi of the batch: mixtures into slab rows 2bi and
// 2bi+1 (monotone gates), probability bookkeeping, and the delay for
// phase D. The arithmetic is the serial gate() path verbatim — only
// the destination of the mixtures (slab row vs pooled scratch) and
// the point in time of the delay application differ.
func (bx *batchExec) phaseM(rec *batchRec, bi int) {
	res, rc := bx.res, bx.rc
	n := res.C.Nodes[rec.id]
	st := &res.State[rec.id]
	*st = NetState{}
	rec.riseRow, rec.fallRow = -1, -1
	rec.d = rc.delay(n)
	f32 := rc.grid.Precision == dist.F32

	if n.Type == logic.Buf || n.Type == logic.Not {
		rec.buf = true
		in := &res.State[n.Fanin[0]]
		if n.Type == logic.Buf {
			st.P = in.P
			rec.rise = in.TOP[ssta.DirRise]
			rec.fall = in.TOP[ssta.DirFall]
		} else {
			st.P[logic.Zero] = in.P[logic.One]
			st.P[logic.One] = in.P[logic.Zero]
			st.P[logic.Rise] = in.P[logic.Fall]
			st.P[logic.Fall] = in.P[logic.Rise]
			rec.rise = in.TOP[ssta.DirFall]
			rec.fall = in.TOP[ssta.DirRise]
		}
		if f32 && rec.d.Sigma != 0 {
			// Stage quantized copies so the packed convolution loop
			// can stream the float32 mirror.
			rec.riseRow, rec.fallRow = 2*bi, 2*bi+1
			bx.slab.Row(rec.riseRow).CopyFrom(rec.rise)
			bx.slab.Row(rec.fallRow).CopyFrom(rec.fall)
			bx.slab.Quantize(rec.riseRow)
			bx.slab.Quantize(rec.fallRow)
			rec.rise = bx.slab.Row(rec.riseRow)
			rec.fall = bx.slab.Row(rec.fallRow)
		}
		return
	}

	rec.buf = false
	ctrl, _ := n.Type.Controlling()
	ncVal := logic.Zero
	towardNC, towardCtrl := logic.Fall, logic.Rise
	if !ctrl {
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
	pNCD := 1.0
	for _, f := range n.Fanin {
		in := &res.State[f]
		stay := in.P[ncVal]
		pNCD *= stay
		ncdIn = append(ncdIn, dist.SwitchInput{Stay: stay, TOP: in.TOP[dirOf(towardNC)]})
		cdIn = append(cdIn, dist.SwitchInput{Stay: stay, TOP: in.TOP[dirOf(towardCtrl)]})
		ncdMass = append(ncdMass, in.P[towardNC])
		cdMass = append(cdMass, in.P[towardCtrl])
	}
	if rc.eps > 0 {
		st.PrunedMass += absorbNegligible(ncdIn, ncdMass, rc.eps/4, rc.empty, rc.met)
		st.PrunedMass += absorbNegligible(cdIn, cdMass, rc.eps/4, rc.empty, rc.met)
	}
	rec.riseRow, rec.fallRow = 2*bi, 2*bi+1
	ncdTOP, cdTOP := bx.slab.Row(2*bi), bx.slab.Row(2*bi+1)
	jobs := [2]dist.MixtureJob{
		{Dst: ncdTOP, In: ncdIn},
		{Dst: cdTOP, In: cdIn, Min: true},
	}
	dist.MixtureBatch(jobs[:])
	if f32 {
		bx.slab.Quantize(2 * bi)
		bx.slab.Quantize(2*bi + 1)
	}
	rec.ncdOut = n.Type.EvalBool(allBool(k, !ctrl))
	if rec.ncdOut {
		rec.rise, rec.fall = ncdTOP, cdTOP
	} else {
		rec.rise, rec.fall = cdTOP, ncdTOP
		rec.riseRow, rec.fallRow = rec.fallRow, rec.riseRow
	}
	rec.pNCD = pNCD
	st.P[boolVal(rec.ncdOut)] = pNCD
	st.P[logic.Rise] = rec.rise.Mass()
	st.P[logic.Fall] = rec.fall.Mass()
	st.P[boolVal(!rec.ncdOut)] = clampProb(1 - pNCD - st.P[logic.Rise] - st.P[logic.Fall])
}

// buildGroups partitions the staged recs by delay kernel, preserving
// first-seen rec order, and allocates the stored t.o.p. functions in
// that order.
func (bx *batchExec) buildGroups() {
	bx.groups = bx.groups[:0]
	clear(bx.groupIx)
	for _, bi := range bx.batch {
		rec := &bx.recs[bi]
		gi, ok := bx.groupIx[rec.d]
		if !ok {
			gi = len(bx.groups)
			bx.groupIx[rec.d] = gi
			// Reuse the slot's recs backing array across levels when
			// the slice header survived a previous truncation.
			if gi < cap(bx.groups) {
				bx.groups = bx.groups[:gi+1]
				bx.groups[gi].d = rec.d
				bx.groups[gi].recs = bx.groups[gi].recs[:0]
			} else {
				bx.groups = append(bx.groups, delayGroup{d: rec.d})
			}
		}
		bx.groups[gi].recs = append(bx.groups[gi].recs, bi)
	}
	for gi := range bx.groups {
		for _, bi := range bx.groups[gi].recs {
			st := &bx.res.State[bx.recs[bi].id]
			st.TOP[ssta.DirRise] = bx.rc.newTOP()
			st.TOP[ssta.DirFall] = bx.rc.newTOP()
		}
	}
}

// runGroup applies one group's shared delay to every staged row.
func (bx *batchExec) runGroup(g *delayGroup, workers int) {
	rc := bx.rc
	bx.srcs = bx.srcs[:0]
	bx.dsts = bx.dsts[:0]
	bx.rows = bx.rows[:0]
	for _, bi := range g.recs {
		rec := &bx.recs[bi]
		st := &bx.res.State[rec.id]
		bx.srcs = append(bx.srcs, rec.rise, rec.fall)
		bx.dsts = append(bx.dsts, st.TOP[ssta.DirRise], st.TOP[ssta.DirFall])
		bx.rows = append(bx.rows, rec.riseRow, rec.fallRow)
	}
	srcs, dsts, rows := bx.srcs, bx.dsts, bx.rows
	f32 := rc.grid.Precision == dist.F32

	if g.d.Sigma == 0 {
		parallelChunks(workers, len(srcs), rc.met, false, func(lo, hi int) {
			dist.ShiftBatch(dsts[lo:hi], srcs[lo:hi], g.d.Mu)
			if f32 {
				for _, dst := range dsts[lo:hi] {
					dst.QuantizeF32()
				}
			}
		})
		return
	}
	kernel := rc.kernels.FromNormal(g.d)
	if bx.plan == nil || !bx.plan.Grid().Equal(rc.grid) {
		// Per-geometry plan cache: each resolution level builds (or
		// shares) its split tables once, so coarsening never pays the
		// plan construction per level.
		bx.plan = dist.PlanFor(rc.grid)
	}
	if f32 {
		bx.k32 = dist.KernelF32(kernel, bx.k32)
		parallelChunks(workers, len(srcs), rc.met, false, func(lo, hi int) {
			dist.ConvolveBatchF32(bx.plan, dsts[lo:hi], bx.slab, rows[lo:hi], srcs[lo:hi], kernel, bx.k32)
		})
		return
	}
	parallelChunks(workers, len(srcs), rc.met, false, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			bx.plan.ConvolveInto(dsts[i], srcs[i], kernel)
		}
	})
}

// phaseT finishes net rec: tail trims with certificate accounting
// (the serial gate()/computeNode epilogues verbatim) and the
// exact-probability correction.
func (bx *batchExec) phaseT(rec *batchRec) {
	res, rc := bx.res, bx.rc
	st := &res.State[rec.id]
	if rc.eps > 0 {
		if rec.buf {
			truncateState(st, rc.eps)
		} else {
			tr := st.TOP[ssta.DirRise].TruncateTail(rc.eps / 4)
			tf := st.TOP[ssta.DirFall].TruncateTail(rc.eps / 4)
			st.PrunedMass += tr + tf
			st.P[logic.Rise] = clampProb(st.P[logic.Rise] - tr)
			st.P[logic.Fall] = clampProb(st.P[logic.Fall] - tf)
			st.P[boolVal(!rec.ncdOut)] = clampProb(1 - rec.pNCD - st.P[logic.Rise] - st.P[logic.Fall])
			st.Budget = st.PrunedMass
		}
	}
	if rc.certify {
		for _, f := range res.C.Nodes[rec.id].Fanin {
			st.Budget += res.State[f].Budget
		}
	}
	if bx.exact != nil {
		correctToExact(st, bx.exact[rec.id])
	}
}

// parallelChunks runs fn over [0, n) in contiguous chunks, fanning
// out to at most `workers` goroutines (inline when workers <= 1).
// Chunks are claimed from an atomic counter, so which worker runs a
// chunk is racy — but every chunk writes disjoint state, so results
// never depend on the draw. Worker busy time is attributed to m like
// runLevels chunks; items count as gates only when countGates is set,
// so a net split across phases is counted exactly once.
func parallelChunks(workers, n int, m *obs.Metrics, countGates bool, fn func(lo, hi int)) {
	if n == 0 {
		return
	}
	chunk := 1
	if workers > 1 {
		chunk = n / (workers * 4)
		if chunk < 1 {
			chunk = 1
		}
	}
	nchunks := (n + chunk - 1) / chunk
	if workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 {
		// Inline: the caller attributes level wall time to worker 0.
		fn(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var t0 int64
			if m != nil {
				t0 = obs.Nanotime()
			}
			done := 0
			for {
				ci := int(next.Add(1)) - 1
				lo := ci * chunk
				if lo >= n {
					break
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
				if countGates {
					done += hi - lo
				}
			}
			if m != nil {
				m.AddWorkerChunk(w, done, obs.Nanotime()-t0)
			}
		}(w)
	}
	wg.Wait()
}
