package core

import (
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// resolveWorkers maps a Workers field to an effective worker count:
// 0 selects GOMAXPROCS, anything below 1 clamps to serial.
func resolveWorkers(w int) int {
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runLevels evaluates f over every node, level by level. Nodes
// within one level have all fanins in earlier levels (see
// netlist.Levelize), so a level barrier is the only synchronization
// the propagation needs: workers of one level write disjoint
// per-node result slots and read only fanin slots finalized by the
// previous barrier — no locks, and results are bit-identical to the
// serial order because each node's arithmetic never depends on its
// siblings.
//
// Scheduling is cost-aware. cost estimates one node's work in
// arbitrary units (nil means every node costs 1); a level whose
// summed cost is below serialBelow is run inline on the scheduling
// goroutine instead of being dispatched to the pool — for the small
// levels that dominate ISCAS'89-scale circuits, the channel sends and
// the barrier wake-up cost more than the gate evaluations they
// distribute. serialBelow < 0 disables the fallback (every level is
// dispatched; used by the scheduler's own tests), and on a
// single-processor runtime (GOMAXPROCS == 1) every level is inlined:
// the pool cannot overlap any work there, only add switches. Worker
// goroutines start lazily, on the first dispatched level.
//
// With workers <= 1 the levels are walked inline. A dispatched level
// evaluates every node even after a failure so that the returned
// error is deterministically the first one in level order, not
// whichever worker lost a race. A panic inside f is treated the same
// way: each pool chunk recovers it (the rest of that chunk is
// skipped), and after the barrier the first failure in level order —
// error or panic — decides, a panic being re-raised on the
// scheduling goroutine so the caller can recover it. Inline levels
// run on that goroutine already.
//
// boundary, when non-nil, runs on the scheduling goroutine after
// every level's barrier (inline levels included) with the level's
// index and nodes, before the next level is costed; no worker runs
// while it does. It may fill levels[li+1:], which the walk reads only
// when it reaches them: Run hangs grid coarsening off the hook, and
// Update queues the fanouts of the nets that changed. Empty levels
// are skipped outright — no span, no metrics, no boundary call.
//
// Instrumentation (the caller's scoped m / tr registries) is purely
// observational: per-level gate counts and wall time, per-worker
// busy time, and per-level/per-gate tracer spans. name resolves a
// node id to its display name for gate spans and is only called when
// tracing is on. The cost is tiered: with both registries nil the
// gate loop is the bare f(id) call behind a single local nil check;
// with metrics only or a coarse tracer, busy time is attributed from
// two Nanotime readings per chunk (inline levels reuse the level
// reading — zero extra clock reads) and only per-level spans are
// recorded; a fine tracer adds a time.Now/Since pair per gate for
// gate-span timestamps and is explicitly the heavier mode.
//
// Level spans parent under the caller's span (parent; 0 makes them
// roots) and carry the level's gate count and work-unit cost delta.
// Each level's span ID is allocated before the level runs so worker
// gate spans can name their parent even though the level span itself
// is recorded after the barrier.
func runLevels(m *obs.Metrics, tr *obs.Tracer, parent obs.SpanID, workers int, levels [][]netlist.NodeID, nnodes int,
	name func(netlist.NodeID) string, cost func(netlist.NodeID) int64,
	serialBelow int64, f func(netlist.NodeID) error, boundary func(int, []netlist.NodeID)) error {
	instr := m != nil || tr != nil
	fine := tr.Fine()
	if tr != nil {
		tr.NameThread(0, "level schedule")
	}
	if boundary == nil {
		boundary = func(int, []netlist.NodeID) {}
	}
	if workers <= 1 {
		if fine {
			tr.NameThread(1, "worker 0")
		}
		for li, level := range levels {
			if len(level) == 0 {
				continue
			}
			if err := runLevelInline(m, tr, parent, li, level, name, f); err != nil {
				return err
			}
			boundary(li, level)
		}
		return nil
	}
	if serialBelow >= 0 && runtime.GOMAXPROCS(0) == 1 {
		// One P: the pool cannot overlap work, only add context
		// switches, so every level falls below the bar.
		serialBelow = math.MaxInt64
	}

	var (
		errs    []error
		panics  []any
		work    chan []netlist.NodeID
		wg      sync.WaitGroup
		started bool
		// curLevelSpan is the running level's pre-allocated span ID,
		// written by the scheduler before the level's chunk sends and
		// read by workers — the channel send orders the write before
		// every read, and the barrier orders the reads before the next
		// write.
		curLevelSpan obs.SpanID
	)
	// runChunk evaluates one dispatched chunk on worker w. A panic in
	// f is parked in the failing node's slot for the scheduler to
	// re-raise; the deferred Done keeps the barrier intact either way.
	runChunk := func(w int, chunk []netlist.NodeID) {
		var cur netlist.NodeID
		defer func() {
			if r := recover(); r != nil {
				panics[cur] = r
			}
			wg.Done()
		}()
		switch {
		case fine:
			for _, cur = range chunk {
				g0 := time.Now()
				errs[cur] = f(cur)
				d := time.Since(g0)
				if m != nil {
					m.AddWorkerBusy(w, d)
				}
				tr.RecordSpan(tr.NewSpan(), curLevelSpan, name(cur), "gate", w+1, g0, d, nil)
			}
		case m != nil:
			g0 := obs.Nanotime()
			for _, cur = range chunk {
				errs[cur] = f(cur)
			}
			m.AddWorkerChunk(w, len(chunk), obs.Nanotime()-g0)
		default:
			for _, cur = range chunk {
				errs[cur] = f(cur)
			}
		}
	}
	startPool := func() {
		errs = make([]error, nnodes)
		panics = make([]any, nnodes)
		work = make(chan []netlist.NodeID)
		for w := 0; w < workers; w++ {
			w := w
			if fine {
				tr.NameThread(w+1, "worker "+strconv.Itoa(w))
			}
			go func() {
				for chunk := range work {
					runChunk(w, chunk)
				}
			}()
		}
		started = true
	}
	defer func() {
		if started {
			close(work)
		}
	}()
	for li, level := range levels {
		if len(level) == 0 {
			continue
		}
		if levelCost(level, cost) < serialBelow {
			if err := runLevelInline(m, tr, parent, li, level, name, f); err != nil {
				return err
			}
			boundary(li, level)
			continue
		}
		if !started {
			startPool()
		}
		var lt0 time.Time
		var cost0 int64
		if instr {
			lt0 = time.Now()
			curLevelSpan = tr.NewSpan()
			cost0 = m.CostUnits()
		}
		// Subdivide the level finer than the worker count so slow
		// chunks still spread, but coarse enough that channel ops and
		// per-chunk instrumentation stay off the per-gate fast path.
		chunk := len(level) / (workers * 4)
		if chunk < 1 {
			chunk = 1
		}
		for lo := 0; lo < len(level); lo += chunk {
			hi := lo + chunk
			if hi > len(level) {
				hi = len(level)
			}
			wg.Add(1)
			work <- level[lo:hi]
		}
		wg.Wait() // level barrier: level L+1 reads these slots
		if instr {
			recordLevel(m, tr, parent, curLevelSpan, li, len(level), lt0, m.CostUnits()-cost0)
		}
		// First failure in level order: re-raise a worker's panic here,
		// on the scheduling goroutine, or return its error.
		for _, id := range level {
			if p := panics[id]; p != nil {
				panic(p)
			}
			if errs[id] != nil {
				return errs[id]
			}
		}
		boundary(li, level)
	}
	return nil
}

// levelCost sums the estimated work of a level; a nil model charges
// one unit per node.
func levelCost(level []netlist.NodeID, cost func(netlist.NodeID) int64) int64 {
	if cost == nil {
		return int64(len(level))
	}
	var c int64
	for _, id := range level {
		c += cost(id)
	}
	return c
}

// runLevelInline evaluates one level on the calling goroutine,
// attributing instrumentation to worker 0, and stops at the first
// error (serial order is deterministic by construction).
func runLevelInline(m *obs.Metrics, tr *obs.Tracer, parent obs.SpanID, li int, level []netlist.NodeID,
	name func(netlist.NodeID) string, f func(netlist.NodeID) error) error {
	var lt0 time.Time
	var cost0 int64
	instr := m != nil || tr != nil
	if instr {
		lt0 = time.Now()
		cost0 = m.CostUnits()
	}
	switch {
	case !instr:
		for _, id := range level {
			if err := f(id); err != nil {
				return err
			}
		}
	case tr.Fine():
		lid := tr.NewSpan()
		for _, id := range level {
			g0 := time.Now()
			err := f(id)
			d := time.Since(g0)
			if m != nil {
				m.AddWorkerBusy(0, d)
			}
			tr.RecordSpan(tr.NewSpan(), lid, name(id), "gate", 1, g0, d, nil)
			if err != nil {
				return err
			}
		}
		recordLevel(m, tr, parent, lid, li, len(level), lt0, m.CostUnits()-cost0)
	default:
		// Metrics only or coarse tracer: the single worker is busy for
		// exactly the level wall time, so the level clock reading
		// doubles as the busy-time attribution.
		for _, id := range level {
			if err := f(id); err != nil {
				return err
			}
		}
		if m != nil {
			m.AddWorkerChunk(0, len(level), int64(time.Since(lt0)))
		}
		recordLevel(m, tr, parent, tr.NewSpan(), li, len(level), lt0, m.CostUnits()-cost0)
	}
	return nil
}

// recordLevel publishes one completed level's metrics and trace span.
// lid is the level span's pre-allocated ID (its gate spans, if any,
// already name it as parent); costDelta is the work-unit cost the
// level accumulated.
func recordLevel(m *obs.Metrics, tr *obs.Tracer, parent, lid obs.SpanID, level, gates int, start time.Time, costDelta int64) {
	d := time.Since(start)
	if m != nil {
		m.RecordLevel(level, gates, d)
	}
	if tr != nil {
		args := map[string]any{"gates": gates}
		if m != nil {
			args["cost_units"] = costDelta
		}
		tr.RecordSpan(lid, parent, "L"+strconv.Itoa(level), "level", 0, start, d, args)
	}
}
