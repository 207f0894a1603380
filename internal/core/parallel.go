package core

import (
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

// dispatchWidth is the number of chunks per worker a dispatched level
// is split into. A level narrower than dispatchWidth gates per worker
// runs inline: its chunks would hold less than a gate each.
const dispatchWidth = 4

// runLevels evaluates f over every node, level by level, passing the
// index of the worker that runs it (0 for inline levels), so f can use
// per-worker scratch without locks. Nodes
// within one level have all fanins in earlier levels (see
// netlist.Levelize), so a level barrier is the only synchronization
// the propagation needs: workers of one level write disjoint
// per-node result slots and read only fanin slots finalized by the
// previous barrier — no locks, and results are bit-identical to the
// serial order because each node's arithmetic never depends on its
// siblings.
//
// The dispatch rule is one comparison. With workers <= 1 every level
// is walked inline on the calling goroutine. Otherwise the pool is
// started once, before the walk; a level with at least dispatchWidth
// gates per worker is split into contiguous chunks for it, and a
// narrower level runs inline on the scheduling goroutine, attributed
// to worker 0 (DESIGN.md §10.3).
//
// A dispatched chunk stops at its first failure — an error returned
// by f or a panic inside it — and records it in the chunk's slot;
// every other chunk still runs. After the barrier the first failing
// chunk decides: chunks are contiguous in level order, so its failure
// is the first one in level order, not whichever worker lost a race.
// A panic is re-raised on the scheduling goroutine so the caller can
// recover it. Inline levels run on that goroutine already and stop at
// the first error.
//
// boundary, when non-nil, runs on the scheduling goroutine after
// every level, inline or dispatched, with the level's index and
// nodes; no worker runs while it does. It may fill levels[li+1:],
// which the walk reads only when it reaches them: Run hangs grid
// coarsening off the hook, and Update queues the fanouts of the nets
// that changed. Empty levels are skipped outright — no span, no
// metrics, no boundary call.
//
// Instrumentation (the caller's scoped m / tr registries) is purely
// observational: per-level gate counts and wall time, per-worker
// busy time, and per-level/per-gate tracer spans. name resolves a
// node id to its display name for gate spans and is only called when
// tracing is on. The cost is tiered: with both registries nil the
// gate loop is the bare f(w, id) call behind a single local nil check;
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
func runLevels(m *obs.Metrics, tr *obs.Tracer, parent obs.SpanID, workers int, levels [][]netlist.NodeID,
	name func(netlist.NodeID) string, f func(int, netlist.NodeID) error, boundary func(int, []netlist.NodeID)) error {
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

	// failure is one chunk's first failure: f's error, or the value a
	// panic inside f was recovered with.
	type failure struct {
		err   error
		panic any
	}
	// chunk is one unit of pool work: the slot its failure goes to
	// (its index within the level) and its nodes.
	type chunk struct {
		slot  int
		nodes []netlist.NodeID
	}
	var (
		fails []failure
		work  = make(chan chunk)
		wg    sync.WaitGroup
		// curLevelSpan is the running level's pre-allocated span ID,
		// written by the scheduler before the level's chunk sends and
		// read by workers — the channel send orders the write before
		// every read, and the barrier orders the reads before the next
		// write. fails is handed over the same way.
		curLevelSpan obs.SpanID
	)
	// runChunk evaluates one chunk on worker w up to its first
	// failure; the deferred Done keeps the barrier intact either way.
	runChunk := func(w int, ch chunk) {
		defer func() {
			if r := recover(); r != nil {
				fails[ch.slot].panic = r
			}
			wg.Done()
		}()
		var err error
		switch {
		case fine:
			for _, id := range ch.nodes {
				g0 := time.Now()
				err = f(w, id)
				d := time.Since(g0)
				if m != nil {
					m.AddWorkerBusy(w, d)
				}
				tr.RecordSpan(tr.NewSpan(), curLevelSpan, name(id), "gate", w+1, g0, d, nil)
				if err != nil {
					break
				}
			}
		case m != nil:
			g0 := obs.Nanotime()
			err = evalNodes(w, ch.nodes, f)
			m.AddWorkerChunk(w, len(ch.nodes), obs.Nanotime()-g0)
		default:
			err = evalNodes(w, ch.nodes, f)
		}
		fails[ch.slot].err = err
	}
	for w := 0; w < workers; w++ {
		if fine {
			tr.NameThread(w+1, "worker "+strconv.Itoa(w))
		}
		go func() {
			for ch := range work {
				runChunk(w, ch)
			}
		}()
	}
	defer close(work)
	for li, level := range levels {
		if len(level) == 0 {
			continue
		}
		if len(level) < dispatchWidth*workers {
			if err := runLevelInline(m, tr, parent, li, level, name, f); err != nil {
				return err
			}
			boundary(li, level)
			continue
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
		size := len(level) / (workers * dispatchWidth)
		n := (len(level) + size - 1) / size
		if cap(fails) < n {
			fails = make([]failure, n)
		}
		fails = fails[:n]
		clear(fails)
		for i := 0; i < n; i++ {
			wg.Add(1)
			work <- chunk{i, level[i*size : min((i+1)*size, len(level))]}
		}
		wg.Wait() // level barrier: level L+1 reads these slots
		if instr {
			recordLevel(m, tr, parent, curLevelSpan, li, len(level), lt0, m.CostUnits()-cost0)
		}
		// First failure in level order: re-raise a worker's panic here,
		// on the scheduling goroutine, or return its error.
		for _, fl := range fails {
			if fl.panic != nil {
				panic(fl.panic)
			}
			if fl.err != nil {
				return fl.err
			}
		}
		boundary(li, level)
	}
	return nil
}

// evalNodes runs f over nodes in order on worker w, stopping at the
// first error.
func evalNodes(w int, nodes []netlist.NodeID, f func(int, netlist.NodeID) error) error {
	for _, id := range nodes {
		if err := f(w, id); err != nil {
			return err
		}
	}
	return nil
}

// runLevelInline evaluates one level on the calling goroutine,
// attributing instrumentation to worker 0, and stops at the first
// error (serial order is deterministic by construction).
func runLevelInline(m *obs.Metrics, tr *obs.Tracer, parent obs.SpanID, li int, level []netlist.NodeID,
	name func(netlist.NodeID) string, f func(int, netlist.NodeID) error) error {
	var lt0 time.Time
	var cost0 int64
	instr := m != nil || tr != nil
	if instr {
		lt0 = time.Now()
		cost0 = m.CostUnits()
	}
	switch {
	case !instr:
		return evalNodes(0, level, f)
	case tr.Fine():
		lid := tr.NewSpan()
		for _, id := range level {
			g0 := time.Now()
			err := f(0, id)
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
		if err := evalNodes(0, level, f); err != nil {
			return err
		}
		if m != nil {
			m.AddWorkerChunk(0, len(level), int64(time.Since(lt0)))
		}
		recordLevel(m, tr, parent, tr.NewSpan(), li, len(level), lt0, m.CostUnits()-cost0)
	}
	return nil
}

// recordLevel publishes one completed level's trace span, which
// carries the level's gate count, wall time and (with metrics on) the
// work-unit cost it accumulated. lid is the level span's
// pre-allocated ID (its gate spans, if any, already name it as
// parent).
func recordLevel(m *obs.Metrics, tr *obs.Tracer, parent, lid obs.SpanID, level, gates int, start time.Time, costDelta int64) {
	if tr == nil {
		return
	}
	args := map[string]any{"gates": gates}
	if m != nil {
		args["cost_units"] = costDelta
	}
	tr.RecordSpan(lid, parent, "L"+strconv.Itoa(level), "level", 0, start, time.Since(start), args)
}
