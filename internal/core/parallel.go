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
// narrower level runs inline on the scheduling goroutine as worker 0
// (DESIGN.md §10.3). An inline level and a pool chunk are the same
// work: levelRun.runChunk evaluates both.
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
// observational. The registry gets counts only: each scheduled level
// adds its width to m.Gates, and the scheduler reads no clock for it.
// Time comes from the tracer: one span per level, and under a fine
// tracer one span per gate on track w+1, timed by a time.Now/Since
// pair per gate — the explicitly heavier mode. name resolves a node id
// to its display name for gate spans and is only called when tracing
// is fine.
//
// Level spans parent under the caller's span (parent; 0 makes them
// roots) and carry the level's gate count and, with metrics on, its
// work-unit cost delta. Each level's span ID is allocated before the
// level runs so gate spans can name their parent even though the
// level span itself is recorded after the level.
func runLevels(m *obs.Metrics, tr *obs.Tracer, parent obs.SpanID, workers int, levels [][]netlist.NodeID,
	name func(netlist.NodeID) string, f func(int, netlist.NodeID) error, boundary func(int, []netlist.NodeID)) error {
	run := levelRun{tr: tr, fine: tr.Fine(), name: name, f: f}
	if tr != nil {
		tr.NameThread(0, "level schedule")
	}
	if run.fine {
		for w := 0; w < workers; w++ {
			tr.NameThread(w+1, "worker "+strconv.Itoa(w))
		}
	}
	if boundary == nil {
		boundary = func(int, []netlist.NodeID) {}
	}
	var pool *levelPool
	if workers > 1 {
		pool = startPool(run, workers)
		defer close(pool.work)
	}
	for li, level := range levels {
		if len(level) == 0 {
			continue
		}
		var lt0 time.Time
		var lid obs.SpanID
		var cost0 int64
		if tr != nil {
			lt0, lid, cost0 = time.Now(), tr.NewSpan(), m.CostUnits()
		}
		var err error
		if pool == nil || len(level) < dispatchWidth*workers {
			err = run.runChunk(0, level, lid)
		} else {
			err = pool.dispatch(level, lid)
		}
		if m != nil {
			m.Gates.Add(int64(len(level)))
		}
		if tr != nil {
			args := map[string]any{"gates": len(level)}
			if m != nil {
				args["cost_units"] = m.CostUnits() - cost0
			}
			tr.RecordSpan(lid, parent, "L"+strconv.Itoa(li), "level", 0, lt0, time.Since(lt0), args)
		}
		if err != nil {
			return err
		}
		boundary(li, level)
	}
	return nil
}

// levelRun is what one runLevels walk evaluates: f on every node, and
// under a fine tracer a gate span per node.
type levelRun struct {
	tr   *obs.Tracer
	fine bool
	name func(netlist.NodeID) string
	f    func(int, netlist.NodeID) error
}

// runChunk evaluates nodes in order on worker w, stopping at the first
// error; lid is the span ID of the level they belong to. An inline
// level is one chunk on worker 0.
func (r levelRun) runChunk(w int, nodes []netlist.NodeID, lid obs.SpanID) error {
	if !r.fine {
		for _, id := range nodes {
			if err := r.f(w, id); err != nil {
				return err
			}
		}
		return nil
	}
	for _, id := range nodes {
		g0 := time.Now()
		err := r.f(w, id)
		r.tr.RecordSpan(r.tr.NewSpan(), lid, r.name(id), "gate", w+1, g0, time.Since(g0), nil)
		if err != nil {
			return err
		}
	}
	return nil
}

// levelPool is the worker pool of one runLevels walk with more than
// one worker. Serial walks never build one.
type levelPool struct {
	run     levelRun
	workers int
	work    chan poolChunk
	wg      sync.WaitGroup
	// fails is handed to the workers by the chunk sends, which order
	// the scheduler's writes before every worker's, and back by the
	// barrier.
	fails []chunkFailure
}

// poolChunk is one unit of pool work: the slot its failure goes to
// (its index within the level), its nodes and its level's span.
type poolChunk struct {
	slot  int
	nodes []netlist.NodeID
	lid   obs.SpanID
}

// chunkFailure is one pool chunk's first failure: f's error, or the
// value a panic inside f was recovered with.
type chunkFailure struct {
	err   error
	panic any
}

// startPool starts workers goroutines that run chunks until work is
// closed.
func startPool(run levelRun, workers int) *levelPool {
	p := &levelPool{run: run, workers: workers, work: make(chan poolChunk)}
	for w := 0; w < workers; w++ {
		go func() {
			for ch := range p.work {
				p.runPooled(w, ch)
			}
		}()
	}
	return p
}

// runPooled runs one chunk on pool worker w; the deferred Done keeps
// the barrier intact whether the chunk fails or panics.
func (p *levelPool) runPooled(w int, ch poolChunk) {
	defer func() {
		if r := recover(); r != nil {
			p.fails[ch.slot].panic = r
		}
		p.wg.Done()
	}()
	p.fails[ch.slot].err = p.run.runChunk(w, ch.nodes, ch.lid)
}

// dispatch runs a wide level on the pool and returns its first failure
// in level order, re-raising a worker's panic here, on the scheduling
// goroutine.
func (p *levelPool) dispatch(level []netlist.NodeID, lid obs.SpanID) error {
	// Subdivide the level finer than the worker count so slow chunks
	// still spread, but coarse enough that channel ops stay off the
	// per-gate fast path.
	size := len(level) / (p.workers * dispatchWidth)
	n := (len(level) + size - 1) / size
	if cap(p.fails) < n {
		p.fails = make([]chunkFailure, n)
	}
	p.fails = p.fails[:n]
	clear(p.fails)
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		p.work <- poolChunk{i, level[i*size : min((i+1)*size, len(level))], lid}
	}
	p.wg.Wait() // level barrier: level L+1 reads these slots
	for _, fl := range p.fails {
		if fl.panic != nil {
			panic(fl.panic)
		}
		if fl.err != nil {
			return fl.err
		}
	}
	return nil
}
