// The content-addressed result cache: completed EngineResults keyed
// by (netlist digest, engine, scenario, and the knobs that can change
// that engine's output), bounded by total byte size with LRU
// eviction, with single-flight deduplication so N concurrent
// identical requests run the engine exactly once — the leader
// computes while followers wait on its WaitGroup and share the
// result. Engines are deterministic for a fixed key (spsta and moment
// are bit-identical regardless of worker count; mc is bit-identical
// for fixed seed/runs/workers, which the key therefore includes), so
// a cached EngineResult is indistinguishable from a fresh one apart
// from its Cached flag.
package service

import (
	"container/list"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefaultCacheBytes is the result cache's default capacity.
const DefaultCacheBytes = 64 << 20

// cacheSource says how getOrCompute produced its result.
type cacheSource int

const (
	cacheComputed cacheSource = iota // this caller ran the engine
	cacheHit                         // served from the stored LRU
	cacheShared                      // shared a concurrent leader's run
)

// cacheKey builds the result-cache key for one engine run,
// normalizing away every knob that cannot affect that engine's
// output. Workers is excluded for spsta and moment (their results and
// cost units are worker-invariant by design) but included, resolved,
// for mc (a packed simulation is bit-identical only for a fixed
// seed/runs/workers triple). Batched stays in the spsta key because
// it changes the reported cost units.
func cacheKey(digest string, req *Request, engine string) string {
	var b strings.Builder
	b.WriteString(digest)
	b.WriteByte('|')
	b.WriteString(req.Scenario)
	b.WriteByte('|')
	b.WriteString(engine)
	f := func(v float64) {
		b.WriteByte('|')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	switch engine {
	case "spsta":
		f(req.Epsilon)
		f(req.Sigma)
		b.WriteByte('|')
		b.WriteString(req.Batched)
		b.WriteByte('|')
		b.WriteString(req.Coarsen)
	case "moment":
		f(req.Epsilon)
		f(req.Sigma)
	case "mc":
		f(req.Sigma)
		workers := req.Workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(&b, "|%d|%d|%d", req.Runs, req.Seed, workers)
	}
	return b.String()
}

// resultBytes estimates an EngineResult's retained size for the
// cache's byte accounting: struct headers plus per-endpoint payload.
func resultBytes(er *EngineResult) int64 {
	b := int64(128 + len(er.Engine))
	for i := range er.Endpoints {
		b += int64(len(er.Endpoints[i].Net)) + 112
	}
	return b
}

// flightCall is one in-flight single-flight computation: the leader
// fills er/err and releases the WaitGroup; followers wait and copy.
type flightCall struct {
	wg  sync.WaitGroup
	er  EngineResult
	err error
}

// cacheEntry is one stored result.
type cacheEntry struct {
	key     string
	er      EngineResult
	bytes   int64
	expires time.Time // zero: no TTL
}

// resultCache is the byte-bounded LRU plus the single-flight table.
// Counters live on the service metrics registry so /metrics renders
// them without a second source of truth. A negative maxBytes disables
// storage (every lookup misses) while keeping single-flight dedup.
type resultCache struct {
	reg      *registry
	maxBytes int64
	ttl      time.Duration

	mu       sync.Mutex
	lru      *list.List // *cacheEntry, front = most recently used
	entries  map[string]*list.Element
	bytes    int64
	inflight map[string]*flightCall
}

func newResultCache(maxBytes int64, ttl time.Duration, reg *registry) *resultCache {
	if maxBytes == 0 {
		maxBytes = DefaultCacheBytes
	}
	return &resultCache{
		reg:      reg,
		maxBytes: maxBytes,
		ttl:      ttl,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flightCall),
	}
}

// lookupLocked returns the live entry for key, expiring it lazily.
func (rc *resultCache) lookupLocked(key string) (EngineResult, bool) {
	el, ok := rc.entries[key]
	if !ok {
		return EngineResult{}, false
	}
	e := el.Value.(*cacheEntry)
	if !e.expires.IsZero() && time.Now().After(e.expires) {
		rc.removeLocked(el)
		rc.reg.cacheEvictions.Add(1)
		return EngineResult{}, false
	}
	rc.lru.MoveToFront(el)
	return e.er, true
}

func (rc *resultCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	rc.lru.Remove(el)
	delete(rc.entries, e.key)
	rc.bytes -= e.bytes
	rc.reg.cacheBytes.Store(rc.bytes)
}

// peekAll returns the stored results for every key, or nothing. It is
// the slot-free fast path for fully-cached requests: hits are counted
// only when the whole request can be served, so a partial hit leaves
// the books to the per-engine slow path.
func (rc *resultCache) peekAll(keys []string) ([]EngineResult, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]EngineResult, 0, len(keys))
	for _, key := range keys {
		er, ok := rc.lookupLocked(key)
		if !ok {
			return nil, false
		}
		out = append(out, er)
	}
	rc.reg.cacheHits.Add(int64(len(keys)))
	return out, true
}

// getOrCompute returns the result for key, running compute at most
// once across all concurrent callers: a stored entry is a hit; an
// in-flight computation is joined (shared); otherwise this caller
// leads, computes, stores on success, and wakes the followers.
// Compute errors are shared too — every waiter of a failed flight
// gets the leader's error — but never stored. A panicking compute is
// one such error (see lead), so it can never wedge the key.
func (rc *resultCache) getOrCompute(key string, compute func() (EngineResult, error)) (EngineResult, cacheSource, error) {
	rc.mu.Lock()
	if er, ok := rc.lookupLocked(key); ok {
		rc.reg.cacheHits.Add(1)
		rc.mu.Unlock()
		return er, cacheHit, nil
	}
	if call, ok := rc.inflight[key]; ok {
		rc.reg.singleflightShared.Add(1)
		rc.mu.Unlock()
		call.wg.Wait()
		return call.er, cacheShared, call.err
	}
	call := &flightCall{}
	call.wg.Add(1)
	rc.inflight[key] = call
	rc.reg.cacheMisses.Add(1)
	rc.mu.Unlock()

	rc.lead(key, call, compute)
	return call.er, cacheComputed, call.err
}

// lead runs compute as the flight leader of key. The cleanup is
// deferred, so it runs even when compute panics (several dist
// invariant checks do): the panic becomes the flight's shared error,
// the in-flight entry is removed and the followers are woken, and the
// next identical request leads a fresh computation.
func (rc *resultCache) lead(key string, call *flightCall, compute func() (EngineResult, error)) {
	defer func() {
		if p := recover(); p != nil {
			call.er, call.err = EngineResult{}, panicError(p)
		}
		rc.mu.Lock()
		delete(rc.inflight, key)
		if call.err == nil {
			rc.storeLocked(key, call.er)
		}
		rc.mu.Unlock()
		call.wg.Done()
	}()
	call.er, call.err = compute()
}

// store inserts a result computed outside getOrCompute (the traced
// bypass path).
func (rc *resultCache) store(key string, er EngineResult) {
	rc.mu.Lock()
	rc.storeLocked(key, er)
	rc.mu.Unlock()
}

func (rc *resultCache) storeLocked(key string, er EngineResult) {
	if rc.maxBytes < 0 {
		return
	}
	if el, ok := rc.entries[key]; ok {
		rc.removeLocked(el)
	}
	e := &cacheEntry{key: key, er: er, bytes: resultBytes(&er)}
	if rc.ttl > 0 {
		e.expires = time.Now().Add(rc.ttl)
	}
	rc.entries[key] = rc.lru.PushFront(e)
	rc.bytes += e.bytes
	for rc.bytes > rc.maxBytes && rc.lru.Len() > 0 {
		rc.removeLocked(rc.lru.Back())
		rc.reg.cacheEvictions.Add(1)
	}
	rc.reg.cacheBytes.Store(rc.bytes)
}

// stats returns the live entry count and byte total (for tests).
func (rc *resultCache) stats() (entries int, bytes int64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.lru.Len(), rc.bytes
}
