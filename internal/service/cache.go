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
// from its Cached flag. That is also why an entry can keep the
// response bytes of its result: encoded once, on the entry's first
// full /v1/analyze hit, they serve every later one.
package service

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
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
// output. Epsilon keys only spsta: the moment and mc engines have no
// error budget. Workers is excluded for spsta and moment (their
// results and cost units are worker-invariant by design) but included,
// resolved, for mc (a simulation is bit-identical only for a fixed
// seed/runs/workers triple).
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
		b.WriteString(req.Coarsen)
	case "moment":
		f(req.Sigma)
	case "mc":
		f(req.Sigma)
		fmt.Fprintf(&b, "|%d|%d|%d", req.Runs, req.Seed, req.mcWorkers())
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

// cacheEntry is one stored result. er never changes once stored, so
// a request that got the entry from the cache reads it without the
// lock. Its size in the LRU is resultBytes(&er), plus len(body) once
// encoded.
type cacheEntry struct {
	key string
	er  EngineResult

	// encode fills body, on the entry's first full /v1/analyze hit.
	encode sync.Once
	// body is er, with Cached set, as the element of Response.Engines
	// that writeJSON's indented encoding writes: a newline, the
	// element's four-space indent and json.MarshalIndent(er, "    ",
	// "  "). Nil until encoded, and when er does not encode.
	body []byte
}

// resultCache is the byte-bounded LRU plus the single-flight table.
// Counters live on the service metrics registry so /metrics renders
// them without a second source of truth. Entries never go stale: a
// key names a deterministic computation, so only the byte bound
// removes them. A negative bound disables storage (every lookup
// misses) while keeping single-flight dedup.
type resultCache struct {
	reg *registry

	mu       sync.Mutex
	lru      *lru[string, *cacheEntry]
	inflight map[string]*flightCall
}

func newResultCache(maxBytes int64, reg *registry) *resultCache {
	if maxBytes == 0 {
		maxBytes = DefaultCacheBytes
	}
	return &resultCache{
		reg:      reg,
		lru:      newLRU[string, *cacheEntry](maxBytes),
		inflight: make(map[string]*flightCall),
	}
}

// evicted counts an LRU eviction's victims and publishes the byte
// total.
func (rc *resultCache) evicted(keys []string) {
	rc.reg.cacheEvictions.Add(int64(len(keys)))
	rc.reg.cacheBytes.Store(rc.lru.total())
}

// peekAll returns the stored entries for every key, or nothing. It is
// the slot-free fast path for fully-cached requests: hits are counted
// only when the whole request can be served, so a partial hit leaves
// the books to the per-engine slow path.
func (rc *resultCache) peekAll(keys []string) ([]*cacheEntry, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]*cacheEntry, 0, len(keys))
	for _, key := range keys {
		e, ok := rc.lru.get(key)
		if !ok {
			return nil, false
		}
		out = append(out, e)
	}
	rc.reg.cacheHits.Add(int64(len(keys)))
	return out, true
}

// encoded returns the entry's response bytes (see cacheEntry.body),
// encoding them on the first call; concurrent first calls wait for
// that one encoding. The bytes count toward the entry's size, so an
// entry still stored grows by them and the cache evicts from its LRU
// tail, sparing this entry, until it is back under its bound. Nil
// means er does not encode: the caller serves the value, and its
// encoding fails the same way.
//
// Encoding is lazy because most stored results are never hit: cold
// Monte Carlo runs with fresh seeds would otherwise each keep bytes
// nothing serves.
func (rc *resultCache) encoded(e *cacheEntry) []byte {
	e.encode.Do(func() {
		er := e.er
		er.Cached = true
		b, err := json.MarshalIndent(&er, "    ", "  ")
		if err != nil {
			return
		}
		e.body = append([]byte("\n    "), b...)
		rc.mu.Lock()
		defer rc.mu.Unlock()
		rc.evicted(rc.lru.grow(e.key, e, int64(len(e.body))))
	})
	return e.body
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
	if e, ok := rc.lru.get(key); ok {
		rc.reg.cacheHits.Add(1)
		rc.mu.Unlock()
		return e.er, cacheHit, nil
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
	if rc.lru.bound < 0 {
		return
	}
	rc.evicted(rc.lru.put(key, &cacheEntry{key: key, er: er}, resultBytes(&er)))
}
