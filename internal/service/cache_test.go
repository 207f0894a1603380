package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func metricsSamples(t *testing.T, srv *httptest.Server) []string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return checkPrometheus(t, string(body))
}

func sampleInt(t *testing.T, samples []string, prefix string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(sampleValue(t, samples, prefix), 10, 64)
	if err != nil {
		t.Fatalf("%s: %v", prefix, err)
	}
	return v
}

// TestNetlistRegistryAndRef covers the upload → netlist_ref flow: the
// digest returned by POST /v1/netlists addresses the parsed circuit
// in later requests, every response reports it, and an unknown ref is
// a 404.
func TestNetlistRegistryAndRef(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, body := post(t, srv.URL+"/v1/netlists", `{"circuit":"s298"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	var up NetlistUploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(up.NetlistDigest) {
		t.Fatalf("digest %q is not 64 hex chars", up.NetlistDigest)
	}
	if up.Circuit.Name != "s298" || up.Circuit.Gates == 0 {
		t.Fatalf("bad circuit info: %+v", up.Circuit)
	}

	resp, body = post(t, srv.URL+"/v1/analyze", fmt.Sprintf(`{"netlist_ref":%q}`, up.NetlistDigest))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze by ref: %d %s", resp.StatusCode, body)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.NetlistDigest != up.NetlistDigest {
		t.Fatalf("analyze digest %q != uploaded %q", r.NetlistDigest, up.NetlistDigest)
	}

	// The same circuit by profile name resolves to the same digest
	// (and the same interned *Circuit — one registry entry).
	resp, body = post(t, srv.URL+"/v1/analyze", `{"circuit":"s298"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze by name: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.NetlistDigest != up.NetlistDigest {
		t.Fatalf("by-name digest %q != uploaded %q", r.NetlistDigest, up.NetlistDigest)
	}
	if n := svc.netreg.len(); n != 1 {
		t.Fatalf("registry holds %d entries, want 1", n)
	}

	resp, body = post(t, srv.URL+"/v1/analyze",
		`{"netlist_ref":"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ref: %d %s, want 404", resp.StatusCode, body)
	}

	samples := metricsSamples(t, srv)
	if got := sampleInt(t, samples, "spstad_registry_entries"); got != 1 {
		t.Errorf("spstad_registry_entries %d, want 1", got)
	}
}

// TestResultCacheHit: a repeated identical request is served from the
// cache — flagged cached, identical engine payload, near-zero request
// cost — and /v1/compare shares the same entries.
func TestResultCacheHit(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body1 := `{"circuit":"s344","engine":"all","runs":2000}`
	resp, b := post(t, srv.URL+"/v1/analyze", body1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: %d %s", resp.StatusCode, b)
	}
	var cold Response
	if err := json.Unmarshal(b, &cold); err != nil {
		t.Fatal(err)
	}
	for _, er := range cold.Engines {
		if er.Cached {
			t.Fatalf("cold %s result claims cached", er.Engine)
		}
	}

	resp, b = post(t, srv.URL+"/v1/analyze", body1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hot: %d %s", resp.StatusCode, b)
	}
	var hot Response
	if err := json.Unmarshal(b, &hot); err != nil {
		t.Fatal(err)
	}
	for i, er := range hot.Engines {
		if !er.Cached {
			t.Fatalf("hot %s result not served from cache", er.Engine)
		}
		er.Cached = false
		if fmt.Sprintf("%+v", er) != fmt.Sprintf("%+v", cold.Engines[i]) {
			t.Fatalf("hot %s result differs from cold:\n%+v\n%+v", er.Engine, er, cold.Engines[i])
		}
	}

	// The hot request is recorded cached with near-zero cost.
	sums, _ := svc.flight.list()
	if !sums[0].Cached {
		t.Fatalf("flight summary of hot request not marked cached: %+v", sums[0])
	}
	if sums[0].CostUnits != 0 {
		t.Fatalf("hot request cost %d work units, want 0", sums[0].CostUnits)
	}
	if sums[1].Cached {
		t.Fatal("flight summary of cold request marked cached")
	}

	// compare reuses the analyze path's spsta and mc entries (same
	// defaults), so the whole comparison is cache-served.
	resp, b = post(t, srv.URL+"/v1/compare", `{"circuit":"s344","runs":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare: %d %s", resp.StatusCode, b)
	}
	var cr CompareResponse
	if err := json.Unmarshal(b, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Cached {
		t.Fatal("compare after engine=all analyze did not reuse cached results")
	}
	if cr.NetlistDigest != cold.NetlistDigest {
		t.Fatalf("compare digest %q != analyze digest %q", cr.NetlistDigest, cold.NetlistDigest)
	}

	samples := metricsSamples(t, srv)
	if got := sampleInt(t, samples, "spstad_cache_hits_total"); got < 5 {
		t.Errorf("spstad_cache_hits_total %d, want >= 5 (3 analyze + 2 compare)", got)
	}
	if got := sampleInt(t, samples, "spstad_cache_misses_total"); got != 3 {
		t.Errorf("spstad_cache_misses_total %d, want 3", got)
	}
	if got := sampleInt(t, samples, "spstad_cache_bytes"); got <= 0 {
		t.Errorf("spstad_cache_bytes %d, want > 0", got)
	}
}

// TestSingleFlightDedup: N concurrent identical requests run the
// engine exactly once. The Monte Carlo runs counter is the ground
// truth — one simulation's worth of runs total — and the cache books
// must show one miss with every other request served as a hit or a
// shared flight.
func TestSingleFlightDedup(t *testing.T) {
	svc := New(Config{MaxConcurrent: 4})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const n = 8
	const runs = 40000
	body := fmt.Sprintf(`{"circuit":"s386","engine":"mc","runs":%d,"seed":9,"workers":2}`, runs)
	var wg sync.WaitGroup
	results := make([]Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := post(t, srv.URL+"/v1/analyze", body)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			errs[i] = json.Unmarshal(b, &results[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	fresh := 0
	for i := range results {
		if !results[i].Engines[0].Cached {
			fresh++
		}
		if results[i].Engines[0].CostUnits != results[0].Engines[0].CostUnits {
			t.Fatalf("request %d cost %d != request 0 cost %d — results not shared",
				i, results[i].Engines[0].CostUnits, results[0].Engines[0].CostUnits)
		}
	}
	if fresh != 1 {
		t.Fatalf("%d requests ran the engine, want exactly 1", fresh)
	}

	samples := metricsSamples(t, srv)
	if got := sampleInt(t, samples, "spstad_engine_mc_runs_total"); got != runs {
		t.Fatalf("spstad_engine_mc_runs_total %d, want %d — the engine did not run exactly once", got, runs)
	}
	if got := sampleInt(t, samples, "spstad_cache_misses_total"); got != 1 {
		t.Errorf("spstad_cache_misses_total %d, want 1", got)
	}
	hits := sampleInt(t, samples, "spstad_cache_hits_total")
	shared := sampleInt(t, samples, "spstad_singleflight_shared_total")
	if hits+shared != n-1 {
		t.Errorf("hits %d + shared %d != %d", hits, shared, n-1)
	}
}

// TestResultCacheEviction drives the LRU over its byte budget and
// checks the accounting.
func TestResultCacheEviction(t *testing.T) {
	var reg registry
	rc := newResultCache(600, &reg)
	er := EngineResult{Engine: "spsta", Endpoints: []EndpointStat{{Net: "some-endpoint-net"}}}
	for i := 0; i < 10; i++ {
		rc.store(fmt.Sprintf("key-%d", i), er)
	}
	entries, bytes := rc.lru.len(), rc.lru.total()
	if bytes > 600 {
		t.Fatalf("cache holds %d bytes, budget 600", bytes)
	}
	if entries >= 10 {
		t.Fatalf("no eviction happened (%d entries)", entries)
	}
	if got := reg.cacheEvictions.Load(); got != int64(10-entries) {
		t.Fatalf("evictions %d, want %d", got, 10-entries)
	}
	if got := reg.cacheBytes.Load(); got != bytes {
		t.Fatalf("cacheBytes gauge %d != accounted %d", got, bytes)
	}
}

// TestResultCachePanicDoesNotWedgeKey makes a flight leader's compute
// panic while a follower waits on the same key. Both must get the
// panic back as an error the handler answers 500 (not an httpError),
// nothing may be stored, and the next identical request must lead a
// fresh computation and succeed instead of blocking on the dead
// flight.
func TestResultCachePanicDoesNotWedgeKey(t *testing.T) {
	var reg registry
	rc := newResultCache(1<<20, &reg)
	started := make(chan struct{})
	joined := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := rc.getOrCompute("k", func() (EngineResult, error) {
			close(started)
			<-joined
			panic("grid mismatch")
		})
		leaderErr <- err
	}()
	<-started
	followerErr := make(chan error, 1)
	go func() {
		_, src, err := rc.getOrCompute("k", func() (EngineResult, error) {
			return EngineResult{}, fmt.Errorf("follower ran its own compute")
		})
		if err == nil || src != cacheShared {
			err = fmt.Errorf("follower: source %v, err %v; want a shared error", src, err)
		}
		followerErr <- err
	}()
	for reg.singleflightShared.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(joined)

	for name, ch := range map[string]chan error{"leader": leaderErr, "follower": followerErr} {
		select {
		case err := <-ch:
			var he *httpError
			if err == nil || !strings.Contains(err.Error(), "grid mismatch") || errors.As(err, &he) {
				t.Fatalf("%s got %v, want the panic as a plain (500) error", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never returned: the panic wedged the key", name)
		}
	}
	if entries := rc.lru.len(); entries != 0 {
		t.Fatalf("a panicked flight stored %d entries", entries)
	}

	want := EngineResult{Engine: "spsta"}
	er, src, err := rc.getOrCompute("k", func() (EngineResult, error) { return want, nil })
	if err != nil || src != cacheComputed || er.Engine != want.Engine {
		t.Fatalf("retry after panic: %+v %v %v, want a fresh successful computation", er, src, err)
	}
	if _, src, _ := rc.getOrCompute("k", nil); src != cacheHit {
		t.Fatalf("retry result not stored: source %v", src)
	}
}

// TestResultCacheBoundCountsStoredBytes: an entry's stored response
// bytes count toward its size, the cache bound and the
// spstad_cache_bytes gauge. An entry that grows on its first hit
// evicts from the LRU tail until the cache is back under its bound,
// and never evicts itself, even when it alone is over the bound.
func TestResultCacheBoundCountsStoredBytes(t *testing.T) {
	er := EngineResult{Engine: "spsta", Endpoints: []EndpointStat{{Net: "G1"}, {Net: "G2"}, {Net: "G3"}}}
	size := resultBytes(&er)
	enc := er
	enc.Cached = true
	b, err := json.MarshalIndent(&enc, "    ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	stored := int64(len("\n    ") + len(b))
	if stored <= size {
		t.Fatalf("stored bytes %d not above the unencoded size %d: the cases below assume it", stored, size)
	}
	// hit serves key as a full peek hit and returns its stored bytes.
	hit := func(rc *resultCache, key string) []byte {
		t.Helper()
		es, ok := rc.peekAll([]string{key})
		if !ok {
			t.Fatalf("%s not stored", key)
		}
		return rc.encoded(es[0])
	}
	check := func(rc *resultCache, reg *registry, entries int, bytes int64, evictions int64) {
		t.Helper()
		n, got := rc.lru.len(), rc.lru.total()
		if n != entries || got != bytes {
			t.Fatalf("cache holds %d entries, %d bytes; want %d, %d", n, got, entries, bytes)
		}
		if g := reg.cacheBytes.Load(); g != got {
			t.Fatalf("spstad_cache_bytes %d != accounted %d", g, got)
		}
		if e := reg.cacheEvictions.Load(); e != evictions {
			t.Fatalf("evictions %d, want %d", e, evictions)
		}
	}

	var reg registry
	rc := newResultCache(2*(size+stored), &reg)
	for _, k := range []string{"k0", "k1", "k2"} {
		rc.store(k, er)
	}
	check(rc, &reg, 3, 3*size, 0)
	if got := hit(rc, "k0"); int64(len(got)) != stored {
		t.Fatalf("stored %d bytes, want %d", len(got), stored)
	}
	check(rc, &reg, 3, 3*size+stored, 0)
	// k1's bytes take the cache over its bound: k2, the LRU tail, goes.
	hit(rc, "k1")
	check(rc, &reg, 2, 2*(size+stored), 1)
	if _, ok := rc.peekAll([]string{"k2"}); ok {
		t.Fatal("k2 not evicted")
	}
	hit(rc, "k0")
	hit(rc, "k1")
	check(rc, &reg, 2, 2*(size+stored), 1)

	var reg2 registry
	small := newResultCache(size+stored-1, &reg2)
	small.store("k0", er)
	small.store("k1", er)
	hit(small, "k0")
	check(small, &reg2, 1, size+stored, 1)
	if _, ok := small.peekAll([]string{"k0"}); !ok {
		t.Fatal("the entry being served evicted itself")
	}
}

// indentedResponse is how a /v1/analyze body encoded before responses
// could be served from stored bytes: the decoded Response through an
// indented json.Encoder.
func indentedResponse(t *testing.T, b []byte) (Response, []byte) {
	t.Helper()
	var r Response
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&r); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// TestHitBodyByteIdentical: a full /v1/analyze hit, served from its
// entries' stored bytes, is byte for byte the indented encoding of the
// Response it decodes to, with every engine marked cached and the
// body's length in Content-Length. The first hit encodes the entries,
// the second serves what the first stored.
func TestHitBodyByteIdentical(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, b := post(t, srv.URL+"/v1/netlists", `{"circuit":"s298"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %s", resp.StatusCode, b)
	}
	var up NetlistUploadResponse
	if err := json.Unmarshal(b, &up); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, body string }{
		{"spsta", `{"circuit":"s344","engine":"spsta","sigma":0.2,"epsilon":1e-4,"coarsen":"auto"}`},
		{"moment", `{"circuit":"s344","engine":"moment","sigma":0.2}`},
		{"mc", `{"circuit":"s344","engine":"mc","runs":2000}`},
		{"all", `{"circuit":"s386","engine":"all","runs":2000,"sigma":0.2}`},
		{"netlist_ref", fmt.Sprintf(`{"netlist_ref":%q}`, up.NetlistDigest)},
	}
	for _, tc := range cases {
		if resp, b := post(t, srv.URL+"/v1/analyze", tc.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s cold: %d %s", tc.name, resp.StatusCode, b)
		}
		for i := 0; i < 2; i++ {
			resp, b := post(t, srv.URL+"/v1/analyze", tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s hit %d: %d %s", tc.name, i, resp.StatusCode, b)
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(b)) {
				t.Fatalf("%s hit %d: Content-Length %q for a %d-byte body", tc.name, i, cl, len(b))
			}
			r, want := indentedResponse(t, b)
			if !bytes.Equal(b, want) {
				t.Fatalf("%s hit %d differs from the indented encoding:\n%s\nwant\n%s", tc.name, i, b, want)
			}
			for _, er := range r.Engines {
				if !er.Cached {
					t.Fatalf("%s hit %d: engine %s not marked cached", tc.name, i, er.Engine)
				}
			}
		}
	}
	// Every entry was hit, so every entry holds its bytes: the hits
	// were served from them, not re-encoded.
	svc.cache.mu.Lock()
	defer svc.cache.mu.Unlock()
	if n := svc.cache.lru.len(); n != 7 {
		t.Fatalf("%d cache entries, want 7 (spsta, moment, mc, three of all, netlist_ref)", n)
	}
	svc.cache.lru.each(func(_ string, e *cacheEntry, _ int64) {
		if e.body == nil {
			t.Fatalf("entry %s was hit but holds no stored bytes", e.key)
		}
	})
}

// requestIDs matches the per-request identity of a response body.
var requestIDs = regexp.MustCompile(`"(request_id|trace_id)": "[^"]*"`)

// TestConcurrentFirstHitsEncodeOnce sends concurrent first hits to the
// entries of one request: each entry is encoded and accounted once,
// and every reply is identical apart from its request and trace IDs.
// Concurrent first calls of encoded on one entry get the same bytes.
func TestConcurrentFirstHitsEncodeOnce(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := `{"circuit":"s344","engine":"all","runs":2000}`
	if resp, b := post(t, srv.URL+"/v1/analyze", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: %d %s", resp.StatusCode, b)
	}
	svc.cache.mu.Lock()
	before := svc.cache.lru.total()
	svc.cache.mu.Unlock()
	const n = 8
	replies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("hit %d: status %d, %v: %s", i, resp.StatusCode, err, b)
				return
			}
			replies[i] = requestIDs.ReplaceAll(b, nil)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, b := range replies {
		if !bytes.Equal(b, replies[0]) {
			t.Fatalf("hit %d differs from hit 0 apart from its IDs:\n%s\n%s", i, b, replies[0])
		}
	}
	var stored int64
	svc.cache.mu.Lock()
	after := svc.cache.lru.total()
	svc.cache.lru.each(func(_ string, e *cacheEntry, size int64) {
		if e.body == nil || size != resultBytes(&e.er)+int64(len(e.body)) {
			t.Errorf("entry %s: %d bytes accounted for a %d-byte result and %d stored bytes",
				e.key, size, resultBytes(&e.er), len(e.body))
		}
		stored += int64(len(e.body))
	})
	svc.cache.mu.Unlock()
	if after-before != stored {
		t.Fatalf("cache grew by %d bytes on its first hits, want %d: an entry was accounted more than once",
			after-before, stored)
	}

	var reg registry
	rc := newResultCache(1<<20, &reg)
	rc.store("k", EngineResult{Engine: "spsta", Endpoints: []EndpointStat{{Net: "G1"}}})
	es, _ := rc.peekAll([]string{"k"})
	got := make([][]byte, n)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = rc.encoded(es[0])
		}(i)
	}
	wg.Wait()
	for i := range got {
		if &got[i][0] != &got[0][0] {
			t.Fatalf("call %d got its own encoding", i)
		}
	}
}

// discardWriter is a ResponseWriter that keeps only the status and the
// byte count, so a benchmark measures the handler and not a copy of
// the body.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkAnalyzeHit measures a full /v1/analyze cache hit of the
// deepest synthetic circuit in process, through the handler without a
// network, and the steps the hit takes besides writing its stored
// bytes: decode (the body, the circuit through the registry, the cache
// peek), run (scope, spans and the body's pieces, the head encode
// included), merge (the scope's registry added to the service's engine
// totals), log (the slog line, as JSON like spstad's), flight (the
// flight record) and head (encoding the response without its engines).
func BenchmarkAnalyzeHit(b *testing.B) {
	svc := New(Config{MaxConcurrent: 2, Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	defer svc.Close()
	h := svc.Handler()
	const body = `{"circuit":"s1238","engine":"spsta","sigma":0.2}`
	newReq := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
	}
	serve := func() {
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, newReq())
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	serve() // stores the result
	serve() // encodes it

	// peeked decodes r and resolves and peeks its request.
	peeked := func(r *http.Request) *reqCtx {
		rc := &reqCtx{id: newRequestID(), traceID: obs.NewTraceID(), path: "/v1/analyze", label: "spsta", t0: time.Now()}
		req, err := decode(r)
		if err != nil {
			b.Fatal(err)
		}
		rc.req = req
		if rc.c, rc.digest, err = svc.resolveSource(req.Circuit, req.Bench, req.NetlistRef); err != nil {
			b.Fatal(err)
		}
		rc.hits, rc.cached = svc.cache.peekAll([]string{cacheKey(rc.digest, req, "spsta")})
		return rc
	}
	r := newReq()
	rc := peeked(r)
	resp, err := svc.execute(r, rc, svc.runAnalyze)
	if _, ok := resp.(jsonBody); !ok || err != nil {
		b.Fatalf("a full hit answered %T, %v, not its stored bytes", resp, err)
	}

	b.Run("handler", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve()
		}
	})
	b.Run("decode", func(b *testing.B) {
		reqs := make([]*http.Request, b.N)
		for i := range reqs {
			reqs[i] = newReq()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			peeked(reqs[i])
		}
	})
	b.Run("run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hit := *rc
			if _, err := svc.execute(r, &hit, svc.runAnalyze); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rc.scope.M().AddTo(&svc.reg.engine)
		}
	})
	b.Run("log", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			svc.log.Info("request", "request_id", rc.id, "trace_id", rc.traceID, "path", rc.path,
				"engine", rc.label, "circuit", rc.c.Name, "status", http.StatusOK,
				"duration_ms", float64(time.Since(rc.t0).Microseconds())/1e3,
				"cost_units", int64(0), "cached", rc.cached, "captured", false)
		}
	})
	b.Run("flight", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			svc.recordFlight(rc.summary(http.StatusOK, "", 0, time.Since(rc.t0)), rc.scope, "")
		}
	})
	b.Run("head", func(b *testing.B) {
		b.ReportAllocs()
		shell := Response{RequestID: rc.id, TraceID: rc.traceID, Circuit: rc.circuitInfo(),
			NetlistDigest: rc.digest, Scenario: rc.req.Scenario, Engines: []EngineResult{}}
		for i := 0; i < b.N; i++ {
			if _, err := encodeJSON(&shell); err != nil {
				b.Fatal(err)
			}
		}
	})
}
