package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
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
// checks the accounting, plus TTL expiry.
func TestResultCacheEviction(t *testing.T) {
	var reg registry
	rc := newResultCache(600, 0, &reg)
	er := EngineResult{Engine: "spsta", Endpoints: []EndpointStat{{Net: "some-endpoint-net"}}}
	for i := 0; i < 10; i++ {
		rc.store(fmt.Sprintf("key-%d", i), er)
	}
	entries, bytes := rc.stats()
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

	ttl := newResultCache(1<<20, time.Nanosecond, &reg)
	ttl.store("k", er)
	time.Sleep(time.Millisecond)
	if _, src, _ := ttl.getOrCompute("k", func() (EngineResult, error) { return er, nil }); src != cacheComputed {
		t.Fatalf("expired entry served as %v", src)
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
	rc := newResultCache(1<<20, 0, &reg)
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
	if entries, _ := rc.stats(); entries != 0 {
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
