package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/synth"
)

// TestBenchGuardCacheAndDelta enforces the serving-layer performance
// contracts introduced with the netlist registry, result cache and
// /v1/delta (DESIGN.md §16), measured end to end through HTTP on the
// two deepest benchmark circuits:
//
//   - cache hit: the p99 of repeated identical /v1/analyze requests
//     must be at least 50x faster than the cold request that filled
//     the entry. A hit is a map lookup plus writing the entry's stored
//     response bytes between a small per-request head and tail;
//     everything engine-shaped, and the encoding of the results, has
//     left the path.
//   - delta: a warm single-edit /v1/delta (deepest gate, so the
//     recomputed fanout cone is small) must be at least 5x faster
//     than a full uncached re-analysis of the same configuration.
//   - single-flight: concurrent identical cold requests run the
//     engine exactly once — the Monte Carlo runs counter, which only
//     the engine increments, equals one request's worth.
//
// Opt-in via BENCH_GUARD=1 like the other guards.
func TestBenchGuardCacheAndDelta(t *testing.T) {
	if os.Getenv("BENCH_GUARD") != "1" {
		t.Skip("set BENCH_GUARD=1 (or run `make bench-guard`) to measure cache and delta latency")
	}
	for _, name := range deepestProfiles(t, 2) {
		t.Run(name, func(t *testing.T) {
			guardCacheHit(t, name)
			guardDelta(t, name)
		})
	}
	guardSingleFlight(t)
}

func guardPost(t *testing.T, url, body string) ([]byte, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	el := time.Since(start)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, b)
	}
	return b, el
}

// guardCacheHit: cold request vs p99 over repeated identical hits.
func guardCacheHit(t *testing.T, name string) {
	svc := service.New(service.Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := fmt.Sprintf(`{"circuit":%q,"engine":"spsta","sigma":0.2}`, name)
	_, cold := guardPost(t, srv.URL+"/v1/analyze", body)

	b, _ := guardPost(t, srv.URL+"/v1/analyze", body)
	var r service.Response
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Engines[0].Cached {
		t.Fatal("second identical request was not served from the cache")
	}

	// Per-round p99 with the best round kept, the latency analogue of
	// the min-of-N timing the other guards use: one GC pause or
	// scheduler blip in a round's tail does not condemn the cache.
	const rounds, hits = 3, 200
	p99, p50 := time.Hour, time.Duration(0)
	for round := 0; round < rounds; round++ {
		runtime.GC()
		lat := make([]time.Duration, hits)
		for i := range lat {
			_, lat[i] = guardPost(t, srv.URL+"/v1/analyze", body)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		if q := lat[len(lat)*99/100]; q < p99 {
			p99, p50 = q, lat[len(lat)/2]
		}
	}
	ratio := float64(cold) / float64(p99)
	t.Logf("%s: cold %v, hit p50 %v p99 %v, speedup %.0fx", name, cold, p50, p99, ratio)
	if ratio < 50 {
		t.Errorf("cache-hit p99 %v only %.1fx faster than cold %v on %s, want >= 50x",
			p99, ratio, cold, name)
	}
}

// guardDelta: warm single-edit delta vs full uncached re-analysis.
// The edited gate is the deepest combinational node (deterministic
// tie-break by name), so the recomputed cone is a small tail of the
// circuit — the case incremental analysis exists for.
func guardDelta(t *testing.T, name string) {
	// Cache disabled so every /v1/analyze measures a real engine run.
	svc := service.New(service.Config{MaxConcurrent: 2, CacheBytes: -1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	p, ok := synth.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	gate := ""
	best := -1
	for _, n := range c.Nodes {
		if n.Type.Combinational() && (n.Level > best || (n.Level == best && n.Name < gate)) {
			gate, best = n.Name, n.Level
		}
	}

	analyzeBody := fmt.Sprintf(`{"circuit":%q,"engine":"spsta","sigma":0.2}`, name)
	deltaBody := func(mu float64) string {
		return fmt.Sprintf(`{"circuit":%q,"sigma":0.2,"edits":[{"gate":%q,"mu":%g,"sigma":0.2}]}`,
			name, gate, mu)
	}
	guardPost(t, srv.URL+"/v1/analyze", analyzeBody)  // warm-up
	guardPost(t, srv.URL+"/v1/delta", deltaBody(1.1)) // hydrate the session

	const rounds = 5
	minFull, minDelta := time.Hour, time.Hour
	nets := -1
	for r := 0; r < rounds; r++ {
		if _, el := guardPost(t, srv.URL+"/v1/analyze", analyzeBody); el < minFull {
			minFull = el
		}
		// A different mu each round so the reconcile always recomputes.
		b, el := guardPost(t, srv.URL+"/v1/delta", deltaBody(1.2+float64(r)*0.1))
		if el < minDelta {
			minDelta = el
		}
		var dr service.DeltaResponse
		if err := json.Unmarshal(b, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.Session != "warm" {
			t.Fatalf("round %d: session %q, want warm", r, dr.Session)
		}
		nets = dr.NetsRecomputed
	}
	ratio := float64(minFull) / float64(minDelta)
	t.Logf("%s: full %v, single-edit delta %v (%d nets recomputed), speedup %.1fx",
		name, minFull, minDelta, nets, ratio)
	if ratio < 5 {
		t.Errorf("single-edit delta %v only %.1fx faster than full %v on %s, want >= 5x",
			minDelta, ratio, minFull, name)
	}
}

// guardSingleFlight: concurrent identical cold requests collapse to
// one engine run, verified by the engine-side runs counter.
func guardSingleFlight(t *testing.T) {
	svc := service.New(service.Config{MaxConcurrent: 4})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const n = 8
	const runs = 100000
	body := fmt.Sprintf(`{"circuit":"s1238","engine":"mc","runs":%d,"seed":3}`, runs)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exposition, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(exposition), "\n") {
		if rest, ok := strings.CutPrefix(line, "spstad_engine_mc_runs_total "); ok {
			if strings.TrimSpace(rest) != fmt.Sprint(runs) {
				t.Fatalf("spstad_engine_mc_runs_total %s after %d concurrent identical requests, "+
					"want %d (exactly one engine run)", rest, n, runs)
			}
			t.Logf("single-flight: %d concurrent requests, engine ran once (%d mc runs)", n, runs)
			return
		}
	}
	t.Fatal("spstad_engine_mc_runs_total not found in exposition")
}
