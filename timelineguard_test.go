package repro

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/service"
)

// TestBenchGuardTimelineOverhead enforces the sampler's overhead
// contract (DESIGN.md §17): the timeline sampler plus the SLO
// burn-rate evaluator, ticking at an interval 100x more aggressive
// than production (10ms vs the 1s default), must add no more than 2%
// to the served request path. A tick scrapes the whole service
// registry, calls runtime.ReadMemStats, and evaluates every
// objective's burn windows — all off the request path, so what this
// bounds is the background CPU and allocator pressure the sampler
// steals from serving goroutines.
//
// Same measurement discipline as the other guards: interleaved
// min-of-N rounds against one service, with the sampler started and
// stopped around each "on" round (Store.Start is restartable), three
// trials, all three must exceed the bound to fail. Requests go
// through the handler directly (httptest.NewRecorder), so network
// jitter is out of the measurement.
func TestBenchGuardTimelineOverhead(t *testing.T) {
	if os.Getenv("BENCH_GUARD") != "1" {
		t.Skip("set BENCH_GUARD=1 (or run `make bench-guard`) to measure the timeline sampler overhead")
	}
	svc := service.New(service.Config{MaxConcurrent: 2})
	defer svc.Close()
	h := svc.Handler()

	const body = `{"circuit":"s208"}`
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("analyze: %d %s", w.Code, w.Body.String())
		}
	}
	serve() // fill the result cache; every timed request is a hot hit

	// One round is enough hot requests to span many 10ms sampler
	// ticks, so a round with the sampler on absorbs its full duty
	// cycle rather than racing between ticks.
	const perRound = 400
	round := func(sampled bool) time.Duration {
		if sampled {
			svc.Timeline().Start(10 * time.Millisecond)
			defer svc.Timeline().Stop()
		}
		t0 := time.Now()
		for i := 0; i < perRound; i++ {
			serve()
		}
		return time.Since(t0)
	}

	guardOverhead(t, "timeline sampler", 40, 3, "sampler off %v/round, on %v/round, overhead %+.2f%%",
		func() time.Duration { return round(false) }, func() time.Duration { return round(true) })
}

// TestBenchGuardSoak is the short-mode soak gate: a few seconds of
// the same closed-loop mixed hot/cold/delta load that `make soak`
// runs for a minute, against an in-process spstad with soak-tuned
// burn windows. It applies cmd/spstasoak's gate (loadgen's
// Report.Gate, at its default bounds) — any SLO objective burning
// server-side, any request error, client p99 over 500ms, or a
// rejection rate over 1% — so `make check` (which runs bench-guard)
// catches serving-layer regressions without the full minute.
func TestBenchGuardSoak(t *testing.T) {
	if os.Getenv("BENCH_GUARD") != "1" {
		t.Skip("set BENCH_GUARD=1 (or run `make bench-guard`) to run the short soak gate")
	}
	svc := service.New(service.Config{
		MaxQueue:         16,
		TimelineInterval: 100 * time.Millisecond,
		SLOFastWindow:    2 * time.Second,
		SLOSlowWindow:    8 * time.Second,
		DebugDir:         t.TempDir(),
		CaptureCPU:       200 * time.Millisecond,
	})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	mix, err := loadgen.ParseMix("hot=0.6,cold=0.2,delta=0.2")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:     base,
		Duration:    8 * time.Second,
		Concurrency: 4,
		Circuits:    []string{"s344", "s1196"},
		Mix:         mix,
		Runs:        2000,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if all := rep.Class(loadgen.ClassAll); all != nil {
		t.Logf("%d requests (%.0f req/s): p50 %.4fs p99 %.4fs, %d errors, %d rejected",
			rep.Requests, rep.ReqPerSec, all.P50Sec, all.P99Sec, all.Errors, all.Rejected)
	}

	resp, err := http.Get(base + "/debug/slo?window=10s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var slo struct {
		Burning []string `json:"burning"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&slo); err != nil {
		t.Fatal(err)
	}
	rep.SLO = &loadgen.SLOSummary{Violations: slo.Burning}
	for _, f := range rep.Gate(loadgen.DefaultP99Limit, loadgen.DefaultRejectionBudget) {
		t.Error("soak gate:", f)
	}
}
