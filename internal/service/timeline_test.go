package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/timeline"
)

// sampleNow drives one timeline tick by hand; tests never start the
// sampler goroutine, so SLO state changes exactly when they say so.
func sampleNow(t *testing.T, svc *Service) {
	t.Helper()
	svc.Timeline().Sample()
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

// TestTimelineEndpoints drives real traffic, samples, and checks
// /debug/timeline serves the scraped series and /debug/slo the
// windowed percentiles.
func TestTimelineEndpoints(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	sampleNow(t, svc) // baseline tick before any traffic
	for i := 0; i < 3; i++ {
		if resp, b := post(t, srv.URL+"/v1/analyze", `{"circuit":"s208"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze: %d %s", resp.StatusCode, b)
		}
	}
	sampleNow(t, svc)

	var tl TimelineResponse
	getJSON(t, srv.URL+"/debug/timeline?window=1m", &tl)
	if tl.Samples != 2 {
		t.Errorf("samples = %d, want 2", tl.Samples)
	}
	byName := map[string]int{}
	for _, sd := range tl.Series {
		byName[sd.Name] = len(sd.Points)
	}
	for _, want := range []string{
		"req.total.count", "req.spsta.count", "req.total.latency",
		"pool.queue_depth", "pool.rejected", "cache.lookups",
		"runtime.goroutines", "cost",
	} {
		if byName[want] == 0 {
			t.Errorf("series %s missing or empty in /debug/timeline (have %v)", want, byName)
		}
	}

	// Series filtering and point capping.
	getJSON(t, srv.URL+"/debug/timeline?series=req.total.count&points=1", &tl)
	if len(tl.Series) != 1 || tl.Series[0].Name != "req.total.count" || len(tl.Series[0].Points) != 1 {
		t.Errorf("filtered query returned %+v", tl.Series)
	}
	// The three analyze requests show up as the windowed count.
	if resp, err := http.Get(srv.URL + "/debug/timeline?window=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad window accepted: %v", resp.Status)
	} else {
		resp.Body.Close()
	}

	var slo SLOResponse
	getJSON(t, srv.URL+"/debug/slo?window=1m", &slo)
	if len(slo.Burning) != 0 {
		t.Errorf("healthy service burning: %v", slo.Burning)
	}
	if len(slo.Objectives) == 0 {
		t.Fatal("no objectives in /debug/slo")
	}
	var total *LatencySummary
	for i := range slo.Latency {
		if slo.Latency[i].Series == "req.total.latency" {
			total = &slo.Latency[i]
		}
	}
	if total == nil || total.Count != 3 {
		t.Fatalf("req.total.latency summary = %+v, want count 3", total)
	}
	if total.P99 < total.P50 || total.P50 <= 0 {
		t.Errorf("interpolated percentiles out of order: p50 %g p99 %g", total.P50, total.P99)
	}
}

// TestDefaultObjectivesTable pins /debug/slo's objective table to the
// fixed set: the three objectives, their kinds, series, targets and
// thresholds, and the burn windows at thresholds 2 and 1, under the
// Config spstad builds from its flag defaults (1m/5m windows) and the
// one cmd/spstasoak builds (5s/20s).
func TestDefaultObjectivesTable(t *testing.T) {
	budget := 0.01
	for _, tc := range []struct {
		name       string
		fast, slow time.Duration
	}{
		{"spstad", time.Minute, 5 * time.Minute},
		{"spstasoak", 5 * time.Second, 20 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(Config{
				SLOLatencyThreshold: 0.5,
				SLORejectionBudget:  budget,
				SLOFastWindow:       tc.fast,
				SLOSlowWindow:       tc.slow,
			})
			defer svc.Close()
			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()

			windows := []timeline.BurnWindow{
				{Window: tc.fast, Threshold: 2},
				{Window: tc.slow, Threshold: 1},
			}
			want := []timeline.Objective{
				{
					Name: "availability", Kind: timeline.KindRatio,
					Bad: "req.total.errors", Total: "req.total.count",
					Target: 0.99, Windows: windows,
				},
				{
					Name: "latency-p99", Kind: timeline.KindLatency,
					Hist: "req.total.latency", Threshold: 0.5,
					Target: 0.99, Windows: windows,
				},
				{
					Name: "rejection-rate", Kind: timeline.KindRatio,
					Bad: "pool.rejected", Total: "req.total.count",
					Target: 1 - budget, Windows: windows,
				},
			}
			var slo SLOResponse
			getJSON(t, srv.URL+"/debug/slo", &slo)
			var got []timeline.Objective
			for _, st := range slo.Objectives {
				got = append(got, st.Objective)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("/debug/slo objectives\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestSLOForcedViolationAutoCapture occupies every worker slot so
// requests reject instantly, samples the violation, and asserts the
// burn fires, the capture bundle lands under DebugDir with all its
// artifacts, and /debug/captures serves them.
func TestSLOForcedViolationAutoCapture(t *testing.T) {
	dir := t.TempDir()
	svc := New(Config{
		MaxConcurrent: 1,
		MaxQueue:      -1, // no queue: a busy service rejects instantly
		DebugDir:      dir,
		CaptureCPU:    50 * time.Millisecond,
	})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	sampleNow(t, svc) // baseline

	// Occupy the only slot, then hammer: every request is a 429.
	svc.slots <- struct{}{}
	for i := 0; i < 10; i++ {
		resp, _ := post(t, srv.URL+"/v1/analyze", `{"circuit":"s208"}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("expected 429 with slots full, got %d", resp.StatusCode)
		}
	}
	sampleNow(t, svc) // evaluation tick: rejection objective burns

	burning := svc.Timeline().SLO().Burning()
	found := false
	for _, name := range burning {
		found = found || name == objRejection
	}
	if !found {
		t.Fatalf("rejection objective not burning after forced 429s (burning: %v)", burning)
	}

	// The capture goroutine writes meta.json last; wait for it.
	var bundle string
	deadline := time.Now().Add(10 * time.Second)
	for bundle == "" && time.Now().Before(deadline) {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if _, err := os.Stat(filepath.Join(dir, e.Name(), "meta.json")); err == nil {
				bundle = e.Name()
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if bundle == "" {
		t.Fatal("no complete capture bundle appeared")
	}
	for _, f := range []string{"cpu.pprof", "heap.pprof", "flight.json", "timeline.json", "slo.json", "meta.json"} {
		fi, err := os.Stat(filepath.Join(dir, bundle, f))
		if err != nil || fi.Size() == 0 {
			t.Errorf("bundle artifact %s missing or empty: %v", f, err)
		}
	}

	// The bundle's timeline window shows the rejection counter moving.
	var tlBundle TimelineResponse
	raw, err := os.ReadFile(filepath.Join(dir, bundle, "timeline.json"))
	if err != nil || json.Unmarshal(raw, &tlBundle) != nil {
		t.Fatalf("bundle timeline.json unreadable: %v", err)
	}
	sawRejected := false
	for _, sd := range tlBundle.Series {
		if sd.Name == seriesRejected && len(sd.Points) > 0 && sd.Points[len(sd.Points)-1].V >= 10 {
			sawRejected = true
		}
	}
	if !sawRejected {
		t.Error("bundle timeline window does not show the rejected counter at >= 10")
	}

	// /debug/captures lists the bundle complete and serves artifacts.
	var caps struct {
		Captures []CaptureInfo `json:"captures"`
	}
	getJSON(t, srv.URL+"/debug/captures", &caps)
	if len(caps.Captures) == 0 || !caps.Captures[0].Complete {
		t.Fatalf("captures listing = %+v, want one complete bundle", caps.Captures)
	}
	resp, err := http.Get(srv.URL + "/debug/captures/" + bundle + "/meta.json")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("capture artifact fetch failed: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	if resp, err := http.Get(srv.URL + "/debug/captures/../escape/meta.json"); err == nil {
		// Path traversal must not reach the filesystem. Go's mux
		// already cleans the path; anything that gets through must 400.
		if resp.StatusCode == http.StatusOK {
			t.Error("path traversal served a file")
		}
		resp.Body.Close()
	}

	// Prometheus exposes the burn.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := new(strings.Builder)
	if _, err := io.Copy(mb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if !strings.Contains(mb.String(), `spstad_slo_burning{objective="rejection-rate"} 1`) {
		t.Error("spstad_slo_burning{objective=\"rejection-rate\"} not 1 in /metrics")
	}
	if !strings.Contains(mb.String(), "spstad_slo_captures_total 1") {
		t.Error("spstad_slo_captures_total not 1 in /metrics")
	}

	// A request finishing during the incident carries it in its
	// flight-recorder summary.
	<-svc.slots // release the slot
	if resp, b := post(t, srv.URL+"/v1/analyze", `{"circuit":"s208"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-incident analyze: %d %s", resp.StatusCode, b)
	}
	var flight struct {
		Requests []RequestSummary `json:"requests"`
	}
	getJSON(t, srv.URL+"/debug/requests", &flight)
	if len(flight.Requests) == 0 {
		t.Fatal("flight recorder empty")
	}
	newest := flight.Requests[0]
	hasRej := false
	for _, name := range newest.SLOBurning {
		hasRej = hasRej || name == objRejection
	}
	if !hasRej {
		t.Errorf("newest flight summary slo_burning = %v, want %s", newest.SLOBurning, objRejection)
	}
}

// TestSLOP99AgreesWithClientMeasurement checks the acceptance
// contract: /debug/slo's interpolated p99 for req.total.latency lands
// within one histogram bucket of the client-side measured p99.
func TestSLOP99AgreesWithClientMeasurement(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Warm up before the baseline sample so first-request setup cost
	// (netlist generation, cache fill) stays out of the measured window
	// on both sides. The measured requests are cold Monte Carlo runs:
	// tens of milliseconds of server compute each, so the client-side
	// transport overhead (a few ms) is small against the bucket width
	// at that latency range.
	post(t, srv.URL+"/v1/analyze", `{"circuit":"s1196","engine":"mc","runs":3000,"seed":999}`)
	sampleNow(t, svc)
	var counts [len(latencyBounds) + 1]int64
	for i := 0; i < 30; i++ {
		t0 := time.Now()
		body := fmt.Sprintf(`{"circuit":"s1196","engine":"mc","runs":3000,"seed":%d}`, i+1)
		if resp, b := post(t, srv.URL+"/v1/analyze", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze: %d %s", resp.StatusCode, b)
		}
		counts[bucketIndex(time.Since(t0).Seconds())]++
	}
	sampleNow(t, svc)

	// Run the client measurements through the same bucket+interpolation
	// estimator the server uses, so the comparison isolates the
	// client/server latency gap rather than quantile-definition
	// differences (nearest-rank vs interpolated).
	clientP99 := obs.HistQuantile(latencyBounds[:], counts[:], 0.99)

	var slo SLOResponse
	getJSON(t, srv.URL+"/debug/slo?window=1m", &slo)
	var serverP99 float64
	for _, ls := range slo.Latency {
		if ls.Series == "req.total.latency" {
			serverP99 = ls.P99
		}
	}
	if serverP99 <= 0 {
		t.Fatal("no server-side p99 for req.total.latency")
	}

	// Client latency includes HTTP client overhead the server never
	// sees, so exact equality is impossible; the contract is bucket
	// resolution — the two estimates land in the same or adjacent
	// latency buckets.
	ci, si := bucketIndex(clientP99), bucketIndex(serverP99)
	if d := ci - si; d < -1 || d > 1 {
		t.Errorf("client p99 %.4fs (bucket %d) vs server p99 %.4fs (bucket %d): more than one bucket apart",
			clientP99, ci, serverP99, si)
	}
}

func bucketIndex(v float64) int {
	i := 0
	for i < len(latencyBounds) && v > latencyBounds[i] {
		i++
	}
	return i
}

// TestFlightSinceFilter pins the ?since= time filter on
// /debug/requests in its three accepted spellings.
func TestFlightSinceFilter(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	post(t, srv.URL+"/v1/analyze", `{"circuit":"s208"}`)
	time.Sleep(10 * time.Millisecond)
	cut := time.Now()
	time.Sleep(10 * time.Millisecond)
	post(t, srv.URL+"/v1/analyze", `{"circuit":"s208","engine":"moment"}`)

	var out struct {
		Total    int64            `json:"total_recorded"`
		Requests []RequestSummary `json:"requests"`
	}
	getJSON(t, srv.URL+"/debug/requests", &out)
	if len(out.Requests) != 2 || out.Total != 2 {
		t.Fatalf("unfiltered list: %d requests, total %d", len(out.Requests), out.Total)
	}

	getJSON(t, srv.URL+"/debug/requests?since="+cut.UTC().Format("2006-01-02T15:04:05.999999999Z07:00"), &out)
	if len(out.Requests) != 1 || out.Requests[0].Engine != "moment" {
		t.Fatalf("RFC3339 since filter returned %+v", out.Requests)
	}
	if out.Total != 2 {
		t.Errorf("total_recorded = %d, want the unfiltered 2", out.Total)
	}

	// Duration spelling: everything within the last hour.
	getJSON(t, srv.URL+"/debug/requests?since=1h", &out)
	if len(out.Requests) != 2 {
		t.Errorf("duration since filter returned %d requests, want 2", len(out.Requests))
	}

	// Unix-seconds spelling.
	if resp, err := http.Get(srv.URL + "/debug/requests?since=not-a-time"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad since accepted: %v", resp.Status)
	} else {
		resp.Body.Close()
	}
	ts, err := parseSince("1700000000", time.Now())
	if err != nil || ts.Unix() != 1700000000 {
		t.Errorf("unix-seconds parse = %v, %v", ts, err)
	}
}

// TestTimelineDisabledSampler: with TimelineInterval zero the store
// exists but takes no automatic samples; Close is still clean.
func TestTimelineDisabledSampler(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1})
	if svc.Timeline().Samples() != 0 {
		t.Errorf("samples = %d before any Sample call", svc.Timeline().Samples())
	}
	svc.Close()
}
