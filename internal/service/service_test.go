package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// promLine matches one Prometheus text-exposition sample line:
// metric name, optional label set, a float value.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

// checkPrometheus asserts the body parses as Prometheus text format
// and returns the sample lines by metric prefix.
func checkPrometheus(t *testing.T, body string) []string {
	t.Helper()
	var samples []string
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("line does not parse as a Prometheus sample: %q", line)
		}
		samples = append(samples, line)
	}
	if len(samples) == 0 {
		t.Fatal("no samples in /metrics output")
	}
	return samples
}

func sampleValue(t *testing.T, samples []string, prefix string) string {
	t.Helper()
	for _, s := range samples {
		if strings.HasPrefix(s, prefix) {
			f := strings.Fields(s)
			return f[len(f)-1]
		}
	}
	t.Fatalf("no sample with prefix %q", prefix)
	return ""
}

// TestSpstadSmoke is the end-to-end daemon smoke test run by `make
// check`: start the service on an ephemeral port with the real wiring,
// post an analyze request, scrape /metrics as Prometheus text, and
// shut down gracefully.
func TestSpstadSmoke(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, body := post(t, srv.URL+"/v1/analyze", `{"circuit":"s208","engine":"all","runs":500}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d, body %s", resp.StatusCode, body)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("analyze response is not JSON: %v", err)
	}
	if r.RequestID == "" || len(r.Engines) != 3 {
		t.Fatalf("bad response: id %q, %d engines", r.RequestID, len(r.Engines))
	}
	for _, er := range r.Engines {
		if len(er.Endpoints) == 0 {
			t.Errorf("engine %s returned no endpoints", er.Engine)
		}
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		hr, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", path, hr.StatusCode)
		}
	}

	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	samples := checkPrometheus(t, string(mb))
	if got := sampleValue(t, samples, `spstad_requests_total{engine="all"}`); got != "1" {
		t.Errorf(`requests_total{engine="all"} = %s, want 1`, got)
	}
	if got := sampleValue(t, samples, "spstad_engine_mc_runs_total"); got != "500" {
		t.Errorf("engine_mc_runs_total = %s, want 500", got)
	}

	// Graceful shutdown: readiness flips before the listener closes.
	svc.Close()
	rr, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after Close = %d, want 503", rr.StatusCode)
	}
}

// TestConcurrentRequestsIsolated posts several concurrent requests
// for different circuits and checks they all succeed and that the
// service-level counters account for every one. Run under -race this
// also exercises the per-request scope isolation end to end.
func TestConcurrentRequestsIsolated(t *testing.T) {
	svc := New(Config{MaxConcurrent: 4})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	circuits := []string{"s208", "s298", "s344", "s349"}
	var wg sync.WaitGroup
	errs := make([]error, len(circuits))
	for i, name := range circuits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, srv.URL+"/v1/analyze",
				fmt.Sprintf(`{"circuit":%q,"engine":"spsta"}`, name))
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("%s: status %d: %s", name, resp.StatusCode, body)
				return
			}
			var r Response
			if err := json.Unmarshal(body, &r); err != nil {
				errs[i] = err
				return
			}
			if r.Circuit.Name != name {
				errs[i] = fmt.Errorf("response circuit %q, want %q", r.Circuit.Name, name)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := svc.reg.requests[engineIndex("spsta")].Load(); got != int64(len(circuits)) {
		t.Errorf("spsta requests counted = %d, want %d", got, len(circuits))
	}
	if got := svc.reg.errors[engineIndex("spsta")].Load(); got != 0 {
		t.Errorf("spsta errors counted = %d, want 0", got)
	}
}

// TestCompareEndpoint checks /v1/compare returns per-endpoint
// deviations and that SPSTA stays near the Monte Carlo reference.
func TestCompareEndpoint(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, body := post(t, srv.URL+"/v1/compare", `{"circuit":"s208","runs":4000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare status = %d, body %s", resp.StatusCode, body)
	}
	var r CompareResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("compare returned no rows")
	}
	// SPSTA's independence assumption lets individual low-activity
	// endpoints drift from simulation by a gate delay or two, but a
	// deviation on the order of the circuit depth would mean the
	// comparison paired up the wrong statistics.
	if r.MaxMuDev < 0 || r.MaxMuDev > float64(r.Circuit.Depth) {
		t.Errorf("max mean deviation %v out of [0, depth=%d]", r.MaxMuDev, r.Circuit.Depth)
	}
	if got := svc.reg.requests[engineIndex("compare")].Load(); got != 1 {
		t.Errorf("compare requests counted = %d, want 1", got)
	}
}

// TestQueueRejection fills the single worker slot and disables
// queueing: the next request must be rejected with 429 and counted.
func TestQueueRejection(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	svc.slots <- struct{}{} // occupy the only slot
	defer func() { <-svc.slots }()
	resp, body := post(t, srv.URL+"/v1/analyze", `{"circuit":"s208"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if got := svc.reg.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	if got := svc.reg.errors[engineIndex("spsta")].Load(); got != 1 {
		t.Errorf("spsta error counter = %d, want 1", got)
	}
}

// TestBadRequests exercises the validation surface.
func TestBadRequests(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, body := range []string{
		`{"circuit":"s208","engine":"warp"}`,
		`{"engine":"spsta"}`,
		`{"circuit":"s208","bench":"INPUT(a)"}`,
		`{"circuit":"nope"}`,
		`{"circuit":"s208","scenario":"III"}`,
		`{"circuit":"s208","sigma":-0.5}`,
		`not json`,
	} {
		for _, path := range []string{"/v1/analyze", "/v1/compare"} {
			resp, b := post(t, srv.URL+path, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s body %s: status = %d, want 400 (%s)", path, body, resp.StatusCode, b)
			}
		}
	}
}

// TestBatchedRequestKnobs exercises the batched request field end to
// end: batched and sequential analyzes succeed, invalid values and
// unknown fields (including the retired precision knob) 400, and the
// batch counters (levels, FFT plans, slab reuse) show up in /metrics
// after a batched request ran.
func TestBatchedRequestKnobs(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, body := range []string{
		`{"circuit":"s208","sigma":0.2}`,
		`{"circuit":"s208","batched":"off"}`,
		`{"circuit":"s208","engine":"all","runs":200,"batched":"on"}`,
	} {
		resp, b := post(t, srv.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %s: status = %d (%s)", body, resp.StatusCode, b)
		}
	}
	for _, body := range []string{
		`{"circuit":"s208","batched":"maybe"}`,
		`{"circuit":"s208","sigma":0.2,"precision":"f32"}`,
		`{"circuit":"s208","precision":"f64"}`,
		`{"circuit":"s208","precision":"f16"}`,
		`{"circuit":"s208","engine":"mc","precision":"f32"}`,
		`{"circuit":"s208","engine":"moment","batched":"off"}`,
	} {
		resp, b := post(t, srv.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status = %d, want 400 (%s)", body, resp.StatusCode, b)
		}
	}

	var buf bytes.Buffer
	svc.reg.writePrometheus(&buf)
	samples := checkPrometheus(t, buf.String())
	if got := sampleValue(t, samples, "spstad_engine_batch_levels_total"); got == "0" {
		t.Error("batch_levels_total = 0 after batched requests")
	}
	sampleValue(t, samples, `spstad_engine_fft_plans_total{result="hit"}`)
	sampleValue(t, samples, `spstad_engine_fft_plans_total{result="miss"}`)
	sampleValue(t, samples, "spstad_engine_slab_bytes_reused_total")
	sampleValue(t, samples, "spstad_engine_batch_nets_total")
}

// TestCoarsenRequestKnob exercises the coarsen request field end to
// end: fixed and auto analyzes succeed (auto on the deepest circuit so
// it actually fires), the invalid spellings and engine combinations
// 400, and the re-binning counters show up in /metrics afterwards.
func TestCoarsenRequestKnob(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, body := range []string{
		`{"circuit":"s1196","coarsen":"auto","epsilon":0.0001}`,
		`{"circuit":"s208","coarsen":"fixed"}`,
		`{"circuit":"s208","engine":"all","runs":200,"coarsen":"auto"}`,
	} {
		resp, b := post(t, srv.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %s: status = %d (%s)", body, resp.StatusCode, b)
		}
	}
	for _, body := range []string{
		`{"circuit":"s208","coarsen":"maybe"}`,
		`{"circuit":"s208","engine":"mc","coarsen":"auto"}`,
		`{"circuit":"s208","engine":"moment","coarsen":"fixed"}`,
	} {
		resp, b := post(t, srv.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status = %d, want 400 (%s)", body, resp.StatusCode, b)
		}
	}

	var buf bytes.Buffer
	svc.reg.writePrometheus(&buf)
	samples := checkPrometheus(t, buf.String())
	if got := sampleValue(t, samples, "spstad_engine_rebin_calls_total"); got == "0" {
		t.Error("rebin_calls_total = 0 after coarsening requests")
	}
	if got := sampleValue(t, samples, "spstad_engine_rebin_levels_total"); got == "0" {
		t.Error("rebin_levels_total = 0 after coarsening requests")
	}
	sampleValue(t, samples, "spstad_engine_rebin_deviation_total")
	sampleValue(t, samples, "spstad_engine_support_width_peak_bins")
	sampleValue(t, samples, "spstad_engine_slab_bytes_peak")
	sampleValue(t, samples, `spstad_engine_conv_plans_total{result="hit"}`)
}

// TestDriftMonitor samples a request and runs one drift replay: the
// deviation gauges and sample counter must show up in /metrics.
func TestDriftMonitor(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2, DriftRuns: 1000})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if err := svc.RunDriftCheck(); err != nil {
		t.Fatalf("drift check with no sample: %v", err)
	}
	if got := svc.reg.driftSamples.Load(); got != 0 {
		t.Fatalf("drift samples before any request = %d, want 0", got)
	}

	resp, body := post(t, srv.URL+"/v1/analyze", `{"circuit":"s298"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d: %s", resp.StatusCode, body)
	}
	if err := svc.RunDriftCheck(); err != nil {
		t.Fatal(err)
	}
	if got := svc.reg.driftSamples.Load(); got != 1 {
		t.Errorf("drift samples = %d, want 1", got)
	}

	var buf bytes.Buffer
	svc.reg.writePrometheus(&buf)
	samples := checkPrometheus(t, buf.String())
	if got := sampleValue(t, samples, "spstad_drift_samples_total"); got != "1" {
		t.Errorf("drift_samples_total = %s, want 1", got)
	}
	// Deterministic unit delays at 1000 runs keep SPSTA within a
	// fraction of a gate delay of simulation; a huge deviation means
	// the replay compared the wrong statistics.
	sampleValue(t, samples, "spstad_drift_mean_deviation")
}

// TestTraceFile checks per-request trace emission: the response names
// a file in the configured directory holding a trace JSON document
// with the span/dropped metadata block.
func TestTraceFile(t *testing.T) {
	dir := t.TempDir()
	svc := New(Config{MaxConcurrent: 1, TraceDir: dir})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, body := post(t, srv.URL+"/v1/analyze", `{"circuit":"s208","trace":true,"workers":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.TraceFile == "" {
		t.Fatal("no trace file in response")
	}
	b, err := os.ReadFile(r.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
		Metadata    struct {
			Spans     int   `json:"spans"`
			Dropped   int64 `json:"dropped"`
			MaxEvents int   `json:"max_events"`
		} `json:"metadata"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 || doc.Metadata.Spans == 0 {
		t.Errorf("trace has %d events, metadata spans %d; want > 0",
			len(doc.TraceEvents), doc.Metadata.Spans)
	}
}
