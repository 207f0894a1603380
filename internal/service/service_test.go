package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/synth"
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
// post an analyze, a compare and a delta request, scrape /metrics as
// Prometheus text, and shut down gracefully.
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
	for path, body := range map[string]string{
		"/v1/compare": `{"circuit":"s208","runs":500}`,
		"/v1/delta":   `{"circuit":"s208","edits":[]}`,
	} {
		if resp, b := post(t, srv.URL+path, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d, body %s", path, resp.StatusCode, b)
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
	for _, label := range []string{"all", "compare", "delta"} {
		if got := sampleValue(t, samples, `spstad_requests_total{engine="`+label+`"}`); got != "1" {
			t.Errorf(`requests_total{engine=%q} = %s, want 1`, label, got)
		}
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
	if got := svc.reg.latency[engineIndex("spsta")].count.Load(); got != int64(len(circuits)) {
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
	if got := svc.reg.latency[engineIndex("compare")].count.Load(); got != 1 {
		t.Errorf("compare requests counted = %d, want 1", got)
	}
}

// TestMCMomentNetsMatchFullRun checks that restricting the mc engine's
// moments to the endpoints (montecarlo.Config.MomentNets) changes no
// number a response carries: the mc endpoint statistics of an analyze
// and of a compare response equal, bit for bit, a Simulate of the same
// request that keeps moments at every net.
func TestMCMomentNetsMatchFullRun(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	full := func(req Request) *montecarlo.Result {
		t.Helper()
		c, _, err := svc.resolveSource(req.Circuit, "", "")
		if err != nil {
			t.Fatal(err)
		}
		res, err := montecarlo.Simulate(c, scenarioInputs(c, req.Scenario), montecarlo.Config{
			Runs: req.Runs, Seed: req.Seed, Workers: req.mcWorkers(), Delay: req.delay(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	endpoint := func(res *montecarlo.Result, name string) (rise, fall DirStat) {
		t.Helper()
		n, ok := res.C.Node(name)
		if !ok {
			t.Fatalf("response names unknown net %q", name)
		}
		ra, fa := res.Arrival(n.ID, ssta.DirRise), res.Arrival(n.ID, ssta.DirFall)
		return DirStat{Mu: ra.Mean(), Sigma: ra.Sigma(), P: res.P(n.ID, logic.Rise)},
			DirStat{Mu: fa.Mean(), Sigma: fa.Sigma(), P: res.P(n.ID, logic.Fall)}
	}

	analyze := Request{Circuit: "s344", Engine: "mc", Sigma: 0.2, Workers: 3, Runs: 999, Seed: 7}
	resp, body := post(t, srv.URL+"/v1/analyze", string(mustMarshal(t, analyze)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d: %s", resp.StatusCode, body)
	}
	var ar Response
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	want := full(analyze)
	if len(ar.Engines) != 1 || len(ar.Engines[0].Endpoints) == 0 {
		t.Fatalf("analyze returned %d engines", len(ar.Engines))
	}
	for _, got := range ar.Engines[0].Endpoints {
		n, _ := want.C.Node(got.Net)
		rise, fall := endpoint(want, got.Net)
		if got.Rise != rise || got.Fall != fall ||
			got.P0 != want.P(n.ID, logic.Zero) || got.P1 != want.P(n.ID, logic.One) {
			t.Errorf("analyze %s: got %+v, full run rise %+v fall %+v", got.Net, got, rise, fall)
		}
	}

	compare := Request{Circuit: "s344", Sigma: 0.2, Workers: 3, Runs: 999, Seed: 8}
	resp, body = post(t, srv.URL+"/v1/compare", string(mustMarshal(t, compare)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare status = %d: %s", resp.StatusCode, body)
	}
	var cr CompareResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Rows) == 0 {
		t.Fatal("compare returned no rows")
	}
	want = full(compare)
	for _, row := range cr.Rows {
		rise, fall := endpoint(want, row.Net)
		d := rise
		if row.Dir == "fall" {
			d = fall
		}
		if row.MCMu != d.Mu || row.MCSigma != d.Sigma {
			t.Errorf("compare %s %s: mc (%v, %v), full run (%v, %v)", row.Net, row.Dir, row.MCMu, row.MCSigma, d.Mu, d.Sigma)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
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

// TestCompareAdmission holds the only worker slot with queueing
// disabled: a compare whose spsta and mc results are both stored is
// served by the peek step without a slot, and a compare of an unknown
// circuit fails resolution with 400 before it would be admitted.
func TestCompareAdmission(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const body = `{"circuit":"s208","runs":500}`
	if resp, b := post(t, srv.URL+"/v1/compare", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold compare: %d %s", resp.StatusCode, b)
	}
	svc.slots <- struct{}{} // occupy the only slot
	defer func() { <-svc.slots }()
	resp, b := post(t, srv.URL+"/v1/compare", body)
	var r CompareResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(b, &r) != nil || !r.Cached {
		t.Errorf("cached compare with the slot held: status %d, want 200 and cached (%s)", resp.StatusCode, b)
	}
	if resp, b := post(t, srv.URL+"/v1/compare", `{"circuit":"nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown circuit with the slot held: status %d, want 400 (%s)", resp.StatusCode, b)
	}
	if got := svc.reg.rejected.Load(); got != 0 {
		t.Errorf("rejected counter = %d, want 0", got)
	}
}

// TestBadRequests exercises the validation surface. Every rejected
// body counts in the RED series under its route's label: compare's, or
// for analyze the default engine's, whether or not the body decoded.
func TestBadRequests(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	bodies := []string{
		`{"circuit":"s208","engine":"warp"}`,
		`{"engine":"spsta"}`,
		`{"circuit":"s208","bench":"INPUT(a)"}`,
		`{"circuit":"nope"}`,
		`{"circuit":"s208","scenario":"III"}`,
		`{"circuit":"s208","sigma":-0.5}`,
		`{"circuit":"s208","engine":"mc","runs":100000,"workers":100000}`,
		`{"circuit":"s208","workers":-1}`,
		`not json`,
	}
	for _, body := range bodies {
		for _, path := range []string{"/v1/analyze", "/v1/compare"} {
			resp, b := post(t, srv.URL+path, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s body %s: status = %d, want 400 (%s)", path, body, resp.StatusCode, b)
			}
		}
	}
	for _, label := range []string{"spsta", "compare"} {
		i := engineIndex(label)
		if got, errs := svc.reg.latency[i].count.Load(), svc.reg.errors[i].Load(); got != int64(len(bodies)) || errs != got {
			t.Errorf("%s: %d requests, %d errors counted; want %d of each", label, got, errs, len(bodies))
		}
	}
}

// TestRequestKnobs exercises the request knobs end to end: plain and
// variational analyzes succeed, the retired scheduler and precision
// fields 400 as unknown fields, and the convolution plan-cache
// counters show up in /metrics afterwards.
func TestRequestKnobs(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, body := range []string{
		`{"circuit":"s208","sigma":0.2}`,
		`{"circuit":"s208"}`,
		`{"circuit":"s208","engine":"all","runs":200}`,
	} {
		resp, b := post(t, srv.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %s: status = %d (%s)", body, resp.StatusCode, b)
		}
	}
	for _, body := range []string{
		`{"circuit":"s208","batched":"maybe"}`,
		`{"circuit":"s208","batched":"off"}`,
		`{"circuit":"s208","engine":"all","runs":200,"batched":"on"}`,
		`{"circuit":"s208","engine":"moment","batched":"off"}`,
		`{"circuit":"s208","sigma":0.2,"precision":"f32"}`,
		`{"circuit":"s208","precision":"f64"}`,
		`{"circuit":"s208","precision":"f16"}`,
		`{"circuit":"s208","engine":"mc","precision":"f32"}`,
	} {
		resp, b := post(t, srv.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status = %d, want 400 (%s)", body, resp.StatusCode, b)
		}
	}

	var buf bytes.Buffer
	svc.reg.writePrometheus(&buf)
	samples := checkPrometheus(t, buf.String())
	sampleValue(t, samples, `spstad_engine_fft_plans_total{result="hit"}`)
	sampleValue(t, samples, `spstad_engine_fft_plans_total{result="miss"}`)
	sampleValue(t, samples, `spstad_engine_conv_plans_total{result="hit"}`)
}

// TestCoarsenRequestKnob exercises the coarsen request field end to
// end: auto analyzes succeed (on the deepest circuit so it actually
// fires), the invalid spellings and engine combinations 400 — an
// unknown spelling with a message naming both modes — and the
// re-binning counters show up in /metrics afterwards.
func TestCoarsenRequestKnob(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, body := range []string{
		`{"circuit":"s1196","coarsen":"auto","epsilon":0.0001}`,
		`{"circuit":"s208","engine":"all","runs":200,"coarsen":"auto"}`,
	} {
		resp, b := post(t, srv.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %s: status = %d (%s)", body, resp.StatusCode, b)
		}
	}
	for _, body := range []string{
		`{"circuit":"s208","coarsen":"maybe"}`,
		`{"circuit":"s208","coarsen":"fixed"}`,
		`{"circuit":"s208","engine":"mc","coarsen":"auto"}`,
		`{"circuit":"s208","engine":"moment","coarsen":"auto"}`,
	} {
		resp, b := post(t, srv.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status = %d, want 400 (%s)", body, resp.StatusCode, b)
		}
		if strings.Contains(body, "coarsen\":\"auto") {
			continue
		}
		if !strings.Contains(string(b), `want off or auto`) {
			t.Errorf("body %s: error %s does not name off and auto", body, b)
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

// TestEpsilonOnlyWithSpsta: epsilon is the spsta engine's knob, so an
// analyze or compare body with epsilon > 0 is a 400 naming it unless
// its engine is spsta or all, the rule coarsen follows.
func TestEpsilonOnlyWithSpsta(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, c := range []struct {
		path, body string
		status     int
	}{
		{"/v1/analyze", `{"circuit":"s208","engine":"moment","epsilon":0.0001}`, http.StatusBadRequest},
		{"/v1/analyze", `{"circuit":"s208","engine":"mc","runs":200,"epsilon":0.0001}`, http.StatusBadRequest},
		{"/v1/compare", `{"circuit":"s208","engine":"moment","runs":200,"epsilon":0.0001}`, http.StatusBadRequest},
		{"/v1/analyze", `{"circuit":"s208","engine":"moment"}`, http.StatusOK},
		{"/v1/analyze", `{"circuit":"s208","engine":"spsta","epsilon":0.0001}`, http.StatusOK},
		{"/v1/analyze", `{"circuit":"s208","engine":"all","runs":200,"epsilon":0.0001}`, http.StatusOK},
		{"/v1/compare", `{"circuit":"s208","runs":200,"epsilon":0.0001}`, http.StatusOK},
	} {
		resp, b := post(t, srv.URL+c.path, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status = %d, want %d (%s)", c.path, c.body, resp.StatusCode, c.status, b)
			continue
		}
		if c.status == http.StatusBadRequest && !strings.Contains(string(b), "epsilon applies only to the spsta engine") {
			t.Errorf("%s %s: error %s does not say epsilon is the spsta engine's", c.path, c.body, b)
		}
	}
}

// TestCompareRejectsEngine: /v1/compare always runs spsta and mc, so
// a compare body naming any engine but spsta is a 400 that says so,
// instead of a 200 that ignored the field.
func TestCompareRejectsEngine(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, c := range []struct {
		body   string
		status int
	}{
		{`{"circuit":"s208","engine":"moment","runs":200}`, http.StatusBadRequest},
		{`{"circuit":"s208","engine":"mc","runs":200}`, http.StatusBadRequest},
		{`{"circuit":"s208","engine":"all","runs":200}`, http.StatusBadRequest},
		{`{"circuit":"s208","engine":"spsta","runs":200}`, http.StatusOK},
		{`{"circuit":"s208","runs":200}`, http.StatusOK},
	} {
		resp, b := post(t, srv.URL+"/v1/compare", c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d (%s)", c.body, resp.StatusCode, c.status, b)
			continue
		}
		if c.status == http.StatusBadRequest && !strings.Contains(string(b), "compare always runs spsta and mc") {
			t.Errorf("%s: error %s does not say compare runs spsta and mc", c.body, b)
		}
	}
}

// TestMomentCacheIgnoresEpsilon: the moment engine has no error
// budget, so its cache key leaves epsilon out, and an engine=all
// request at epsilon 1e-4 serves its moment result from the entry an
// engine=moment request at epsilon 0 stored.
func TestMomentCacheIgnoresEpsilon(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	engine := func(body, name string) EngineResult {
		t.Helper()
		resp, b := post(t, srv.URL+"/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d (%s)", body, resp.StatusCode, b)
		}
		var r Response
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		for _, er := range r.Engines {
			if er.Engine == name {
				return er
			}
		}
		t.Fatalf("%s: no %s engine in the response", body, name)
		return EngineResult{}
	}
	cold := engine(`{"circuit":"s344","engine":"moment","sigma":0.2}`, "moment")
	if cold.Cached {
		t.Fatal("first moment request claims cached")
	}
	hot := engine(`{"circuit":"s344","engine":"all","runs":200,"sigma":0.2,"epsilon":0.0001}`, "moment")
	if !hot.Cached {
		t.Fatal("engine=all at epsilon 1e-4 re-ran the moment engine instead of reusing the epsilon 0 entry")
	}
	if !reflect.DeepEqual(hot.Endpoints, cold.Endpoints) {
		t.Fatal("cached moment endpoints differ from the stored run")
	}
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

// TestDriftReplaysServedCoarsening: the drift replay runs the SPSTA
// analyzer the sampled request was served with. For a coarsen auto
// request the mean-deviation gauge must equal the deviation of an
// auto analyzer from the same Monte Carlo run, bit for bit.
func TestDriftReplaysServedCoarsening(t *testing.T) {
	const driftRuns = 2000
	svc := New(Config{MaxConcurrent: 2, DriftRuns: driftRuns})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, body := post(t, srv.URL+"/v1/analyze",
		`{"circuit":"s1196","sigma":0.2,"epsilon":0.0001,"coarsen":"auto"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d: %s", resp.StatusCode, body)
	}
	if err := svc.RunDriftCheck(); err != nil {
		t.Fatal(err)
	}

	p, _ := synth.ProfileByName("s1196")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in := scenarioInputs(c, "I")
	a := core.Analyzer{Workers: 1, Delay: delayModel(0.2), ErrorBudget: 1e-4,
		Coarsen: core.CoarsenPolicy{Mode: core.CoarsenAuto}}
	sp, err := a.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	ep := c.CriticalEndpoint()
	mc, err := montecarlo.Simulate(c, in, montecarlo.Config{
		Runs: driftRuns, Seed: 1, Workers: runtime.GOMAXPROCS(0),
		Delay: delayModel(0.2), MomentNets: []netlist.NodeID{ep},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, dir := range []ssta.Dir{ssta.DirRise, ssta.DirFall} {
		am, _, _ := sp.Arrival(ep, dir)
		if m := mc.Arrival(ep, dir); m.N() > 0 {
			want = max(want, math.Abs(am-m.Mean()))
		}
	}
	if got := svc.reg.driftMeanDev.Load(); got != want {
		t.Errorf("spstad_drift_mean_deviation = %v, want %v (the auto analyzer's)", got, want)
	}
}

// TestDriftLoopTicksAndStops runs the background drift monitor itself
// rather than calling RunDriftCheck: with a sampled request its ticker
// must replay it, and once Close returns the loop must be gone, so
// spstad_drift_samples_total stops moving.
func TestDriftLoopTicksAndStops(t *testing.T) {
	const interval = 20 * time.Millisecond
	svc := New(Config{MaxConcurrent: 2, DriftInterval: interval, DriftRuns: 200})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()

	resp, body := post(t, srv.URL+"/v1/analyze", `{"circuit":"s208"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for svc.reg.driftSamples.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("drift loop took no sample within 30s")
		}
		time.Sleep(interval)
	}

	svc.Close()
	stopped := svc.reg.driftSamples.Load()
	time.Sleep(10 * interval)
	if got := svc.reg.driftSamples.Load(); got != stopped {
		t.Errorf("drift samples moved after Close: %d -> %d", stopped, got)
	}
	var buf bytes.Buffer
	svc.reg.writePrometheus(&buf)
	samples := checkPrometheus(t, buf.String())
	if got := sampleValue(t, samples, "spstad_drift_samples_total"); got != strconv.FormatInt(stopped, 10) {
		t.Errorf("spstad_drift_samples_total = %s, want %d", got, stopped)
	}
}

// TestTraceFile checks per-request trace emission on the analyze and
// compare routes: the response names a file in the configured
// directory holding a trace JSON document with the span/dropped
// metadata block.
func TestTraceFile(t *testing.T) {
	dir := t.TempDir()
	svc := New(Config{MaxConcurrent: 1, TraceDir: dir})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, path := range []string{"/v1/analyze", "/v1/compare"} {
		resp, body := post(t, srv.URL+path, `{"circuit":"s208","trace":true,"workers":2,"runs":500}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", path, resp.StatusCode, body)
		}
		var r struct {
			TraceFile string `json:"trace_file"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.TraceFile == "" {
			t.Fatalf("%s: no trace file in response", path)
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
			t.Fatalf("%s: trace file is not valid JSON: %v", path, err)
		}
		if len(doc.TraceEvents) == 0 || doc.Metadata.Spans == 0 {
			t.Errorf("%s: trace has %d events, metadata spans %d; want > 0",
				path, len(doc.TraceEvents), doc.Metadata.Spans)
		}
	}
}

// TestEnginePanicFreesSlot poisons a registered circuit — one gate's
// fanin points past the node table, so the spsta engine panics with an
// index out of range in core.(*Analyzer).computeNode, the per-net
// step behind Run and Update — and posts traced and untraced analyze
// and compare requests for it with a single worker slot and no queue. Each
// must answer 500, give its slot and in-flight count back, leave
// exactly one flight record (status 500, the panic's stack on the
// detail endpoint only), and a later cold request must still get the
// slot. Traced requests run their engine outside the result cache's
// recover, so only the pipeline's own recover catches them.
func TestEnginePanicFreesSlot(t *testing.T) {
	for _, route := range []string{"analyze", "compare"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", route, traced), func(t *testing.T) {
				svc := New(Config{MaxConcurrent: 1, MaxQueue: -1, TraceDir: t.TempDir()})
				defer svc.Close()
				srv := httptest.NewServer(svc.Handler())
				defer srv.Close()

				resp, body := post(t, srv.URL+"/v1/netlists", `{"circuit":"s208"}`)
				var up NetlistUploadResponse
				if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &up) != nil {
					t.Fatalf("upload: %d %s", resp.StatusCode, body)
				}
				c, _ := svc.netreg.get(up.NetlistDigest)
				for _, n := range c.Nodes {
					if n.Type.Combinational() && len(n.Fanin) > 0 {
						n.Fanin[0] = netlist.NodeID(len(c.Nodes) + 7)
						break
					}
				}

				resp, body = post(t, srv.URL+"/v1/"+route, fmt.Sprintf(
					`{"netlist_ref":%q,"workers":1,"runs":200,"trace":%v}`, up.NetlistDigest, traced))
				if resp.StatusCode != http.StatusInternalServerError {
					t.Fatalf("poisoned request: status %d, want 500 (%s)", resp.StatusCode, body)
				}
				if n, in := len(svc.slots), svc.reg.inflight.Load(); n != 0 || in != 0 {
					t.Errorf("after the panic: %d slots held, inflight %d; want 0, 0", n, in)
				}
				sums, _ := svc.flight.list()
				if len(sums) != 1 || sums[0].Status != http.StatusInternalServerError {
					t.Fatalf("flight records = %+v, want one with status 500", sums)
				}
				lr, err := http.Get(srv.URL + "/debug/requests")
				if err != nil {
					t.Fatal(err)
				}
				lb, _ := io.ReadAll(lr.Body)
				lr.Body.Close()
				if strings.Contains(string(lb), `"stack"`) {
					t.Error("the flight list carries the panic stack; only the detail endpoint should")
				}
				gr, err := http.Get(srv.URL + "/debug/requests/" + sums[0].ID)
				if err != nil {
					t.Fatal(err)
				}
				var detail struct {
					Stack string `json:"stack"`
				}
				err = json.NewDecoder(gr.Body).Decode(&detail)
				gr.Body.Close()
				if err != nil || !strings.Contains(detail.Stack, "core.(*Analyzer).computeNode") {
					t.Errorf("flight detail stack (err %v) does not reach computeNode:\n%s", err, detail.Stack)
				}

				if resp, body := post(t, srv.URL+"/v1/analyze", `{"circuit":"s298"}`); resp.StatusCode != http.StatusOK {
					t.Errorf("cold request after the panic: status %d, want 200 (%s)", resp.StatusCode, body)
				}
			})
		}
	}
}

// TestWriteJSONUnencodable: a value that does not encode, here a NaN,
// is answered 500 with the encoding error in a body of the stated
// Content-Length, not 200 with an empty body. Through the request
// pipeline it takes the error path: a 500 in the flight recorder and
// the RED error series.
func TestWriteJSONUnencodable(t *testing.T) {
	nan := map[string]float64{"v": math.NaN()}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, nan)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "NaN") {
		t.Fatalf("writeJSON of a NaN: %d %q, want a 500 naming the NaN", rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}

	svc := New(Config{MaxConcurrent: 1})
	defer svc.Close()
	h := svc.route("/v1/analyze", "spsta", func(r *http.Request) (*job, error) {
		req, err := decode(r)
		if err != nil {
			return nil, err
		}
		return &job{req: req, label: "spsta", run: func(*reqCtx) (any, int64, error) { return nan, 0, nil }}, nil
	})
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(`{"circuit":"s208"}`)))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "NaN") {
		t.Fatalf("pipeline answer of a NaN: %d %q, want a 500 naming the NaN", rec.Code, rec.Body)
	}
	sums, _ := svc.flight.list()
	if len(sums) != 1 || sums[0].Status != http.StatusInternalServerError {
		t.Fatalf("flight recorder holds %+v, want one 500", sums)
	}
	if got := svc.reg.errors[engineIndex("spsta")].Load(); got != 1 {
		t.Fatalf("RED errors for the request: %d, want 1", got)
	}
}
