package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/synth"
)

// postTraceparent is post with a W3C traceparent request header.
func postTraceparent(t *testing.T, url, body, traceparent string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparent)
	resp, err := http.DefaultClient.Do(req)
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

var (
	promName   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
	promSample = regexp.MustCompile(
		`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z0-9_]+="[^"]*")(,[a-zA-Z0-9_]+="[^"]*")*\})? (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)
)

// TestPrometheusExpositionValid parses every /metrics line after a mix
// of requests: sample lines must match the text format, every sample's
// metric must have # HELP and # TYPE lines (histogram series counted
// under their base name), and histogram buckets must be cumulative
// (monotone in le order, ending at +Inf == _count).
func TestPrometheusExpositionValid(t *testing.T) {
	// DebugDir enables the capture manager so spstad_slo_captures_total
	// renders too.
	svc := New(Config{MaxConcurrent: 2, DebugDir: t.TempDir()})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, body := range []string{
		`{"circuit":"s208","engine":"all","runs":300}`,
		`{"circuit":"s298","engine":"spsta","epsilon":1e-9}`,
	} {
		if resp, b := post(t, srv.URL+"/v1/analyze", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze %s: %d %s", body, resp.StatusCode, b)
		}
	}
	// One timeline tick so the spstad_slo_* series carry evaluated
	// burn-rate windows, not just declaration-time zeros.
	svc.Timeline().Sample()

	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()

	helps, types := map[string]string{}, map[string]string{}
	type bucketKey struct{ series string } // metric plus non-le labels
	buckets := map[string][]struct {
		le  float64
		cum float64
	}{}
	counts := map[string]float64{}

	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && types[b] == "histogram" {
				return b
			}
		}
		return name
	}

	for _, line := range strings.Split(string(mb), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(f) != 2 || f[1] == "" {
				t.Errorf("HELP without text: %q", line)
			}
			helps[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line[len("# TYPE "):])
			if len(f) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch f[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("invalid TYPE %q in %q", f[1], line)
			}
			types[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unknown comment line: %q", line)
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line does not parse as a Prometheus sample: %q", line)
			continue
		}
		name := promName.FindString(line)
		b := base(name)
		if _, ok := helps[b]; !ok {
			t.Errorf("sample %q has no # HELP %s", line, b)
		}
		if _, ok := types[b]; !ok {
			t.Errorf("sample %q has no # TYPE %s", line, b)
		}
		v, err := strconv.ParseFloat(m[5], 64)
		if err != nil {
			t.Errorf("bad value in %q: %v", line, err)
			continue
		}
		if strings.HasSuffix(name, "_bucket") && types[b] == "histogram" {
			series := strings.TrimSuffix(name, "_bucket")
			le := ""
			labels := m[2]
			for _, kv := range strings.Split(strings.Trim(labels, "{}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					val = strings.Trim(val, `"`)
					if k == "le" {
						le = val
					} else {
						series += "|" + kv
					}
				}
			}
			lef := 0.0
			if le == "+Inf" {
				lef = float64(1 << 62)
			} else if lef, err = strconv.ParseFloat(le, 64); err != nil {
				t.Errorf("bad le in %q: %v", line, err)
				continue
			}
			buckets[series] = append(buckets[series], struct {
				le  float64
				cum float64
			}{lef, v})
		}
		if strings.HasSuffix(name, "_count") && types[b] == "histogram" {
			series := strings.TrimSuffix(name, "_count")
			if labels := m[2]; labels != "" {
				for _, kv := range strings.Split(strings.Trim(labels, "{}"), ",") {
					series += "|" + kv
				}
			}
			counts[series] = v
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets in /metrics output")
	}
	for series, bs := range buckets {
		for i := 1; i < len(bs); i++ {
			if bs[i].le <= bs[i-1].le {
				t.Errorf("%s: le bounds not increasing (%g after %g)", series, bs[i].le, bs[i-1].le)
			}
			if bs[i].cum < bs[i-1].cum {
				t.Errorf("%s: bucket counts not cumulative (%g after %g)", series, bs[i].cum, bs[i-1].cum)
			}
		}
		last := bs[len(bs)-1]
		if last.le != float64(1<<62) {
			t.Errorf("%s: last bucket le is not +Inf", series)
		}
		if c, ok := counts[series]; ok && last.cum != c {
			t.Errorf("%s: +Inf bucket %g != _count %g", series, last.cum, c)
		}
	}
	// The new series must be present.
	for _, want := range []string{
		"spstad_request_cost_units", "spstad_engine_cost_units_total",
		"spstad_cache_hits_total", "spstad_cache_misses_total",
		"spstad_cache_evictions_total", "spstad_cache_bytes",
		"spstad_singleflight_shared_total", "spstad_registry_entries",
		"spstad_registry_evictions_total", "spstad_delta_nets_recomputed_total",
		"go_goroutines", "go_memstats_heap_inuse_bytes", "go_gc_pause_seconds_total",
		"spstad_timeline_samples_total", "spstad_slo_burning",
		"spstad_slo_burn_rate", "spstad_slo_transitions_total",
		"spstad_slo_captures_total",
	} {
		if _, ok := types[want]; !ok {
			t.Errorf("metric %s missing from /metrics", want)
		}
	}
}

// TestCostUnitsDeterministic asserts the contract behind cost_units:
// identical requests — same netlist, scenario, epsilon, sigma, engine
// and coarsening — report identical per-engine cost no matter the
// worker count.
func TestCostUnitsDeterministic(t *testing.T) {
	svc := New(Config{MaxConcurrent: 4})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, tc := range []string{
		`{"circuit":"s298","engine":"all","runs":700,"sigma":0.1,"epsilon":1e-8,"workers":%d}`,
		`{"circuit":"s208","engine":"spsta","workers":%d}`,
		`{"circuit":"s208","engine":"spsta","coarsen":"auto","sigma":0.2,"workers":%d}`,
	} {
		var want []EngineResult
		for _, workers := range []int{1, 2, 4} {
			resp, body := post(t, srv.URL+"/v1/analyze", fmt.Sprintf(tc, workers))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("analyze workers=%d: %d %s", workers, resp.StatusCode, body)
			}
			var r Response
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatal(err)
			}
			if r.CostUnits <= 0 {
				t.Fatalf("workers=%d: total cost_units = %d, want > 0", workers, r.CostUnits)
			}
			if want == nil {
				want = r.Engines
				continue
			}
			for i, er := range r.Engines {
				if er.CostUnits != want[i].CostUnits {
					t.Errorf("%s engine %s: cost %d at workers=%d, %d at workers=1",
						tc, er.Engine, er.CostUnits, workers, want[i].CostUnits)
				}
			}
		}
	}
}

// TestSlowRequestCapture drives a request over the (tiny) slow-latency
// threshold with a client traceparent and checks the flight recorder
// serves it back: listed in /debug/requests, captured with a non-empty
// span tree in /debug/requests/{id}, root trace ID matching the
// client's, and a Chrome trace via ?format=trace. A full cache hit, a
// compare and a delta are then captured with the same tree shape.
func TestSlowRequestCapture(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2, SlowLatency: time.Nanosecond})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	resp, body := postTraceparent(t, srv.URL+"/v1/analyze",
		`{"circuit":"s208","engine":"spsta","workers":2}`,
		"00-"+traceID+"-00f067aa0ba902b7-01")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Errorf("X-Trace-Id = %q, want %q", got, traceID)
	}
	if tp := resp.Header.Get("Traceparent"); !strings.Contains(tp, traceID) {
		t.Errorf("Traceparent response header = %q", tp)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.TraceID != traceID {
		t.Errorf("response trace_id = %q, want %q", r.TraceID, traceID)
	}

	lr, err := http.Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := io.ReadAll(lr.Body)
	lr.Body.Close()
	var list struct {
		TotalRecorded int64            `json:"total_recorded"`
		Requests      []RequestSummary `json:"requests"`
	}
	if err := json.Unmarshal(lb, &list); err != nil {
		t.Fatalf("/debug/requests is not JSON: %v", err)
	}
	if list.TotalRecorded != 1 || len(list.Requests) != 1 {
		t.Fatalf("flight list: total %d, %d entries; want 1, 1", list.TotalRecorded, len(list.Requests))
	}
	sum := list.Requests[0]
	if sum.ID != r.RequestID || sum.TraceID != traceID || !sum.Captured {
		t.Fatalf("flight summary = %+v; want id %s, trace %s, captured", sum, r.RequestID, traceID)
	}
	if sum.CostUnits != r.CostUnits || sum.CostUnits <= 0 {
		t.Errorf("flight cost = %d, response cost = %d", sum.CostUnits, r.CostUnits)
	}

	tree := capturedTree(t, srv.URL, r.RequestID, "/v1/analyze")
	if tree.TraceID != traceID {
		t.Errorf("span tree trace ID = %q, want client's %q", tree.TraceID, traceID)
	}
	if root := tree.Roots[0]; len(root.Children) == 0 {
		t.Errorf("root span %q has no children; want the engine span under it", root.Name)
	}

	tr2, err := http.Get(srv.URL + "/debug/requests/" + r.RequestID + "?format=trace")
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := io.ReadAll(tr2.Body)
	tr2.Body.Close()
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("?format=trace: %d events, err %v", len(doc.TraceEvents), err)
	}

	if _, err := http.Get(srv.URL + "/debug/requests/req-nope"); err != nil {
		t.Fatal(err)
	}

	// Every route's captured tree — a full cache hit, a compare, a
	// cold delta — has the request span as its only root, with the
	// engine spans (cached ones zero-length) or, for delta, the level
	// spans under it.
	for _, tc := range []struct {
		path, body string
		engines    []string
	}{
		{"/v1/analyze", `{"circuit":"s208","engine":"spsta","workers":2}`, []string{"engine spsta"}},
		{"/v1/compare", `{"circuit":"s208","runs":500}`, []string{"engine spsta", "engine mc"}},
		{"/v1/delta", `{"circuit":"s208","edits":[]}`, nil},
	} {
		resp, body := post(t, srv.URL+tc.path, tc.body)
		var r struct {
			RequestID string `json:"request_id"`
		}
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &r) != nil {
			t.Fatalf("%s: %d %s", tc.path, resp.StatusCode, body)
		}
		root := capturedTree(t, srv.URL, r.RequestID, tc.path).Roots[0]
		var engines []string
		for _, c := range root.Children {
			if c.Cat == "engine" {
				engines = append(engines, c.Name)
			}
		}
		if !slices.Equal(engines, tc.engines) || len(root.Children) == 0 {
			t.Errorf("%s: root has %d children, engine spans %v; want %v", tc.path, len(root.Children), engines, tc.engines)
		}
		if tc.path == "/v1/analyze" && root.Args["cached"] != true {
			t.Errorf("full cache hit: root span args %v, want cached", root.Args)
		}
	}

	// A warm single-edit delta re-times its cone on the level
	// scheduler: its captured tree holds one span per non-empty level
	// of the cone under the request span, and their gate counts add up
	// to the nets the response says it recomputed.
	prof, _ := synth.ProfileByName("s208")
	c, err := synth.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	gate := ""
	for _, n := range c.Nodes {
		if n.Type.Combinational() && n.Level == 1 && len(n.Fanout) > 0 {
			gate = n.Name
			break
		}
	}
	_, dr, b := postDelta(t, srv.URL, &DeltaRequest{Circuit: "s208", Edits: []DeltaEdit{{Gate: gate, Mu: 2.5}}})
	if dr.Session != "warm" || dr.NetsRecomputed == 0 {
		t.Fatalf("single-edit delta: session %q, %d nets recomputed; want a warm cone: %s", dr.Session, dr.NetsRecomputed, b)
	}
	gates := 0
	levels := regexp.MustCompile(`^L[0-9]+$`)
	for _, l := range capturedTree(t, srv.URL, dr.RequestID, "/v1/delta").Roots[0].Children {
		n, _ := l.Args["gates"].(float64)
		if l.Cat != "level" || !levels.MatchString(l.Name) || n < 1 {
			t.Errorf("warm delta: span %q (cat %q, %v gates) under the request span; want non-empty level spans only", l.Name, l.Cat, l.Args["gates"])
		}
		gates += int(n)
	}
	if gates != dr.NetsRecomputed {
		t.Errorf("warm delta: level spans cover %d gates, response recomputed %d nets", gates, dr.NetsRecomputed)
	}
}

// capturedTree fetches a captured request's span tree and requires
// exactly one root, the request span of path.
func capturedTree(t *testing.T, base, id, path string) *obs.SpanTree {
	t.Helper()
	gr, err := http.Get(base + "/debug/requests/" + id)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := io.ReadAll(gr.Body)
	gr.Body.Close()
	var got struct {
		Summary RequestSummary `json:"summary"`
		Spans   *obs.SpanTree  `json:"spans"`
	}
	if err := json.Unmarshal(gb, &got); err != nil {
		t.Fatalf("/debug/requests/{id} is not JSON: %v", err)
	}
	if got.Spans == nil || len(got.Spans.Roots) != 1 || got.Spans.Roots[0].Name != "POST "+path {
		t.Fatalf("%s: captured span tree %s; want exactly one root, POST %s", path, gb, path)
	}
	return got.Spans
}

// TestFastRequestNotCaptured checks the threshold actually gates
// capture: with a high latency bar the request is summarized but keeps
// no span tree.
func TestFastRequestNotCaptured(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, SlowLatency: time.Hour})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, body := post(t, srv.URL+"/v1/analyze", `{"circuit":"s208"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, body)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	e, ok := svc.flight.get(r.RequestID)
	if !ok {
		t.Fatal("fast request missing from flight recorder")
	}
	if e.sum.Captured || e.tracer != nil {
		t.Errorf("fast request captured (%v, tracer %v)", e.sum.Captured, e.tracer != nil)
	}
}

// TestLoadShedFlightSummary fills the worker slot with queueing
// disabled: the 429 must still leave a flight-recorder summary with
// the rejection state and zero cost.
func TestLoadShedFlightSummary(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	svc.slots <- struct{}{} // occupy the only slot
	defer func() { <-svc.slots }()
	resp, body := post(t, srv.URL+"/v1/analyze", `{"circuit":"s208","engine":"mc"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
	}
	var er struct {
		RequestID string `json:"request_id"`
		TraceID   string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	sums, total := svc.flight.list()
	if total != 1 || len(sums) != 1 {
		t.Fatalf("flight entries = %d (total %d), want 1", len(sums), total)
	}
	sum := sums[0]
	if sum.ID != er.RequestID || sum.TraceID != er.TraceID {
		t.Errorf("flight identity = %s/%s, response %s/%s", sum.ID, sum.TraceID, er.RequestID, er.TraceID)
	}
	if !sum.Rejected || sum.Status != http.StatusTooManyRequests {
		t.Errorf("flight rejection state: rejected=%v status=%d", sum.Rejected, sum.Status)
	}
	if sum.CostUnits != 0 {
		t.Errorf("rejected request cost = %d, want 0", sum.CostUnits)
	}
	if sum.Engine != "mc" || sum.Error == "" {
		t.Errorf("flight summary engine=%q error=%q", sum.Engine, sum.Error)
	}
}

// TestFlightRingEviction fills a 2-slot ring with three requests: the
// oldest must be evicted, newest listed first.
func TestFlightRingEviction(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, FlightSize: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		resp, body := post(t, srv.URL+"/v1/analyze", `{"circuit":"s208"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze %d: %d %s", i, resp.StatusCode, body)
		}
		var r Response
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.RequestID)
	}
	sums, total := svc.flight.list()
	if total != 3 || len(sums) != 2 {
		t.Fatalf("list = %d entries, total %d; want 2, 3", len(sums), total)
	}
	if sums[0].ID != ids[2] || sums[1].ID != ids[1] {
		t.Errorf("list order = %s, %s; want newest first %s, %s", sums[0].ID, sums[1].ID, ids[2], ids[1])
	}
	if _, ok := svc.flight.get(ids[0]); ok {
		t.Error("evicted entry still retrievable")
	}
	var buf bytes.Buffer
	svc.reg.writePrometheus(&buf)
	samples := checkPrometheus(t, buf.String())
	if got := sampleValue(t, samples, "spstad_request_cost_units_count"); got != "3" {
		t.Errorf("request_cost_units_count = %s, want 3", got)
	}
}
