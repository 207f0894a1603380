package service

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics_golden.txt from the current service")

const metricsGoldenFile = "testdata/metrics_golden.txt"

// maskedMetric reports whether a /metrics sample's value depends on
// the wall clock or the process rather than on the requests: latency
// bucket counts and sums, SLO burn rates (the latency objective's
// reads the latency histogram), go_* values, the hit/miss split of
// the convolution plan caches, which are process-wide and so keep
// what earlier tests in the process planned, and the slab peak, which
// read 629320 instead of 627592 bytes in about one run of thirty of
// this sequence.
func maskedMetric(line string) bool {
	for _, p := range []string{
		"spstad_request_duration_seconds_bucket{",
		"spstad_request_duration_seconds_sum{",
		"spstad_slo_burn_rate{",
		"spstad_engine_fft_plans_total{",
		"spstad_engine_conv_plans_total{",
		"spstad_engine_slab_bytes_peak ",
		"go_",
	} {
		if strings.HasPrefix(line, p) {
			return true
		}
	}
	return false
}

// TestMetricsExpositionGolden pins what an operator scrapes after a
// fixed request sequence: the full /metrics text, and every timeline
// series' name, kind and latest value after the sequence's tick.
// Values that depend on the wall clock or the Go runtime print as *.
// Re-record with
//
//	go test ./internal/service -run TestMetricsExpositionGolden -update
func TestMetricsExpositionGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the engine totals' float bits are recorded on amd64; Go may fuse multiply-adds on %s", runtime.GOARCH)
	}
	// DebugDir turns on the capture manager, so its counter renders. A
	// latency objective at 60s stays quiet under the race detector, so
	// no objective fires and no capture starts.
	svc := New(Config{MaxConcurrent: 2, DebugDir: t.TempDir(), SLOLatencyThreshold: 60})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

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

	// The 400 comes before a baseline tick, so the tick after the
	// sequence carries windowed histogram counts and the availability
	// objective's windows see no error. Workers are pinned to 1: the
	// Monte Carlo shard count sets its packed-block count, and a pooled
	// level schedule its slab peak.
	for i, r := range []struct {
		path, body string
		status     int
	}{
		{"/v1/analyze", `{"circuit":"s208","bogus":1}`, http.StatusBadRequest},
		{"/v1/analyze", `{"circuit":"s208","engine":"all","runs":500,"workers":1}`, http.StatusOK},
		{"/v1/analyze", `{"circuit":"s1196","sigma":0.2,"epsilon":0.0001,"coarsen":"auto","workers":1}`, http.StatusOK},
		{"/v1/compare", `{"circuit":"s208","sigma":0.1,"runs":300,"workers":1}`, http.StatusOK},
		{"/v1/delta", fmt.Sprintf(`{"circuit":"s208","edits":[{"gate":%q,"mu":2.5}]}`, gate), http.StatusOK},
	} {
		if i == 1 {
			svc.Timeline().Sample()
		}
		if resp, b := post(t, srv.URL+r.path, r.body); resp.StatusCode != r.status {
			t.Fatalf("%s %s: status %d, want %d: %s", r.path, r.body, resp.StatusCode, r.status, b)
		}
	}
	svc.Timeline().Sample()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && maskedMetric(line) {
			line = line[:strings.LastIndexByte(line, ' ')] + " *"
		}
		got = append(got, line)
	}

	got = append(got, "# timeline")
	for _, sd := range svc.Timeline().Query(nil, time.Time{}, time.Now().Add(time.Hour), 0) {
		p := sd.Points[len(sd.Points)-1]
		switch {
		case strings.HasPrefix(sd.Name, "runtime."):
			got = append(got, fmt.Sprintf("%s %s *", sd.Name, sd.Kind))
		case sd.Kind != "histogram":
			got = append(got, fmt.Sprintf("%s %s %g", sd.Name, sd.Kind, p.V))
		case sd.Name == "cost":
			got = append(got, fmt.Sprintf("%s %s count=%d p50=%g p95=%g p99=%g", sd.Name, sd.Kind, p.Count, p.P50, p.P95, p.P99))
		default:
			got = append(got, fmt.Sprintf("%s %s count=%d", sd.Name, sd.Kind, p.Count))
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(metricsGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(metricsGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < max(len(got), len(want)); i++ {
		g, w := "<none>", "<none>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
