package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netlist"
)

// syncBuffer is a bytes.Buffer safe for a logger and a test to share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// logLine returns the JSON log record whose request_id is id.
func (b *syncBuffer) logLine(t *testing.T, id string) map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	sc := bufio.NewScanner(bytes.NewReader(b.buf.Bytes()))
	for sc.Scan() {
		var rec map[string]any
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec["request_id"] == id {
			return rec
		}
	}
	t.Fatalf("no log line for request %s", id)
	return nil
}

// redSeconds scrapes the RED latency histogram's sum (seconds) and
// count for one engine label; a label with no observations reads 0, 0.
func redSeconds(t *testing.T, srv *httptest.Server, label string) (sum float64, count int64) {
	t.Helper()
	for _, s := range metricsSamples(t, srv) {
		f := strings.Fields(s)
		switch f[0] {
		case fmt.Sprintf("spstad_request_duration_seconds_sum{engine=%q}", label):
			sum, _ = strconv.ParseFloat(f[1], 64)
		case fmt.Sprintf("spstad_request_duration_seconds_count{engine=%q}", label):
			count, _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	return sum, count
}

// TestRequestClockIsRootSpan: a request's duration is read once. Its
// captured root span, its flight summary's latency_ns, its RED
// observation and its log line's duration_ms are that one reading, on
// every route and on the failure paths. Each engine that ran has an
// engine span whose duration is the result's elapsed_ns, and every
// captured tree, a failed request's included, has the request span as
// its only root.
func TestRequestClockIsRootSpan(t *testing.T) {
	var logs syncBuffer
	svc := New(Config{MaxConcurrent: 2, SlowLatency: time.Nanosecond,
		Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// The panic case analyzes an uploaded s344 whose first gate reads
	// a net that does not exist (TestEnginePanicFreesSlot's recipe).
	resp, body := post(t, srv.URL+"/v1/netlists", `{"circuit":"s344"}`)
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

	const cold = `{"circuit":"s208","engine":"all","runs":500}`
	for _, tc := range []struct {
		name, path, body, label string
		status                  int
		engines                 []string // engines that ran, each with a span equal to its elapsed_ns
	}{
		{"cold analyze", "/v1/analyze", cold, "all", http.StatusOK, []string{"spsta", "moment", "mc"}},
		{"full hit", "/v1/analyze", cold, "all", http.StatusOK, nil},
		{"compare", "/v1/compare", `{"circuit":"s208","sigma":0.1,"runs":300}`, "compare", http.StatusOK, []string{"spsta", "mc"}},
		{"delta", "/v1/delta", `{"circuit":"s208","edits":[]}`, "delta", http.StatusOK, nil},
		{"engine panic", "/v1/analyze", fmt.Sprintf(`{"netlist_ref":%q,"workers":1}`, up.NetlistDigest), "spsta", http.StatusInternalServerError, nil},
		{"decode failure", "/v1/analyze", `{"circuit":"s208","bogus":1}`, "spsta", http.StatusBadRequest, nil},
		{"upload", "/v1/netlists", `{"circuit":"s298"}`, "netlists", http.StatusOK, nil},
		{"upload failure", "/v1/netlists", `{"circuit":"s298","bench":"INPUT(a)"}`, "netlists", http.StatusBadRequest, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sum0, n0 := redSeconds(t, srv, tc.label)
			resp, body := post(t, srv.URL+tc.path, tc.body)
			var r struct {
				RequestID     string         `json:"request_id"`
				NetlistDigest string         `json:"netlist_digest"`
				Engines       []EngineResult `json:"engines"`
			}
			if resp.StatusCode != tc.status || json.Unmarshal(body, &r) != nil || r.RequestID == "" {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			sum1, n1 := redSeconds(t, srv, tc.label)
			e, ok := svc.flight.get(r.RequestID)
			if !ok {
				t.Fatalf("request %s not in the flight recorder", r.RequestID)
			}
			lat := e.sum.LatencyNS
			if tc.status != http.StatusOK && e.sum.Cached {
				t.Errorf("failed request summarized as cached: %+v", e.sum)
			}

			if n1-n0 != 1 || math.Abs((sum1-sum0)*1e9-float64(lat)) > 1 {
				t.Errorf("RED %s: %d observations of %.0f ns; want one of latency_ns %d", tc.label, n1-n0, (sum1-sum0)*1e9, lat)
			}
			rec := logs.logLine(t, r.RequestID)
			if want := float64(lat/1000) / 1e3; rec["duration_ms"] != want {
				t.Errorf("log duration_ms = %v, want %v (latency_ns %d)", rec["duration_ms"], want, lat)
			}

			if tc.status == http.StatusBadRequest {
				// A body that does not decode builds no scope: no span tree.
				if e.sum.Captured || e.tracer != nil {
					t.Errorf("decode failure captured a span tree")
				}
				return
			}
			root := capturedTree(t, srv.URL, r.RequestID, tc.path).Roots[0]
			if math.Abs(root.DurUS-float64(lat)/1e3) > 1e-3 {
				t.Errorf("root span %.3f µs, latency_ns %d", root.DurUS, lat)
			}
			spans := map[string]float64{}
			for _, ch := range root.Children {
				if ch.Cat == "engine" {
					spans[strings.TrimPrefix(ch.Name, "engine ")] = ch.DurUS
				}
			}
			if _, ok := spans["spsta"]; tc.status != http.StatusOK && !ok {
				t.Errorf("failed request: root children %v; want its engine spsta span", spans)
			}

			elapsed := map[string]int64{}
			for _, er := range r.Engines {
				elapsed[er.Engine] = er.ElapsedNS
			}
			if tc.path == "/v1/compare" {
				// /v1/compare reports no elapsed_ns; its results are the
				// cache's entries.
				req, err := decode(httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
				if err != nil {
					t.Fatal(err)
				}
				for _, engine := range tc.engines {
					hits, ok := svc.cache.peekAll([]string{cacheKey(r.NetlistDigest, req, engine)})
					if !ok {
						t.Fatalf("compare: %s result not cached", engine)
					}
					elapsed[engine] = hits[0].er.ElapsedNS
				}
			}
			for _, engine := range tc.engines {
				d, ok := spans[engine]
				if !ok || math.Abs(d-float64(elapsed[engine])/1e3) > 1e-3 {
					t.Errorf("engine %s: span %.3f µs (found %v), elapsed_ns %d", engine, d, ok, elapsed[engine])
				}
			}
		})
	}
}

// TestMetricsScrapeDuringRequests scrapes /metrics while distinct
// coarsened analyses finish and add their engine registries into the
// service's lifetime registry. Under -race it fails if a scrape reads
// that registry while a finishing request writes it other than
// atomically.
func TestMetricsScrapeDuringRequests(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	for i := 0; i < 40; i++ {
		body := fmt.Sprintf(`{"circuit":"s208","sigma":%g,"coarsen":"auto","epsilon":1e-4}`, 0.1+0.01*float64(i))
		if resp, b := post(t, srv.URL+"/v1/analyze", body); resp.StatusCode != http.StatusOK {
			t.Errorf("analyze %d: %d %s", i, resp.StatusCode, b)
		}
	}
	close(stop)
	wg.Wait()
	if n := sampleInt(t, metricsSamples(t, srv), "spstad_engine_grid_bins_per_level_count"); n == 0 {
		t.Error("no grid levels in the aggregate; the scrapes raced nothing")
	}
}
