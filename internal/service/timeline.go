// Timeline wiring for spstad: the default SLO objectives over the
// series metrics.go declares, and the /debug/timeline + /debug/slo
// endpoints. See DESIGN.md §17 for the sampling cost model.
package service

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/timeline"
)

// Default objective names, referenced by tests and the soak harness.
const (
	objAvailability = "availability"
	objLatency      = "latency-p99"
	objRejection    = "rejection-rate"
)

// defaultObjectives is the service's fixed SLO set: 99% of requests
// succeed, 99% finish under SLOLatencyThreshold, and at most
// SLORejectionBudget are rejected. Every objective uses the classic
// two-window burn-rate rule at burn 2 over the fast window and 1 over
// the slow one: the slow window proves the problem is sustained, the
// fast window proves it is still happening and clears the alert
// promptly.
func defaultObjectives(cfg Config) []timeline.Objective {
	fast := cfg.SLOFastWindow
	if fast <= 0 {
		fast = 1 * time.Minute
	}
	slow := cfg.SLOSlowWindow
	if slow <= 0 {
		slow = 5 * time.Minute
	}
	windows := []timeline.BurnWindow{
		{Window: fast, Threshold: 2},
		{Window: slow, Threshold: 1},
	}
	latThresh := cfg.SLOLatencyThreshold
	if latThresh <= 0 {
		latThresh = 0.5
	}
	rejBudget := cfg.SLORejectionBudget
	if rejBudget <= 0 {
		rejBudget = 0.01
	}
	return []timeline.Objective{
		{
			Name: objAvailability, Kind: timeline.KindRatio,
			Bad: seriesReqTotalErrors, Total: seriesReqTotalCount,
			Target: 0.99, Windows: windows,
		},
		{
			Name: objLatency, Kind: timeline.KindLatency,
			Hist: seriesReqTotalLatency, Threshold: latThresh,
			Target: 0.99, Windows: windows,
		},
		{
			Name: objRejection, Kind: timeline.KindRatio,
			Bad: seriesRejected, Total: seriesReqTotalCount,
			Target: 1 - rejBudget, Windows: windows,
		},
	}
}

// recordFlight stamps the flight summary with the burning objectives
// and hands it to the recorder, so every /debug/requests entry shows
// which SLOs were on fire while it ran.
func (s *Service) recordFlight(sum RequestSummary, scope *obs.Scope, stack string) bool {
	sum.SLOBurning = s.tl.SLO().Burning()
	return s.flight.record(sum, scope, stack)
}

// TimelineResponse is the body of GET /debug/timeline.
type TimelineResponse struct {
	Now        time.Time             `json:"now"`
	IntervalMS int64                 `json:"interval_ms,omitzero"`
	Samples    int64                 `json:"samples"`
	Series     []timeline.SeriesData `json:"series"`
}

// handleTimeline serves windowed, downsampled series data:
// ?series=a,b ?window=5m ?points=200 (all optional; default every
// series over the last 15 minutes).
func (s *Service) handleTimeline(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	window := 15 * time.Minute
	if ws := q.Get("window"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d <= 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad window: want a positive Go duration like 5m"})
			return
		}
		window = d
	}
	points := 200
	if ps := q.Get("points"); ps != "" {
		n, err := strconv.Atoi(ps)
		if err != nil || n <= 0 || n > 10000 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad points: want an integer in [1, 10000]"})
			return
		}
		points = n
	}
	var names []string
	if ss := q.Get("series"); ss != "" {
		for _, n := range strings.Split(ss, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	now := time.Now()
	resp := &TimelineResponse{
		Now:        now,
		IntervalMS: s.cfg.TimelineInterval.Milliseconds(),
		Samples:    s.tl.Samples(),
		Series:     s.tl.Query(names, now.Add(-window), now, points),
	}
	writeJSON(w, http.StatusOK, resp)
}

// LatencySummary is one histogram series' windowed percentile summary
// in GET /debug/slo, computed by exact within-bucket interpolation.
type LatencySummary struct {
	Series   string  `json:"series"`
	WindowMS int64   `json:"window_ms"`
	Count    int64   `json:"count"`
	P50      float64 `json:"p50"`
	P95      float64 `json:"p95"`
	P99      float64 `json:"p99"`
}

// SLOResponse is the body of GET /debug/slo; spstasoak polls it.
type SLOResponse struct {
	Now        time.Time                  `json:"now"`
	Burning    []string                   `json:"burning"`
	Objectives []timeline.ObjectiveStatus `json:"objectives"`
	Latency    []LatencySummary           `json:"latency"`
	Captures   int64                      `json:"captures"`
}

// handleSLO serves the SLO engine's state plus windowed latency
// percentiles (?window=, default 5m) for the total and per-engine
// request histograms.
func (s *Service) handleSLO(w http.ResponseWriter, r *http.Request) {
	window := 5 * time.Minute
	if ws := r.URL.Query().Get("window"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d <= 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad window: want a positive Go duration like 5m"})
			return
		}
		window = d
	}
	now := time.Now()
	resp := &SLOResponse{
		Now:        now,
		Burning:    s.tl.SLO().Burning(),
		Objectives: s.tl.SLO().Status(),
	}
	if resp.Burning == nil {
		resp.Burning = []string{}
	}
	names := []string{seriesReqTotalLatency}
	for _, sr := range serviceSeries {
		if sr.fam == famDuration {
			names = append(names, sr.tl)
		}
	}
	for _, name := range names {
		count, p50, p95, p99, ok := s.tl.Percentiles(name, now, window)
		if !ok || count == 0 {
			continue
		}
		resp.Latency = append(resp.Latency, LatencySummary{
			Series: name, WindowMS: window.Milliseconds(),
			Count: count, P50: p50, P95: p95, P99: p99,
		})
	}
	if s.captures != nil {
		resp.Captures = s.captures.taken.Load()
	}
	writeJSON(w, http.StatusOK, resp)
}
