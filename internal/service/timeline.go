// Timeline wiring for spstad: collectors that scrape the service
// registry and Go runtime into the in-process time-series store, the
// default SLO objectives, and the /debug/timeline + /debug/slo
// endpoints. See DESIGN.md §17 for the sampling cost model.
package service

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/timeline"
)

// Timeline series names. Request series follow req.<engine>.<what>
// with a synthetic req.total.* aggregated across engines so SLO
// objectives do not depend on the traffic mix.
const (
	seriesReqTotalCount   = "req.total.count"
	seriesReqTotalErrors  = "req.total.errors"
	seriesReqTotalLatency = "req.total.latency"
	seriesQueueDepth      = "pool.queue_depth"
	seriesInflight        = "pool.inflight"
	seriesRejected        = "pool.rejected"
	seriesCacheHits       = "cache.hits"
	seriesCacheMisses     = "cache.misses"
	seriesCacheLookups    = "cache.lookups"
	seriesCacheEvictions  = "cache.evictions"
	seriesCacheBytes      = "cache.bytes"
	seriesSFShared        = "singleflight.shared"
	seriesRegEntries      = "registry.entries"
	seriesRegEvictions    = "registry.evictions"
	seriesDeltaNets       = "delta.nets_recomputed"
	seriesDriftMeanDev    = "drift.mean_dev"
	seriesDriftSigmaDev   = "drift.sigma_dev"
	seriesDriftSamples    = "drift.samples"
	seriesCost            = "cost"
	seriesGoroutines      = "runtime.goroutines"
	seriesHeapInuse       = "runtime.heap_inuse"
	seriesGCPause         = "runtime.gc_pause_total"
)

// Default objective names, referenced by tests and the soak harness.
const (
	objAvailability = "availability"
	objLatency      = "latency-p99"
	objRejection    = "rejection-rate"
)

// registryCollector scrapes the service registry's atomics into one
// tick. One pass over a fixed set of atomics: ~1µs per tick plus the
// histogram snapshot copies, so a 1s interval costs well under 0.01%
// of one core (the bench guard enforces <2% end to end).
func (s *Service) registryCollector(b *timeline.Batch) {
	r := &s.reg
	var totalReq, totalErr int64
	var totalBuckets [len(latencyBounds) + 1]int64
	var buckets [len(latencyBounds) + 1]int64
	for i, l := range engineLabels {
		h := &r.latency[i]
		req := h.count.Load()
		errs := r.errors[i].Load()
		totalReq += req
		totalErr += errs
		for bkt := range buckets {
			c := h.buckets[bkt].Load()
			buckets[bkt] = c
			totalBuckets[bkt] += c
		}
		b.Counter("req."+l+".count", float64(req))
		b.Counter("req."+l+".errors", float64(errs))
		if h.count.Load() > 0 {
			b.Hist("req."+l+".latency", latencyBounds[:], buckets[:])
		}
	}
	b.Counter(seriesReqTotalCount, float64(totalReq))
	b.Counter(seriesReqTotalErrors, float64(totalErr))
	b.Hist(seriesReqTotalLatency, latencyBounds[:], totalBuckets[:])

	b.Gauge(seriesQueueDepth, float64(r.queueDepth.Load()))
	b.Gauge(seriesInflight, float64(r.inflight.Load()))
	b.Counter(seriesRejected, float64(r.rejected.Load()))

	hits, misses := r.cacheHits.Load(), r.cacheMisses.Load()
	b.Counter(seriesCacheHits, float64(hits))
	b.Counter(seriesCacheMisses, float64(misses))
	b.Counter(seriesCacheLookups, float64(hits+misses))
	b.Counter(seriesCacheEvictions, float64(r.cacheEvictions.Load()))
	b.Gauge(seriesCacheBytes, float64(r.cacheBytes.Load()))
	b.Counter(seriesSFShared, float64(r.singleflightShared.Load()))
	b.Gauge(seriesRegEntries, float64(r.registryEntries.Load()))
	b.Counter(seriesRegEvictions, float64(r.registryEvictions.Load()))
	b.Counter(seriesDeltaNets, float64(r.deltaNets.Load()))

	b.Gauge(seriesDriftMeanDev, r.driftMeanDev.Load())
	b.Gauge(seriesDriftSigmaDev, r.driftSigmaDev.Load())
	b.Counter(seriesDriftSamples, float64(r.driftSamples.Load()))

	var costBuckets [len(costBounds) + 1]int64
	for i := range costBuckets {
		costBuckets[i] = r.cost.buckets[i].Load()
	}
	b.Hist(seriesCost, costBounds[:], costBuckets[:])
}

// runtimeCollector samples process-level gauges. ReadMemStats briefly
// stops the world; at the default 1s interval this is noise, but it is
// the dominant term of the sampling cost model (DESIGN.md §17).
func runtimeCollector(b *timeline.Batch) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.Gauge(seriesGoroutines, float64(runtime.NumGoroutine()))
	b.Gauge(seriesHeapInuse, float64(ms.HeapInuse))
	b.Counter(seriesGCPause, float64(ms.PauseTotalNs)/1e9)
}

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
	for _, l := range engineLabels {
		names = append(names, "req."+l+".latency")
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

// writeSLOMetrics appends the spstad_slo_* and spstad_timeline_*
// series to the Prometheus exposition.
func (s *Service) writeSLOMetrics(w io.Writer) {
	fmt.Fprintf(w, "# HELP spstad_timeline_samples_total Timeline sampler ticks taken.\n# TYPE spstad_timeline_samples_total counter\n")
	fmt.Fprintf(w, "spstad_timeline_samples_total %d\n", s.tl.Samples())
	status := s.tl.SLO().Status()
	if len(status) > 0 {
		fmt.Fprintf(w, "# HELP spstad_slo_burning Whether the objective is currently in violation (all burn windows over threshold).\n# TYPE spstad_slo_burning gauge\n")
		for _, st := range status {
			v := 0
			if st.Burning {
				v = 1
			}
			fmt.Fprintf(w, "spstad_slo_burning{objective=%q} %d\n", st.Name, v)
		}
		fmt.Fprintf(w, "# HELP spstad_slo_burn_rate Error-budget burn rate per objective and window (1 = exactly at the objective).\n# TYPE spstad_slo_burn_rate gauge\n")
		for _, st := range status {
			for _, ws := range st.Windows {
				fmt.Fprintf(w, "spstad_slo_burn_rate{objective=%q,window=%q} %g\n",
					st.Name, time.Duration(ws.WindowMS)*time.Millisecond, ws.Burn)
			}
		}
		fmt.Fprintf(w, "# HELP spstad_slo_transitions_total SLO state transitions (fire or clear) per objective.\n# TYPE spstad_slo_transitions_total counter\n")
		for _, st := range status {
			fmt.Fprintf(w, "spstad_slo_transitions_total{objective=%q} %d\n", st.Name, st.Transitions)
		}
	}
	if s.captures != nil {
		fmt.Fprintf(w, "# HELP spstad_slo_captures_total Auto-capture bundles written on SLO violations.\n# TYPE spstad_slo_captures_total counter\n")
		fmt.Fprintf(w, "spstad_slo_captures_total %d\n", s.captures.taken.Load())
	}
}
