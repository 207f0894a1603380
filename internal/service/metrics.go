// Service metrics for spstad: the registry of atomics the request path
// writes (RED series per route, worker-pool gauges, cache and registry
// counters, the drift monitor's gauges and the lifetime engine totals),
// and the one table that declares every series read from it. /metrics
// renders the table in the Prometheus text exposition format and the
// timeline sampler walks the same table into the in-process time-series
// store (DESIGN.md §17.1), so a series is named, typed and read in one
// place. No dependency beyond the standard library.
package service

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/timeline"
)

// engineLabels are the RED label values, in label order: the engines
// the analyze endpoint accepts, "compare" for /v1/compare requests
// (which always run the spsta and mc engines as a pair), "delta" for
// /v1/delta incremental requests and "netlists" for /v1/netlists
// uploads.
var engineLabels = [...]string{"spsta", "moment", "mc", "all", "compare", "delta", "netlists"}

func engineIndex(engine string) int { return slices.Index(engineLabels[:], engine) }

// latencyBounds are the request latency histogram's upper bounds in
// seconds.
var latencyBounds = [...]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// costBounds are the request cost histogram's upper bounds in work
// units (DESIGN.md §14): decades covering a trivial inline netlist
// (~1e3) through a 10M-run Monte Carlo sweep (~1e10).
var costBounds = [...]float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// hist is a fixed-bucket histogram over the bounds its caller names:
// buckets[i] counts observations in (bounds[i-1], bounds[i]], and the
// bucket after the last bound is +Inf. Fixed buckets keep observation
// lock-free, one atomic add each to a bucket, the sum and the count.
// It is sized for the widest bound set.
type hist struct {
	buckets [len(latencyBounds) + 1]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// observe records v, adding raw (v in the sum's integer unit) to the
// sum.
func (h *hist) observe(bounds []float64, v float64, raw int64) {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(raw)
	h.count.Add(1)
}

// counts returns the per-bucket counts over bounds, +Inf last.
func (h *hist) counts(bounds []float64) []int64 {
	c := make([]int64, len(bounds)+1)
	for i := range c {
		c[i] = h.buckets[i].Load()
	}
	return c
}

// atomicFloat is a float64 gauge stored as bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// registry is the service-level metrics store.
type registry struct {
	// latency[i].count is also engine i's request count.
	errors  [len(engineLabels)]atomic.Int64
	latency [len(engineLabels)]hist

	queueDepth atomic.Int64
	inflight   atomic.Int64
	rejected   atomic.Int64

	// Result-cache, single-flight, netlist-registry and delta
	// counters; the resultCache / netRegistry update these directly so
	// /metrics has a single source of truth.
	cacheHits          atomic.Int64
	cacheMisses        atomic.Int64
	cacheEvictions     atomic.Int64
	cacheBytes         atomic.Int64
	singleflightShared atomic.Int64
	registryEntries    atomic.Int64
	registryEvictions  atomic.Int64
	deltaNets          atomic.Int64

	// cost observes each successful request's total work-unit cost.
	cost hist

	driftSamples  atomic.Int64
	driftMeanDev  atomicFloat
	driftSigmaDev atomicFloat

	// engine accumulates the per-request engine registries: every
	// successful request's registry is added in as it finishes, so
	// /metrics exposes lifetime engine totals next to the RED series.
	engine obs.Metrics
}

// observe records one finished request for the engine label.
func (r *registry) observe(engine string, d time.Duration, failed bool) {
	i := engineIndex(engine)
	if i < 0 {
		return
	}
	if failed {
		r.errors[i].Add(1)
	}
	r.latency[i].observe(latencyBounds[:], d.Seconds(), d.Nanoseconds())
}

// The timeline series the SLO objectives read (defaultObjectives).
// Request series follow req.<engine>.<what>, with the req.total.*
// aggregates across engines so objectives do not depend on the
// traffic mix.
const (
	seriesReqTotalCount   = "req.total.count"
	seriesReqTotalErrors  = "req.total.errors"
	seriesReqTotalLatency = "req.total.latency"
	seriesRejected        = "pool.rejected"
)

// family is one Prometheus metric family of /metrics: its name, type
// (counter, gauge or histogram) and HELP text.
type family struct {
	name, typ, help string
	// when, if set, leaves the whole family out of /metrics, HELP and
	// TYPE included, while it reports false.
	when func(*Service) bool
}

// families lists /metrics' families in exposition order: fam appends
// each one as the package initializes the family variables below, in
// declaration order.
var families []*family

func fam(name, typ, help string) *family {
	f := &family{name: name, typ: typ, help: help}
	families = append(families, f)
	return f
}

var (
	famRequests    = fam("spstad_requests_total", "counter", "Requests served, by engine.")
	famErrors      = fam("spstad_request_errors_total", "counter", "Requests that failed, by engine.")
	famDuration    = fam("spstad_request_duration_seconds", "histogram", "Request latency, by engine.")
	famCost        = fam("spstad_request_cost_units", "histogram", "Deterministic work-unit cost per successful request (DESIGN.md §14).")
	famQueue       = fam("spstad_queue_depth", "gauge", "Requests waiting for a worker slot.")
	famInflight    = fam("spstad_inflight_requests", "gauge", "Requests currently being analyzed.")
	famRejected    = fam("spstad_requests_rejected_total", "counter", "Requests rejected because the queue was full or the service was shutting down.")
	famCacheHits   = fam("spstad_cache_hits_total", "counter", "Engine results served from the content-addressed result cache.")
	famCacheMisses = fam("spstad_cache_misses_total", "counter", "Engine runs the result cache could not serve.")
	famCacheEvict  = fam("spstad_cache_evictions_total", "counter", "Results evicted from the result cache by its byte bound.")
	famCacheBytes  = fam("spstad_cache_bytes", "gauge", "Estimated bytes held by the result cache.")
	famShared      = fam("spstad_singleflight_shared_total", "counter", "Requests that shared a concurrent identical engine run instead of starting their own.")
	famRegEntries  = fam("spstad_registry_entries", "gauge", "Netlists currently held by the registry.")
	famRegEvict    = fam("spstad_registry_evictions_total", "counter", "Netlists evicted from the registry.")
	famDeltaNets   = fam("spstad_delta_nets_recomputed_total", "counter", "Node recomputations performed by /v1/delta reconciliations.")
	famDriftN      = fam("spstad_drift_samples_total", "counter", "Accuracy-drift monitor replays performed.")
	famDriftMean   = fam("spstad_drift_mean_deviation", "gauge", "Absolute mean arrival-time deviation, SPSTA vs packed Monte Carlo, at the last replayed request's critical endpoint.")
	famDriftSigma  = fam("spstad_drift_sigma_deviation", "gauge", "Absolute arrival-time sigma deviation, SPSTA vs packed Monte Carlo, at the last replayed request's critical endpoint.")
	famKernelHits  = fam("spstad_engine_kernel_cache_hits_total", "counter", "Delay-kernel cache hits across all requests.")
	famKernelMiss  = fam("spstad_engine_kernel_cache_misses_total", "counter", "Delay-kernel cache misses across all requests.")
	famConv        = fam("spstad_engine_convolutions_total", "counter", "PMF convolutions across all requests, by method.")
	famGates       = fam("spstad_engine_gates_total", "counter", "Gates evaluated by the level-parallel schedule across all requests.")
	famMCRuns      = fam("spstad_engine_mc_runs_total", "counter", "Monte Carlo runs simulated across all requests.")
	famMCBlocks    = fam("spstad_engine_mc_packed_blocks_total", "counter", "Word-packed Monte Carlo blocks across all requests.")
	famPruned      = fam("spstad_engine_pruned_mass", "gauge", "Probability mass pruned by the adaptive engine across all requests.")
	famFFTPlans    = fam("spstad_engine_fft_plans_total", "counter", "FFT plan-cache lookups across all requests, by result.")
	famConvPlans   = fam("spstad_engine_conv_plans_total", "counter", "Per-grid convolution plan-cache lookups across all requests, by result.")
	famRebinCalls  = fam("spstad_engine_rebin_calls_total", "counter", "PMF re-binning kernel invocations across all requests.")
	famRebinLevels = fam("spstad_engine_rebin_levels_total", "counter", "Level boundaries at which a run stepped to a coarser grid, across all requests.")
	famRebinDev    = fam("spstad_engine_rebin_deviation_total", "counter", "Certified re-binning deviation folded into consumed budgets across all requests.")
	famGridBins    = fam("spstad_engine_grid_bins_per_level", "histogram", "Grid resolution (bins) each scheduled level ran at, across all requests.")
	famSupportPeak = fam("spstad_engine_support_width_peak_bins", "gauge", "Widest t.o.p. support (bins) observed by any request.")
	famSlabPeak    = fam("spstad_engine_slab_bytes_peak", "gauge", "Largest stored-row footprint (bytes of slab chunks holding stored t.o.p. functions) of any request's run.")
	famCostUnits   = fam("spstad_engine_cost_units_total", "counter", "Work units accumulated across all requests, by kind (DESIGN.md §14).")
	// Process runtime gauges, prefixed go_ per client_golang convention.
	famGoroutines = fam("go_goroutines", "gauge", "Number of goroutines that currently exist.")
	famHeapInuse  = fam("go_memstats_heap_inuse_bytes", "gauge", "Heap bytes in in-use spans.")
	famGCPause    = fam("go_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.")
	famTLSamples  = fam("spstad_timeline_samples_total", "counter", "Timeline sampler ticks taken.")
	famSLOBurning = fam("spstad_slo_burning", "gauge", "Whether the objective is currently in violation (all burn windows over threshold).")
	famSLOBurn    = fam("spstad_slo_burn_rate", "gauge", "Error-budget burn rate per objective and window (1 = exactly at the objective).")
	famSLOTrans   = fam("spstad_slo_transitions_total", "counter", "SLO state transitions (fire or clear) per objective.")
	famCaptures   = fam("spstad_slo_captures_total", "counter", "Auto-capture bundles written on SLO violations.").
			only(func(s *Service) bool { return s.captures != nil })
)

func (f *family) only(when func(*Service) bool) *family {
	f.when = when
	return f
}

// series is one sample of a family and, when tl is set, the timeline
// series of the same value, of the family's kind. An unnamed family,
// which /metrics does not list, holds a timeline-only series. Exactly
// one reader is set: num for a counter or gauge, hist for a histogram
// (false while there is nothing to show), or each for samples whose
// labels are only known when read. A value is an int64, which /metrics
// writes %d, or a float64, written %g.
type series struct {
	fam    *family
	labels string // Prometheus label pairs, e.g. engine="spsta"
	tl     string // timeline name; "" for a /metrics-only series
	num    func(*scrape) any
	hist   func(*scrape) (histSample, bool)
	each   func(*scrape, func(labels string, v any))
}

// serviceSeries lists every series. Its order is the timeline's series
// order (and so /debug/timeline's); within a family it is /metrics'
// sample order.
var serviceSeries = slices.Concat(routeSeries(), []series{
	{fam: &family{typ: "counter"}, tl: seriesReqTotalCount, num: func(c *scrape) any { return c.reqs }},
	{fam: &family{typ: "counter"}, tl: seriesReqTotalErrors, num: func(c *scrape) any { return c.errs }},
	{fam: &family{typ: "histogram"}, tl: seriesReqTotalLatency, hist: func(c *scrape) (histSample, bool) {
		return histSample{latencyBounds[:], c.buckets[:], nil}, true
	}},
	{fam: famQueue, tl: "pool.queue_depth", num: func(c *scrape) any { return c.reg.queueDepth.Load() }},
	{fam: famInflight, tl: "pool.inflight", num: func(c *scrape) any { return c.reg.inflight.Load() }},
	{fam: famRejected, tl: seriesRejected, num: func(c *scrape) any { return c.reg.rejected.Load() }},
	{fam: famCacheHits, tl: "cache.hits", num: func(c *scrape) any { return c.reg.cacheHits.Load() }},
	{fam: famCacheMisses, tl: "cache.misses", num: func(c *scrape) any { return c.reg.cacheMisses.Load() }},
	{fam: &family{typ: "counter"}, tl: "cache.lookups", num: func(c *scrape) any { return c.reg.cacheHits.Load() + c.reg.cacheMisses.Load() }},
	{fam: famCacheEvict, tl: "cache.evictions", num: func(c *scrape) any { return c.reg.cacheEvictions.Load() }},
	{fam: famCacheBytes, tl: "cache.bytes", num: func(c *scrape) any { return c.reg.cacheBytes.Load() }},
	{fam: famShared, tl: "singleflight.shared", num: func(c *scrape) any { return c.reg.singleflightShared.Load() }},
	{fam: famRegEntries, tl: "registry.entries", num: func(c *scrape) any { return c.reg.registryEntries.Load() }},
	{fam: famRegEvict, tl: "registry.evictions", num: func(c *scrape) any { return c.reg.registryEvictions.Load() }},
	{fam: famDeltaNets, tl: "delta.nets_recomputed", num: func(c *scrape) any { return c.reg.deltaNets.Load() }},
	{fam: famDriftMean, tl: "drift.mean_dev", num: func(c *scrape) any { return c.reg.driftMeanDev.Load() }},
	{fam: famDriftSigma, tl: "drift.sigma_dev", num: func(c *scrape) any { return c.reg.driftSigmaDev.Load() }},
	{fam: famDriftN, tl: "drift.samples", num: func(c *scrape) any { return c.reg.driftSamples.Load() }},
	{fam: famCost, tl: "cost", hist: func(c *scrape) (histSample, bool) {
		return histSample{costBounds[:], c.reg.cost.counts(costBounds[:]), c.reg.cost.sum.Load()}, true
	}},
	{fam: famGoroutines, tl: "runtime.goroutines", num: func(c *scrape) any { return int64(runtime.NumGoroutine()) }},
	{fam: famHeapInuse, tl: "runtime.heap_inuse", num: func(c *scrape) any { return int64(c.mem.HeapInuse) }},
	{fam: famGCPause, tl: "runtime.gc_pause_total", num: func(c *scrape) any { return float64(c.mem.PauseTotalNs) / 1e9 }},

	{fam: famKernelHits, num: func(c *scrape) any { return c.agg.KernelCache.Hits }},
	{fam: famKernelMiss, num: func(c *scrape) any { return c.agg.KernelCache.Misses }},
	{fam: famConv, labels: `method="direct"`, num: func(c *scrape) any { return c.agg.Convolution.Direct }},
	{fam: famConv, labels: `method="fft"`, num: func(c *scrape) any { return c.agg.Convolution.FFT }},
	{fam: famGates, num: func(c *scrape) any { return c.agg.Gates }},
	{fam: famMCRuns, num: func(c *scrape) any { return c.agg.MonteCarloRuns }},
	{fam: famMCBlocks, num: func(c *scrape) any { return c.agg.MonteCarloPacked.Blocks }},
	{fam: famPruned, num: func(c *scrape) any { return c.agg.Pruning.PrunedMass }},
	// Convolution plan caches (DESIGN.md §13).
	{fam: famFFTPlans, labels: `result="hit"`, num: func(c *scrape) any { return c.agg.Batch.FFTPlanHits }},
	{fam: famFFTPlans, labels: `result="miss"`, num: func(c *scrape) any { return c.agg.Batch.FFTPlanMisses }},
	{fam: famConvPlans, labels: `result="hit"`, num: func(c *scrape) any { return c.agg.Batch.ConvPlanHits }},
	{fam: famConvPlans, labels: `result="miss"`, num: func(c *scrape) any { return c.agg.Batch.ConvPlanMisses }},
	// Depth-adaptive grid coarsening (DESIGN.md §15).
	{fam: famRebinCalls, num: func(c *scrape) any { return c.agg.Grid.RebinCalls }},
	{fam: famRebinLevels, num: func(c *scrape) any { return c.agg.Grid.RebinLevels }},
	{fam: famRebinDev, num: func(c *scrape) any { return c.agg.Grid.RebinDeviation }},
	{fam: famGridBins, hist: func(c *scrape) (histSample, bool) {
		bk := c.agg.Grid.BinsPerLevelHist
		h := histSample{bounds: make([]float64, len(bk)), counts: make([]int64, len(bk)+1)}
		for i, b := range bk {
			h.bounds[i], h.counts[i] = float64(b.Hi), b.Count
		}
		return h, len(bk) > 0
	}},
	{fam: famSupportPeak, num: func(c *scrape) any { return c.agg.Grid.SupportWidthPeak }},
	{fam: famSlabPeak, num: func(c *scrape) any { return c.agg.Grid.SlabBytesPeak }},
	{fam: famCostUnits, labels: `kind="bin_ops"`, num: func(c *scrape) any { return c.agg.Cost.BinOps }},
	{fam: famCostUnits, labels: `kind="mixture_ops"`, num: func(c *scrape) any { return c.agg.Cost.MixtureOps }},
	{fam: famCostUnits, labels: `kind="leaf_ops"`, num: func(c *scrape) any { return c.agg.Cost.LeafOps }},
	{fam: famCostUnits, labels: `kind="mc_ops"`, num: func(c *scrape) any { return c.agg.Cost.MCOps }},

	{fam: famTLSamples, num: func(c *scrape) any { return c.tl.Samples() }},
	{fam: famSLOBurning, each: func(c *scrape, emit func(string, any)) {
		for _, st := range c.slo {
			v := int64(0)
			if st.Burning {
				v = 1
			}
			emit(fmt.Sprintf("objective=%q", st.Name), v)
		}
	}},
	{fam: famSLOBurn, each: func(c *scrape, emit func(string, any)) {
		for _, st := range c.slo {
			for _, ws := range st.Windows {
				window := time.Duration(ws.WindowMS) * time.Millisecond
				emit(fmt.Sprintf("objective=%q,window=%q", st.Name, window.String()), ws.Burn)
			}
		}
	}},
	{fam: famSLOTrans, each: func(c *scrape, emit func(string, any)) {
		for _, st := range c.slo {
			emit(fmt.Sprintf("objective=%q", st.Name), st.Transitions)
		}
	}},
	{fam: famCaptures, num: func(c *scrape) any { return c.captures.taken.Load() }},
})

// routeSeries are the RED series of each engine label: its request
// count, error count and latency histogram, which shows only once the
// label has a request.
func routeSeries() []series {
	var out []series
	for i, l := range engineLabels {
		labels := fmt.Sprintf("engine=%q", l)
		out = append(out,
			series{fam: famRequests, labels: labels, tl: "req." + l + ".count",
				num: func(c *scrape) any { return c.reg.latency[i].count.Load() }},
			series{fam: famErrors, labels: labels, tl: "req." + l + ".errors",
				num: func(c *scrape) any { return c.reg.errors[i].Load() }},
			series{fam: famDuration, labels: labels, tl: "req." + l + ".latency",
				hist: func(c *scrape) (histSample, bool) {
					h := &c.reg.latency[i]
					return histSample{latencyBounds[:], h.counts(latencyBounds[:]), float64(h.sum.Load()) / 1e9}, h.count.Load() > 0
				}},
		)
	}
	return out
}

// histSample is one histogram's state: per-bucket counts over bounds
// (+Inf last) and, unless nil, its sum.
type histSample struct {
	bounds []float64
	counts []int64
	sum    any
}

// scrape is what one /metrics render or timeline tick reads besides
// the registry: the RED series summed over engine labels, the Go
// runtime's memory statistics and, for /metrics only, the lifetime
// engine totals and the SLO objectives' state.
type scrape struct {
	*Service
	reqs, errs int64
	buckets    [len(latencyBounds) + 1]int64
	mem        runtime.MemStats
	agg        *obs.Snapshot
	slo        []timeline.ObjectiveStatus
}

// newScrape sums the RED series and reads the memory statistics.
// ReadMemStats briefly stops the world; at the timeline's default 1s
// interval this is noise, but it is the dominant term of the sampling
// cost model (DESIGN.md §17).
func (s *Service) newScrape() *scrape {
	c := &scrape{Service: s}
	for i := range s.reg.latency {
		h := &s.reg.latency[i]
		for b := range c.buckets {
			c.buckets[b] += h.buckets[b].Load()
		}
		c.reqs += h.count.Load()
		c.errs += s.reg.errors[i].Load()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// writeMetrics renders the table in the Prometheus text exposition
// format (version 0.0.4): each family's HELP and TYPE, then its
// samples.
func (s *Service) writeMetrics(w io.Writer) {
	c := s.newScrape()
	c.agg, c.slo = s.reg.engine.Snapshot(), s.tl.SLO().Status()
	for _, f := range families {
		if f.when != nil && !f.when(s) {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for i := range serviceSeries {
			sr := &serviceSeries[i]
			switch {
			case sr.fam != f:
			case sr.hist != nil:
				if h, ok := sr.hist(c); ok {
					writeHist(w, f.name, sr.labels, h)
				}
			case sr.each != nil:
				sr.each(c, func(labels string, v any) { writeSample(w, f.name, labels, v) })
			default:
				writeSample(w, f.name, sr.labels, sr.num(c))
			}
		}
	}
}

// writeSample writes one sample line.
func writeSample(w io.Writer, name, labels string, v any) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s%s %v\n", name, labels, v)
}

// writeHist writes a histogram's cumulative buckets, its sum (when it
// has one) and its count, the +Inf bucket's.
func writeHist(w io.Writer, name, labels string, h histSample) {
	le := labels
	if le != "" {
		le += ","
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, le, b, cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, le, cum)
	if h.sum != nil {
		writeSample(w, name+"_sum", labels, h.sum)
	}
	writeSample(w, name+"_count", labels, cum)
}

// sampleSeries is the timeline's collector: one tick of every series
// the table names a timeline series for. One pass over a fixed set of
// atomics, ~1µs per tick plus the histogram copies and ReadMemStats, so
// a 1s interval costs well under 0.01% of one core (the bench guard
// enforces <2% end to end).
func (s *Service) sampleSeries(b *timeline.Batch) {
	c := s.newScrape()
	for i := range serviceSeries {
		sr := &serviceSeries[i]
		switch {
		case sr.tl == "":
		case sr.hist != nil:
			if h, ok := sr.hist(c); ok {
				b.Hist(sr.tl, h.bounds, h.counts)
			}
		case sr.fam.typ == "gauge":
			b.Gauge(sr.tl, toFloat(sr.num(c)))
		default:
			b.Counter(sr.tl, toFloat(sr.num(c)))
		}
	}
}

func toFloat(v any) float64 {
	if i, ok := v.(int64); ok {
		return float64(i)
	}
	return v.(float64)
}
