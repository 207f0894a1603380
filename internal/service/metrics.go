// RED metrics for the spstad service: request rate, error count and
// latency histograms per engine, plus worker-pool gauges and the
// accuracy-drift monitor's deviation gauges. The registry is a fixed
// set of atomics — no dependency beyond the standard library — and
// renders itself in the Prometheus text exposition format, including
// a summary of the per-request engine registries added together.
package service

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Engines accepted by the analyze endpoint, in label order. The extra
// "compare" label counts /v1/compare requests, which always run the
// spsta and mc engines as a pair, and "delta" counts /v1/delta
// incremental requests.
var engineLabels = []string{"spsta", "moment", "mc", "all", "compare", "delta"}

// numEngineLabels sizes the per-engine atomics arrays.
const numEngineLabels = 6

func engineIndex(engine string) int {
	for i, l := range engineLabels {
		if l == engine {
			return i
		}
	}
	return -1
}

// latencyBounds are the histogram upper bounds in seconds. Fixed
// buckets keep observation lock-free: one atomic add per request.
var latencyBounds = [...]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// latencyHist is a fixed-bucket latency histogram; buckets[i] counts
// observations in (bounds[i-1], bounds[i]], the last bucket is +Inf.
type latencyHist struct {
	buckets [len(latencyBounds) + 1]atomic.Int64
	sumNS   atomic.Int64
	count   atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(latencyBounds) && s > latencyBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNS.Add(d.Nanoseconds())
	h.count.Add(1)
}

// costBounds are the request cost histogram's upper bounds in work
// units (DESIGN.md §14): decades covering a trivial inline netlist
// (~1e3) through a 10M-run Monte Carlo sweep (~1e10).
var costBounds = [...]float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// costHist is a fixed-bucket work-unit histogram, same lock-free
// shape as latencyHist.
type costHist struct {
	buckets [len(costBounds) + 1]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

func (h *costHist) observe(units int64) {
	v := float64(units)
	i := 0
	for i < len(costBounds) && v > costBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(units)
	h.count.Add(1)
}

// atomicFloat is a float64 gauge stored as bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// registry is the service-level metrics store.
type registry struct {
	// latency[i].count is also engine i's request count.
	errors  [numEngineLabels]atomic.Int64
	latency [numEngineLabels]latencyHist

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
	cost costHist

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
	r.latency[i].observe(d)
}

// writePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4).
func (r *registry) writePrometheus(w io.Writer) {
	counter := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("spstad_requests_total", "Requests served, by engine.")
	for i, l := range engineLabels {
		fmt.Fprintf(w, "spstad_requests_total{engine=%q} %d\n", l, r.latency[i].count.Load())
	}
	counter("spstad_request_errors_total", "Requests that failed, by engine.")
	for i, l := range engineLabels {
		fmt.Fprintf(w, "spstad_request_errors_total{engine=%q} %d\n", l, r.errors[i].Load())
	}

	fmt.Fprintf(w, "# HELP spstad_request_duration_seconds Request latency, by engine.\n")
	fmt.Fprintf(w, "# TYPE spstad_request_duration_seconds histogram\n")
	for i, l := range engineLabels {
		h := &r.latency[i]
		if h.count.Load() == 0 {
			continue
		}
		cum := int64(0)
		for b, bound := range latencyBounds {
			cum += h.buckets[b].Load()
			fmt.Fprintf(w, "spstad_request_duration_seconds_bucket{engine=%q,le=%q} %d\n", l, trimFloat(bound), cum)
		}
		cum += h.buckets[len(latencyBounds)].Load()
		fmt.Fprintf(w, "spstad_request_duration_seconds_bucket{engine=%q,le=\"+Inf\"} %d\n", l, cum)
		fmt.Fprintf(w, "spstad_request_duration_seconds_sum{engine=%q} %g\n", l, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(w, "spstad_request_duration_seconds_count{engine=%q} %d\n", l, h.count.Load())
	}

	fmt.Fprintf(w, "# HELP spstad_request_cost_units Deterministic work-unit cost per successful request (DESIGN.md §14).\n")
	fmt.Fprintf(w, "# TYPE spstad_request_cost_units histogram\n")
	{
		cum := int64(0)
		for b, bound := range costBounds {
			cum += r.cost.buckets[b].Load()
			fmt.Fprintf(w, "spstad_request_cost_units_bucket{le=%q} %d\n", trimFloat(bound), cum)
		}
		cum += r.cost.buckets[len(costBounds)].Load()
		fmt.Fprintf(w, "spstad_request_cost_units_bucket{le=\"+Inf\"} %d\n", cum)
		fmt.Fprintf(w, "spstad_request_cost_units_sum %d\n", r.cost.sum.Load())
		fmt.Fprintf(w, "spstad_request_cost_units_count %d\n", r.cost.count.Load())
	}

	gauge("spstad_queue_depth", "Requests waiting for a worker slot.")
	fmt.Fprintf(w, "spstad_queue_depth %d\n", r.queueDepth.Load())
	gauge("spstad_inflight_requests", "Requests currently being analyzed.")
	fmt.Fprintf(w, "spstad_inflight_requests %d\n", r.inflight.Load())
	counter("spstad_requests_rejected_total", "Requests rejected because the queue was full or the service was shutting down.")
	fmt.Fprintf(w, "spstad_requests_rejected_total %d\n", r.rejected.Load())

	counter("spstad_cache_hits_total", "Engine results served from the content-addressed result cache.")
	fmt.Fprintf(w, "spstad_cache_hits_total %d\n", r.cacheHits.Load())
	counter("spstad_cache_misses_total", "Engine runs the result cache could not serve.")
	fmt.Fprintf(w, "spstad_cache_misses_total %d\n", r.cacheMisses.Load())
	counter("spstad_cache_evictions_total", "Results evicted from the result cache by its byte bound.")
	fmt.Fprintf(w, "spstad_cache_evictions_total %d\n", r.cacheEvictions.Load())
	gauge("spstad_cache_bytes", "Estimated bytes held by the result cache.")
	fmt.Fprintf(w, "spstad_cache_bytes %d\n", r.cacheBytes.Load())
	counter("spstad_singleflight_shared_total", "Requests that shared a concurrent identical engine run instead of starting their own.")
	fmt.Fprintf(w, "spstad_singleflight_shared_total %d\n", r.singleflightShared.Load())
	gauge("spstad_registry_entries", "Netlists currently held by the registry.")
	fmt.Fprintf(w, "spstad_registry_entries %d\n", r.registryEntries.Load())
	counter("spstad_registry_evictions_total", "Netlists evicted from the registry.")
	fmt.Fprintf(w, "spstad_registry_evictions_total %d\n", r.registryEvictions.Load())
	counter("spstad_delta_nets_recomputed_total", "Node recomputations performed by /v1/delta reconciliations.")
	fmt.Fprintf(w, "spstad_delta_nets_recomputed_total %d\n", r.deltaNets.Load())

	counter("spstad_drift_samples_total", "Accuracy-drift monitor replays performed.")
	fmt.Fprintf(w, "spstad_drift_samples_total %d\n", r.driftSamples.Load())
	gauge("spstad_drift_mean_deviation", "Absolute mean arrival-time deviation, SPSTA vs packed Monte Carlo, at the last replayed request's critical endpoint.")
	fmt.Fprintf(w, "spstad_drift_mean_deviation %g\n", r.driftMeanDev.Load())
	gauge("spstad_drift_sigma_deviation", "Absolute arrival-time sigma deviation, SPSTA vs packed Monte Carlo, at the last replayed request's critical endpoint.")
	fmt.Fprintf(w, "spstad_drift_sigma_deviation %g\n", r.driftSigmaDev.Load())

	agg := r.engine.Snapshot()

	counter("spstad_engine_kernel_cache_hits_total", "Delay-kernel cache hits across all requests.")
	fmt.Fprintf(w, "spstad_engine_kernel_cache_hits_total %d\n", agg.KernelCache.Hits)
	counter("spstad_engine_kernel_cache_misses_total", "Delay-kernel cache misses across all requests.")
	fmt.Fprintf(w, "spstad_engine_kernel_cache_misses_total %d\n", agg.KernelCache.Misses)
	counter("spstad_engine_convolutions_total", "PMF convolutions across all requests, by method.")
	fmt.Fprintf(w, "spstad_engine_convolutions_total{method=\"direct\"} %d\n", agg.Convolution.Direct)
	fmt.Fprintf(w, "spstad_engine_convolutions_total{method=\"fft\"} %d\n", agg.Convolution.FFT)
	counter("spstad_engine_gates_total", "Gates evaluated by the level-parallel schedule across all requests.")
	fmt.Fprintf(w, "spstad_engine_gates_total %d\n", agg.Gates)
	counter("spstad_engine_mc_runs_total", "Monte Carlo runs simulated across all requests.")
	fmt.Fprintf(w, "spstad_engine_mc_runs_total %d\n", agg.MonteCarloRuns)
	counter("spstad_engine_mc_packed_blocks_total", "Word-packed Monte Carlo blocks across all requests.")
	fmt.Fprintf(w, "spstad_engine_mc_packed_blocks_total %d\n", agg.MonteCarloPacked.Blocks)
	gauge("spstad_engine_pruned_mass", "Probability mass pruned by the adaptive engine across all requests.")
	fmt.Fprintf(w, "spstad_engine_pruned_mass %g\n", agg.Pruning.PrunedMass)

	// Convolution plan caches (DESIGN.md §13).
	counter("spstad_engine_fft_plans_total", "FFT plan-cache lookups across all requests, by result.")
	fmt.Fprintf(w, "spstad_engine_fft_plans_total{result=\"hit\"} %d\n", agg.Batch.FFTPlanHits)
	fmt.Fprintf(w, "spstad_engine_fft_plans_total{result=\"miss\"} %d\n", agg.Batch.FFTPlanMisses)
	counter("spstad_engine_conv_plans_total", "Per-grid convolution plan-cache lookups across all requests, by result.")
	fmt.Fprintf(w, "spstad_engine_conv_plans_total{result=\"hit\"} %d\n", agg.Batch.ConvPlanHits)
	fmt.Fprintf(w, "spstad_engine_conv_plans_total{result=\"miss\"} %d\n", agg.Batch.ConvPlanMisses)

	// Depth-adaptive grid-coarsening counters (DESIGN.md §15).
	counter("spstad_engine_rebin_calls_total", "PMF re-binning kernel invocations across all requests.")
	fmt.Fprintf(w, "spstad_engine_rebin_calls_total %d\n", agg.Grid.RebinCalls)
	counter("spstad_engine_rebin_levels_total", "Level boundaries at which a run stepped to a coarser grid, across all requests.")
	fmt.Fprintf(w, "spstad_engine_rebin_levels_total %d\n", agg.Grid.RebinLevels)
	counter("spstad_engine_rebin_deviation_total", "Certified re-binning deviation folded into consumed budgets across all requests.")
	fmt.Fprintf(w, "spstad_engine_rebin_deviation_total %g\n", agg.Grid.RebinDeviation)
	fmt.Fprintf(w, "# HELP spstad_engine_grid_bins_per_level Grid resolution (bins) each scheduled level ran at, across all requests.\n")
	fmt.Fprintf(w, "# TYPE spstad_engine_grid_bins_per_level histogram\n")
	if len(agg.Grid.BinsPerLevelHist) > 0 {
		cum := int64(0)
		for _, bk := range agg.Grid.BinsPerLevelHist {
			cum += bk.Count
			fmt.Fprintf(w, "spstad_engine_grid_bins_per_level_bucket{le=%q} %d\n", trimFloat(float64(bk.Hi)), cum)
		}
		fmt.Fprintf(w, "spstad_engine_grid_bins_per_level_bucket{le=\"+Inf\"} %d\n", cum)
		fmt.Fprintf(w, "spstad_engine_grid_bins_per_level_count %d\n", cum)
	}
	gauge("spstad_engine_support_width_peak_bins", "Widest t.o.p. support (bins) observed by any request.")
	fmt.Fprintf(w, "spstad_engine_support_width_peak_bins %d\n", agg.Grid.SupportWidthPeak)
	gauge("spstad_engine_slab_bytes_peak", "Largest stored-row footprint (bytes of slab chunks holding stored t.o.p. functions) of any request's run.")
	fmt.Fprintf(w, "spstad_engine_slab_bytes_peak %d\n", agg.Grid.SlabBytesPeak)

	counter("spstad_engine_cost_units_total", "Work units accumulated across all requests, by kind (DESIGN.md §14).")
	fmt.Fprintf(w, "spstad_engine_cost_units_total{kind=\"bin_ops\"} %d\n", agg.Cost.BinOps)
	fmt.Fprintf(w, "spstad_engine_cost_units_total{kind=\"mixture_ops\"} %d\n", agg.Cost.MixtureOps)
	fmt.Fprintf(w, "spstad_engine_cost_units_total{kind=\"leaf_ops\"} %d\n", agg.Cost.LeafOps)
	fmt.Fprintf(w, "spstad_engine_cost_units_total{kind=\"mc_ops\"} %d\n", agg.Cost.MCOps)

	// Process runtime gauges, prefixed go_ per client_golang convention.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("go_goroutines", "Number of goroutines that currently exist.")
	fmt.Fprintf(w, "go_goroutines %d\n", runtime.NumGoroutine())
	gauge("go_memstats_heap_inuse_bytes", "Heap bytes in in-use spans.")
	fmt.Fprintf(w, "go_memstats_heap_inuse_bytes %d\n", ms.HeapInuse)
	counter("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.")
	fmt.Fprintf(w, "go_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
}

// trimFloat formats a histogram bound the way Prometheus clients
// expect: no trailing zeros, no exponent for these magnitudes.
func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
