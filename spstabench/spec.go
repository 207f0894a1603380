package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json at the repository root is generated from the tables in
// this file (go run . -write-manifest ../BENCHMARK.json from this
// directory); TestManifestUpToDate keeps the checked-in copy in step.

// runSeconds is the nominal length of one timed pass. A workload turns
// it into a fixed operation count through its rate, so every run with
// the same seed does the same work.
const runSeconds = 20

// workloadSpec names a workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// endToEndSpec is a metric a user of the engines or of spstad sees.
// Bound is the share of the parent's median by which it may worsen.
type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// perLayerSpec is a metric of one layer, reported by the traced run.
type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// exact marks a per-operation count that repeats bit-for-bit for a
	// given seed; the readable report marks it and runs check it.
	exact bool
}

// Every end-to-end metric is present and non-zero on every workload.
// Latency percentiles are medians over the timed pass's blocks; on
// serve-mixed each block's percentile is the geometric mean of the
// per-class percentiles (hot, delta, cold on each circuit), so no
// percentile falls on the boundary between two classes.
//
// The timing bounds are the widest allowed: the speed of the 2-core
// reference host drifts by about ±10% from minute to minute, which puts
// the quartile spread of ten runs' timings at 3–19% (README.md).
var endToEnd = []endToEndSpec{
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// reportOnly metrics are printed in the readable report of the
// workloads they apply to, but are not in the JSON result.
// latency_p50_ms applies everywhere, but the reference host runs an
// engine operation in one of two speeds (about 23 and 33 ms on
// engine-unit) in a mix that drifts from run to run, and the median
// sits on the boundary between them: its spread over ten seeds reached
// 22%, against 8–10% for latency_p90_ms. The others are missing or zero
// on some workload.
var reportOnly = []struct{ name, unit string }{
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"hot_p50_ms", "ms"},
	{"delta_p50_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"max_budget", "prob"},
}

var perLayer = []perLayerSpec{
	// Engine workloads.
	{Name: "core.run_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cost_units", Unit: "count", Better: "lower", exact: true},
	{Name: "core.mixture_ops", Unit: "count", Better: "lower", exact: true},
	{Name: "core.leaf_ops", Unit: "count", Better: "lower", exact: true},
	{Name: "core.max_budget", Unit: "prob", Better: "lower", exact: true},
	{Name: "dist.bin_ops", Unit: "count", Better: "lower", exact: true},
	{Name: "dist.conv_direct", Unit: "count", Better: "lower", exact: true},
	{Name: "dist.conv_fft", Unit: "count", Better: "lower", exact: true},
	{Name: "dist.rebin_calls", Unit: "count", Better: "lower", exact: true},
	{Name: "dist.kernel_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dist.conv_plan_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dist.slab_bytes_peak", Unit: "bytes", Better: "lower"},
	{Name: "dist.support_width_peak", Unit: "bins", Better: "lower"},
	{Name: "synth.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
	// Both kinds of workload.
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	// Served workloads.
	{Name: "service.overhead_ms_p50.hot", Unit: "ms", Better: "lower"},
	{Name: "service.overhead_ms_p50.delta", Unit: "ms", Better: "lower"},
	{Name: "service.overhead_ms_p50.cold", Unit: "ms", Better: "lower"},
	{Name: "service.response_bytes_mean", Unit: "bytes", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.singleflight_shared", Unit: "count", Better: "higher"},
	{Name: "service.slot_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.slot_wait_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "incr.nets_recomputed_mean", Unit: "count", Better: "lower"},
	{Name: "incr.warm_session_ratio", Unit: "ratio", Better: "higher"},
	{Name: "incr.engine_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "montecarlo.engine_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "montecarlo.cost_units", Unit: "count", Better: "lower", exact: true},
	{Name: "montecarlo.packed_blocks", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
}

// manifest is the layout of BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []endToEndSpec `json:"end_to_end"`
	PerLayer   []perLayerSpec `json:"per_layer"`
}

// manifestJSON renders BENCHMARK.json.
func manifestJSON() []byte {
	m := manifest{
		Command:    []string{"bash", "spstabench/run.sh"},
		Paths:      []string{"spstabench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, w.workloadSpec)
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("spstabench: encoding the manifest: %v", err))
	}
	return append(b, '\n')
}

func writeManifest(path string) error {
	return os.WriteFile(path, manifestJSON(), 0o644)
}
