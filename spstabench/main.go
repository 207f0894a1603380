// Command spstabench is the repository's benchmark. It drives the SPSTA
// engine (package core) and the spstad request pipeline (package
// service) through three fixed workloads, checks every output, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 301, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json. With -trace 1 a traced pass follows the untraced one
// and the metrics are the per-layer metrics; the spans and counts go to
// .bench_build/spstabench-trace-<workload>-seed<seed>.json. Build and
// run it from the repository root with run.sh:
//
//	bash spstabench/run.sh --workload engine-unit --seed 1 --seconds 10 --trace 0
//
// The exit code is 0 when every output checked out, 1 when one did
// not, and 2 when the workload could not run. README.md in this
// directory explains the workloads, the metrics and how runs are kept
// steady.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// workload is one fixed operation mix of the benchmark.
type workload struct {
	workloadSpec
	// rate is the nominal operation rate on the 2-core reference host,
	// in wall time (for the engine workloads including the collection
	// before each operation). A run performs rate × -seconds operations
	// on any machine, so the work, not the duration, is what stays
	// fixed.
	rate float64
	run  func(runConfig) (*report, error)
}

var workloads = []workload{
	{
		workloadSpec{"engine-unit", "Analyzer.Run at eps=0, unit delays, scenario I on eight s5378-sized circuits (the paper's Table 2/3 setting): mixtures and subset leaves dominate, no convolution or re-bin"},
		16,
		func(cfg runConfig) (*report, error) { return runEngine(unitSetting, verifyGolden, cfg) },
	},
	{
		workloadSpec{"engine-variational", "Analyzer.Run at sigma=0.2, eps=1e-4, coarsen auto on the same circuits: convolution and re-bin dominate; the bypass case for changes to mixtures"},
		16,
		func(cfg runConfig) (*report, error) { return runEngine(variationalSetting, verifyReference, cfg) },
	},
	{
		workloadSpec{"serve-mixed", "two closed-loop clients of an in-process spstad sending 40% cache hits, 40% single-gate /v1/delta edits, 20% cold Monte Carlo runs: request pipeline, incr and montecarlo"},
		240,
		func(cfg runConfig) (*report, error) { return runServed(cfg) },
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spstabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", runSeconds, "nominal timed-pass length; fixes the operation count")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	manifestPath := fs.String("write-manifest", "", "write BENCHMARK.json to this path and exit")
	goldens := fs.Int("record-golden", 0, "print the engine-unit golden sketches of the pools of seeds 0..n-1 and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "spstabench:", err)
		return 2
	}
	if *manifestPath != "" {
		if err := writeManifest(*manifestPath); err != nil {
			return fail(err)
		}
		return 0
	}
	if *goldens > 0 {
		if err := recordGoldens(stdout, *goldens); err != nil {
			return fail(err)
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	switch {
	case !ok:
		return fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	case *seconds < 1:
		return fail(fmt.Errorf("-seconds must be at least 1, got %d", *seconds))
	case *trace != 0 && *trace != 1:
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	cfg := runConfig{
		workload: w.Name,
		seed:     *seed,
		ops:      int(math.Round(w.rate * float64(*seconds))),
		traced:   *trace == 1,
	}
	rep, err := w.run(cfg)
	if err != nil {
		return fail(err)
	}
	if err := rep.writeTrace(); err != nil {
		return fail(err)
	}
	if !rep.print(stdout, stderr) {
		return 1
	}
	return 0
}
