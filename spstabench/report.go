package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
)

// outDir holds everything a run leaves behind, relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build"

// runConfig is one run's workload, seed and size.
type runConfig struct {
	workload string
	seed     int64
	ops      int // operations per timed pass
	traced   bool
}

// env records the conditions a result was measured under.
type env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Ops        int    `json:"ops_per_pass"`
	Blocks     int    `json:"blocks_per_pass"`
	Clients    int    `json:"clients"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	// Commit is a digest of the checkout's Go sources: the benchmark
	// also runs from exports that carry no version-control history.
	Commit string `json:"commit"`
	// GoldenMatched and GoldenMissing count engine-unit circuits whose
	// result matched its recorded golden, and those with none recorded.
	GoldenMatched int `json:"golden_matched,omitempty"`
	GoldenMissing int `json:"golden_missing,omitempty"`
}

// report is what one run measured and checked.
type report struct {
	env     env
	check   checker
	values  map[string]float64
	samples map[string]int // sample count behind each percentile
	trace   *traceFile     // traced runs only
}

func newReport(cfg runConfig, clients int) *report {
	r := &report{
		env: env{
			Workload: cfg.workload, Seed: cfg.seed, Ops: cfg.ops, Blocks: passBlocks, Clients: clients,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			GoVersion: runtime.Version(), Commit: sourceDigest(),
		},
		values:  map[string]float64{},
		samples: map[string]int{},
	}
	if cfg.traced {
		r.trace = newTraceFile()
	}
	return r
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setPercentile records the nearest-rank p-th percentile of xs together
// with its sample count.
func (r *report) setPercentile(name string, xs []float64, p float64) {
	r.values[name], r.samples[name] = percentile(xs, p)
}

// setBlockPercentile records blockPercentile(xs, class, p) together
// with its sample count.
func setBlockPercentile[K comparable](r *report, name string, xs []float64, class []K, p float64) {
	r.values[name], r.samples[name] = blockPercentile(xs, class, p)
}

// setRuntime records allocation and GC figures from readings taken
// around a timed pass of ops operations.
func (r *report) setRuntime(before, after memStats, ops int) {
	n := float64(ops)
	r.set("runtime.alloc_mb_per_op", float64(after.totalAlloc-before.totalAlloc)/1e6/n)
	r.set("runtime.allocs_per_op", float64(after.mallocs-before.mallocs)/n)
	r.set("runtime.gc_cycles_per_op", float64(after.numGC-before.numGC)/n)
	r.set("runtime.gc_cycles", float64(after.numGC-before.numGC))
}

// setPeakRSS records the process's peak resident set so far.
func (r *report) setPeakRSS() {
	mb, err := peakRSSMB()
	if err != nil {
		r.check.record(err)
	}
	r.set("peak_rss_mb", mb)
}

// metricValue is one metric of the JSON result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the readable report and, as the last line, the JSON
// result; check failures go to stderr. It reports whether every check
// passed.
func (r *report) print(stdout, stderr io.Writer) bool {
	envJSON, err := json.Marshal(r.env)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(stdout, "env %s\n", envJSON)
	line := func(name, unit, note string) {
		v, ok := r.values[name]
		if !ok {
			return
		}
		if n, ok := r.samples[name]; ok {
			note += fmt.Sprintf(" (nearest rank, n=%d)", n)
		}
		fmt.Fprintf(stdout, "metric %-32s %-14.6g %s%s\n", name, v, unit, note)
	}
	for _, m := range endToEnd {
		line(m.Name, m.Unit, "")
	}
	for _, m := range reportOnly {
		line(m.name, m.unit, "")
	}
	c := &r.check
	fmt.Fprintf(stdout, "metric %-32s %-14.6g ratio (%d failed of %d attempted)\n",
		"error_rate", c.rate(), c.failed, c.attempted)
	if r.trace != nil {
		for _, m := range perLayer {
			note := ""
			if m.exact {
				note = " (exact)"
			}
			line(m.Name, m.Unit, note)
		}
	}
	for _, f := range c.first {
		fmt.Fprintln(stderr, "check failed:", f)
	}

	res := result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	add := func(name, unit string) {
		v := r.values[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	if r.trace != nil {
		for _, m := range perLayer {
			add(m.Name, m.Unit)
		}
	} else {
		for _, m := range endToEnd {
			add(m.Name, m.Unit)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return res.Correct
}

// checker counts checked operations and keeps the first few failure
// messages. It is safe for concurrent use.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string
}

// record counts one checked operation, failed when err is not nil.
func (c *checker) record(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if len(c.first) < 10 {
		c.first = append(c.first, err.Error())
	}
}

func (c *checker) rate() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}
