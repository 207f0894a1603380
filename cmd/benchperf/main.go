// Command benchperf measures analysis throughput and writes the
// results as JSON (machine metadata plus ns/op rows), the raw
// material for scaling plots and regression tracking.
//
// Three engines are benchmarked:
//
//	-engine spsta   SPSTA propagation per circuit per worker count
//	                (default output BENCH_spsta.json)
//	-engine moment  analytic moment-matching SPSTA per circuit per
//	                worker count (default output BENCH_moment.json)
//	-engine mc      scalar vs word-packed Monte Carlo per circuit
//	                (default output BENCH_mc.json)
//
// The spsta and moment engines additionally sweep the -epsilon list of
// adaptive-pruning error budgets; each ε>0 cell reports its speedup
// over the exact ε=0 cell at the same worker count. The spsta engine
// also sweeps the -coarsen list of depth-adaptive grid-coarsening
// policies (DESIGN.md §15); each coarsening cell reports its final
// grid resolution, peak support width, certified deviation budget and
// speedup over the coarsen=off cell of the same configuration.
//
// Measurement is interleaved min-of-N: every variant of a circuit
// (worker counts, or scalar/packed) is calibrated to a per-round
// batch, then the batches run round-robin and each variant reports
// its fastest round. Interleaving cancels slow drift (thermal,
// migration, background load) that sequential timing folds into
// whichever variant runs last, and the minimum estimates the
// noise-free cost.
//
// Usage:
//
//	benchperf                              # SPSTA, all nine circuits, workers 1,2,4,8
//	benchperf -engine mc -runs 10000       # scalar vs packed Monte Carlo
//	benchperf -circuits s1196,s1238 -mintime 1s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/ssta"
	"repro/internal/synth"
)

// Row is one measurement cell.
type Row struct {
	Circuit string `json:"circuit"`
	Gates   int    `json:"gates"`
	Depth   int    `json:"depth"`
	// Workers is the worker count of an SPSTA or moment cell.
	Workers int `json:"workers,omitempty"`
	// Epsilon is the adaptive-pruning error budget of an SPSTA or
	// moment cell (0 = exact).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Sigma is the gate-delay standard deviation of an SPSTA or moment
	// cell: 0 benchmarks deterministic unit delays (pure shifts), >0
	// benchmarks variational N(1, σ²) delays, which exercise the
	// per-gate convolution path where tail truncation shrinks kernels.
	Sigma float64 `json:"sigma,omitempty"`
	// Batched ("on" or "off") records the level scheduler of an SPSTA
	// cell: the batched struct-of-arrays scheduler or the sequential
	// per-gate escape hatch.
	Batched string `json:"batched,omitempty"`
	// Coarsen ("off", "fixed" or "auto") records the depth-adaptive
	// grid-coarsening policy of an SPSTA cell (DESIGN.md §15).
	Coarsen string `json:"coarsen,omitempty"`
	// GridBins is the bin count of the cell's final (possibly
	// coarsened) grid, and MaxSupportWidth the widest t.o.p. support
	// (in bins) observed anywhere in the run — together they show what
	// resolution the deep levels actually ran at.
	GridBins        int   `json:"grid_bins,omitempty"`
	MaxSupportWidth int64 `json:"max_support_width,omitempty"`
	// Engine ("scalar" or "packed") and Runs identify a Monte Carlo
	// cell.
	Engine  string  `json:"engine,omitempty"`
	Runs    int     `json:"runs,omitempty"`
	Reps    int     `json:"reps"`
	Rounds  int     `json:"rounds,omitempty"`
	NsPerOp float64 `json:"ns_per_op"`
	// RunsPerSec is the Monte Carlo throughput of the cell.
	RunsPerSec float64 `json:"runs_per_sec,omitempty"`
	// SpeedupV1 compares an SPSTA cell to the same circuit's
	// workers=1 cell.
	SpeedupV1 float64 `json:"speedup_vs_workers_1,omitempty"`
	// SpeedupVsScalar compares a packed Monte Carlo cell to the same
	// circuit's scalar cell.
	SpeedupVsScalar float64 `json:"speedup_vs_scalar,omitempty"`
	// SpeedupVsExact compares a pruned (ε>0) cell to the same
	// circuit's exact ε=0 cell at the same worker count.
	SpeedupVsExact float64 `json:"speedup_vs_exact,omitempty"`
	// SpeedupVsSequential compares a batched SPSTA cell to the
	// sequential (batched=off) cell at the same worker count,
	// budget and sigma.
	SpeedupVsSequential float64 `json:"speedup_vs_sequential,omitempty"`
	// SpeedupVsNoCoarsen compares a coarsening SPSTA cell to the
	// coarsen=off cell at the same worker count, budget, sigma and
	// scheduler mode.
	SpeedupVsNoCoarsen float64 `json:"speedup_vs_no_coarsen,omitempty"`
	// PrunedMass and MaxBudget report the pruning certificate of an
	// ε>0 cell: total mass dropped circuit-wide and the largest per-net
	// consumed budget.
	PrunedMass float64 `json:"pruned_mass,omitempty"`
	MaxBudget  float64 `json:"max_consumed_budget,omitempty"`
	// Schedule marks SPSTA cells whose cost-aware scheduler inlined
	// every level ("serial-inline"): the cell executes the identical
	// instruction stream as workers=1, so its speedup is 1.0 by
	// construction and the measured ns/op differs only by noise.
	Schedule string `json:"schedule,omitempty"`
	// Metrics is an engine-metrics snapshot from one extra
	// instrumented run of this cell (-metrics); the timed reps above
	// run uninstrumented so NsPerOp is unaffected.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// CostUnits is the cell's deterministic work-unit cost (DESIGN.md
	// §14) from the same instrumented probe run — a machine-independent
	// per-engine cost column next to the wall-clock ns/op.
	CostUnits int64 `json:"cost_units,omitempty"`
}

// File is the emitted JSON document.
type File struct {
	Generated  string `json:"generated"`
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Scenario   string `json:"scenario"`
	Engine     string `json:"engine"`
	Benchmarks []Row  `json:"benchmarks"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchperf:", err)
		os.Exit(1)
	}
}

func run() error {
	engine := flag.String("engine", "spsta", "benchmark engine: spsta (level-parallel analyzer sweep), moment (analytic moment-matching sweep), or mc (scalar vs packed Monte Carlo)")
	out := flag.String("out", "", "output JSON path (- for stdout; default BENCH_<engine>.json)")
	workersList := flag.String("workers", "1,2,4,8", "comma-separated worker counts to sweep (-engine spsta/moment)")
	epsilonList := flag.String("epsilon", "0", "comma-separated adaptive-pruning error budgets to sweep (-engine spsta/moment); 0 is the exact baseline")
	sigmaList := flag.String("sigma", "0", "comma-separated gate-delay sigmas to sweep (-engine spsta/moment); 0 is deterministic unit delay, >0 selects variational N(1, sigma^2) delays")
	batchedList := flag.String("batched", "on", "comma-separated level-scheduler modes to sweep (-engine spsta): on (batched slabs), off (sequential per-gate)")
	coarsenList := flag.String("coarsen", "off", "comma-separated grid-coarsening policies to sweep (-engine spsta): off, fixed, auto (DESIGN.md §15)")
	circuitsList := flag.String("circuits", "", "comma-separated circuit subset (default: all nine)")
	runs := flag.Int("runs", 10000, "Monte Carlo runs per op (-engine mc)")
	minTime := flag.Duration("mintime", 200*time.Millisecond, "minimum total measurement time per (circuit, variant) cell")
	rounds := flag.Int("rounds", 8, "interleaved measurement rounds per circuit (min-of-N)")
	withMetrics := flag.Bool("metrics", false, "embed an engine-metrics snapshot per cell (from one extra instrumented run; timed reps stay uninstrumented)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar metrics on this address for the duration of the sweep")
	flag.Parse()

	if *engine != "spsta" && *engine != "moment" && *engine != "mc" {
		return fmt.Errorf("unknown engine %q (want spsta, moment, or mc)", *engine)
	}
	if *out == "" {
		*out = "BENCH_" + *engine + ".json"
	}
	if *rounds < 1 {
		*rounds = 1
	}

	if *pprofAddr != "" {
		srv, err := obshttp.Serve(*pprofAddr, nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "pprof: serving http://%s/debug/pprof/\n", srv.Addr())
	}

	circuits, err := loadCircuits(*circuitsList)
	if err != nil {
		return err
	}

	f := File{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scenario:   experiments.ScenarioI.String(),
		Engine:     *engine,
	}
	switch *engine {
	case "spsta", "moment":
		workers, err := parseInts(*workersList)
		if err != nil {
			return err
		}
		epsilons, err := parseFloats(*epsilonList)
		if err != nil {
			return err
		}
		sigmas, err := parseFloats(*sigmaList)
		if err != nil {
			return err
		}
		modes, err := parseModes(*engine, *batchedList)
		if err != nil {
			return err
		}
		coarsens, err := parseCoarsens(*engine, *coarsenList)
		if err != nil {
			return err
		}
		f.Benchmarks, err = benchAnalyzer(*engine, circuits, workers, epsilons, sigmas, modes, coarsens, *minTime, *rounds, *withMetrics)
		if err != nil {
			return err
		}
	case "mc":
		f.Benchmarks, err = benchMC(circuits, *runs, *minTime, *rounds, *withMetrics)
		if err != nil {
			return err
		}
	}

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d rows)\n", *out, len(f.Benchmarks))
	return nil
}

// schedMode is one level-scheduler mode of the spsta sweep.
type schedMode struct {
	batched bool
}

// parseModes builds the level-scheduler mode list of the spsta sweep.
// The moment engine has no scheduler axis and accepts only the
// default.
func parseModes(engine, batchedList string) ([]schedMode, error) {
	if engine == "moment" {
		if batchedList != "on" {
			return nil, fmt.Errorf("-batched applies to -engine spsta only")
		}
		return []schedMode{{batched: true}}, nil
	}
	var out []schedMode
	for _, part := range strings.Split(batchedList, ",") {
		switch strings.TrimSpace(part) {
		case "on":
			out = append(out, schedMode{batched: true})
		case "off":
			out = append(out, schedMode{batched: false})
		case "":
		default:
			return nil, fmt.Errorf("bad -batched value %q (want on or off)", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -batched list")
	}
	return out, nil
}

// parseCoarsens builds the coarsening-policy axis of the spsta sweep.
// The moment engine runs on analytic moments, not grids, and accepts
// only the off default.
func parseCoarsens(engine, list string) ([]core.CoarsenMode, error) {
	if engine == "moment" {
		if list != "off" {
			return nil, fmt.Errorf("-coarsen applies to -engine spsta only")
		}
		return []core.CoarsenMode{core.CoarsenOff}, nil
	}
	var out []core.CoarsenMode
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m, err := core.ParseCoarsenMode(part)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -coarsen list")
	}
	return out, nil
}

func (m schedMode) batchMode() core.BatchMode {
	if m.batched {
		return core.BatchAuto
	}
	return core.BatchOff
}

func (m schedMode) label() string {
	if m.batched {
		return "on"
	}
	return "off"
}

// benchAnalyzer sweeps worker counts × pruning budgets × scheduler
// modes per circuit for the spsta (discretized t.o.p.) or moment
// (analytic moment-matching) engine, all variants interleaved.
func benchAnalyzer(engine string, circuits []*netlist.Circuit, workers []int, epsilons, sigmas []float64, modes []schedMode, coarsens []core.CoarsenMode, minTime time.Duration, rounds int, withMetrics bool) ([]Row, error) {
	type cell struct {
		eps     float64
		sigma   float64
		w       int
		mode    schedMode
		coarsen core.CoarsenMode
	}
	analyzerFor := func(cl cell) *core.Analyzer {
		return &core.Analyzer{Workers: cl.w, ErrorBudget: cl.eps, Delay: delayFor(cl.sigma),
			Batched: cl.mode.batchMode(),
			Coarsen: core.CoarsenPolicy{Mode: cl.coarsen}}
	}
	runOnce := func(c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, cl cell) error {
		if engine == "moment" {
			_, err := (&core.MomentTiming{Workers: cl.w, ErrorBudget: cl.eps, Delay: delayFor(cl.sigma)}).Run(c, in)
			return err
		}
		res, err := analyzerFor(cl).Run(c, in)
		if err != nil {
			return err
		}
		res.Recycle()
		return nil
	}
	// certificate reruns the cell once (deterministically) outside the
	// timed loop to extract the pruning / re-binning certificate.
	certificate := func(c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, cl cell) (pruned, budget float64, err error) {
		if engine == "moment" {
			res, err := (&core.MomentTiming{Workers: cl.w, ErrorBudget: cl.eps, Delay: delayFor(cl.sigma)}).Run(c, in)
			if err != nil {
				return 0, 0, err
			}
			return res.TotalPrunedMass(), res.MaxConsumedBudget(), nil
		}
		res, err := analyzerFor(cl).Run(c, in)
		if err != nil {
			return 0, 0, err
		}
		return res.TotalPrunedMass(), res.MaxConsumedBudget(), nil
	}
	// gridProbe reruns an spsta cell once with metrics enabled and
	// reports the final (possibly coarsened) grid resolution, the peak
	// t.o.p. support width, and the full snapshot (reused as the
	// -metrics embed). It runs outside the timed loop so NsPerOp stays
	// uninstrumented.
	gridProbe := func(c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, cl cell) (int, int64, *obs.Snapshot, error) {
		scope := obs.NewScope()
		a := analyzerFor(cl)
		a.Obs = scope
		res, err := a.Run(c, in)
		if err != nil {
			return 0, 0, nil, err
		}
		bins := res.Grid.N
		res.Recycle()
		snap := scope.Snapshot()
		return bins, snap.Grid.SupportWidthPeak, snap, nil
	}
	var out []Row
	for _, c := range circuits {
		in := experiments.Inputs(c, experiments.ScenarioI)
		st := c.Stats()
		var cells []cell
		for _, s := range sigmas {
			for _, e := range epsilons {
				for _, w := range workers {
					for _, md := range modes {
						for _, cm := range coarsens {
							cells = append(cells, cell{e, s, w, md, cm})
						}
					}
				}
			}
		}
		vs := make([]variant, len(cells))
		for i, cl := range cells {
			cl := cl
			name := fmt.Sprintf("workers=%d eps=%g sigma=%g", cl.w, cl.eps, cl.sigma)
			if engine != "moment" {
				name += fmt.Sprintf(" batched=%s coarsen=%s", cl.mode.label(), cl.coarsen)
			}
			vs[i] = variant{
				name: name,
				fn:   func() error { return runOnce(c, in, cl) },
			}
		}
		mins, reps, err := measureInterleaved(vs, minTime, rounds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		type baseKey struct {
			eps, sigma float64
			mode       schedMode
			coarsen    core.CoarsenMode
		}
		type exactKey struct {
			w       int
			sigma   float64
			mode    schedMode
			coarsen core.CoarsenMode
		}
		type seqKey struct {
			w          int
			eps, sigma float64
			coarsen    core.CoarsenMode
		}
		type fineKey struct {
			w          int
			eps, sigma float64
			mode       schedMode
		}
		base := make(map[baseKey]float64)   // (ε, σ, mode, coarsen) → workers=1 ns/op
		exact := make(map[exactKey]float64) // (workers, σ, mode, coarsen) → ε=0 ns/op
		seq := make(map[seqKey]float64)     // (workers, ε, σ, coarsen) → sequential ns/op
		fine := make(map[fineKey]float64)   // (workers, ε, σ, mode) → coarsen=off ns/op
		for i, cl := range cells {
			if cl.w == 1 {
				base[baseKey{cl.eps, cl.sigma, cl.mode, cl.coarsen}] = mins[i]
			}
			if cl.eps == 0 {
				exact[exactKey{cl.w, cl.sigma, cl.mode, cl.coarsen}] = mins[i]
			}
			if !cl.mode.batched {
				seq[seqKey{cl.w, cl.eps, cl.sigma, cl.coarsen}] = mins[i]
			}
			if cl.coarsen == core.CoarsenOff {
				fine[fineKey{cl.w, cl.eps, cl.sigma, cl.mode}] = mins[i]
			}
		}
		for i, cl := range cells {
			row := Row{
				Circuit: c.Name,
				Gates:   st.Gates,
				Depth:   st.Depth,
				Workers: cl.w,
				Epsilon: cl.eps,
				Sigma:   cl.sigma,
				Reps:    reps[i],
				Rounds:  rounds,
				NsPerOp: mins[i],
			}
			if engine != "moment" {
				row.Batched = cl.mode.label()
				row.Coarsen = cl.coarsen.String()
			}
			if cl.w != 1 && base[baseKey{cl.eps, cl.sigma, cl.mode, cl.coarsen}] > 0 {
				row.SpeedupV1 = base[baseKey{cl.eps, cl.sigma, cl.mode, cl.coarsen}] / mins[i]
				if inlined, err := allInline(engine, c, in, cl.w, cl.eps, cl.sigma, cl.mode, cl.coarsen); err != nil {
					return nil, err
				} else if inlined {
					// Identical instruction stream as workers=1: the
					// cost-aware scheduler inlined every level, so the
					// speedup is 1.0 by construction.
					row.SpeedupV1 = 1.0
					row.Schedule = "serial-inline"
				}
			}
			if cl.eps > 0 {
				if e := exact[exactKey{cl.w, cl.sigma, cl.mode, cl.coarsen}]; e > 0 {
					row.SpeedupVsExact = e / mins[i]
				}
			}
			if cl.eps > 0 || cl.coarsen != core.CoarsenOff {
				pruned, budget, err := certificate(c, in, cl)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", c.Name, vs[i].name, err)
				}
				row.PrunedMass, row.MaxBudget = pruned, budget
			}
			if cl.mode.batched {
				if s := seq[seqKey{cl.w, cl.eps, cl.sigma, cl.coarsen}]; s > 0 {
					row.SpeedupVsSequential = s / mins[i]
				}
			}
			if cl.coarsen != core.CoarsenOff {
				if f := fine[fineKey{cl.w, cl.eps, cl.sigma, cl.mode}]; f > 0 {
					row.SpeedupVsNoCoarsen = f / mins[i]
				}
			}
			if engine != "moment" {
				bins, widest, snap, err := gridProbe(c, in, cl)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", c.Name, vs[i].name, err)
				}
				row.GridBins = bins
				row.MaxSupportWidth = widest
				if withMetrics {
					row.Metrics = snap
					row.CostUnits = snap.Cost.Total
				}
			} else if withMetrics {
				snap, err := snapshotAnalyzer(engine, c, in, cl.w, cl.eps, cl.sigma, cl.mode)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", c.Name, vs[i].name, err)
				}
				row.Metrics = snap
				row.CostUnits = snap.Cost.Total
			}
			out = append(out, row)
			fmt.Fprintf(os.Stderr, "%-8s %-30s  %12.0f ns/op  (%d reps × %d rounds)%s\n",
				c.Name, vs[i].name, row.NsPerOp, row.Reps, rounds, scheduleSuffix(row.Schedule))
		}
	}
	return out, nil
}

// delayFor maps a -sigma value to a delay model: deterministic unit
// delays for 0 (the paper's experimental model), variational
// N(1, σ²) gate delays otherwise.
func delayFor(sigma float64) ssta.DelayModel {
	if sigma == 0 {
		return nil
	}
	return func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: sigma} }
}

func scheduleSuffix(s string) string {
	if s == "" {
		return ""
	}
	return "  [" + s + "]"
}

// benchMC measures the scalar and packed Monte Carlo engines per
// circuit, interleaved.
func benchMC(circuits []*netlist.Circuit, runs int, minTime time.Duration, rounds int, withMetrics bool) ([]Row, error) {
	var out []Row
	for _, c := range circuits {
		in := experiments.Inputs(c, experiments.ScenarioI)
		st := c.Stats()
		cfgFor := func(packed bool) montecarlo.Config {
			return montecarlo.Config{Runs: runs, Seed: 1, Workers: 1, Packed: packed}
		}
		vs := []variant{
			{name: "scalar", fn: func() error {
				_, err := montecarlo.Simulate(c, in, cfgFor(false))
				return err
			}},
			{name: "packed", fn: func() error {
				_, err := montecarlo.Simulate(c, in, cfgFor(true))
				return err
			}},
		}
		mins, reps, err := measureInterleaved(vs, minTime, rounds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		for i, v := range vs {
			row := Row{
				Circuit:    c.Name,
				Gates:      st.Gates,
				Depth:      st.Depth,
				Engine:     v.name,
				Runs:       runs,
				Reps:       reps[i],
				Rounds:     rounds,
				NsPerOp:    mins[i],
				RunsPerSec: float64(runs) / mins[i] * 1e9,
			}
			if v.name == "packed" && mins[0] > 0 {
				row.SpeedupVsScalar = mins[0] / mins[i]
			}
			if withMetrics {
				snap, err := snapshotMC(c, in, cfgFor(v.name == "packed"))
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", c.Name, v.name, err)
				}
				row.Metrics = snap
				row.CostUnits = snap.Cost.Total
			}
			out = append(out, row)
			fmt.Fprintf(os.Stderr, "%-8s mc/%-6s  %12.0f ns/op  %12.0f runs/s  (%d reps × %d rounds)\n",
				c.Name, v.name, row.NsPerOp, row.RunsPerSec, row.Reps, rounds)
		}
	}
	return out, nil
}

// variant is one timed configuration of a circuit.
type variant struct {
	name string
	fn   func() error
}

// measureInterleaved calibrates a per-round batch per variant, then
// times the batches round-robin, returning each variant's minimum
// per-op nanoseconds and batch size.
func measureInterleaved(vs []variant, minTime time.Duration, rounds int) ([]float64, []int, error) {
	target := minTime / time.Duration(rounds)
	if target <= 0 {
		target = minTime
	}
	reps := make([]int, len(vs))
	for i := range vs {
		if err := vs[i].fn(); err != nil { // warmup + error check
			return nil, nil, fmt.Errorf("%s: %w", vs[i].name, err)
		}
		// Calibrate with the testing.B doubling schedule until one
		// batch reaches the per-round target.
		n := 1
		for {
			t0 := time.Now()
			for j := 0; j < n; j++ {
				if err := vs[i].fn(); err != nil {
					return nil, nil, fmt.Errorf("%s: %w", vs[i].name, err)
				}
			}
			elapsed := time.Since(t0)
			if elapsed >= target {
				break
			}
			next := n * 2
			if elapsed > 0 {
				est := int(float64(n) * 1.2 * float64(target) / float64(elapsed))
				if est > next {
					next = est
				}
				if next > n*100 {
					next = n * 100
				}
			}
			n = next
		}
		reps[i] = n
	}
	mins := make([]float64, len(vs))
	for r := 0; r < rounds; r++ {
		for i := range vs {
			t0 := time.Now()
			for j := 0; j < reps[i]; j++ {
				if err := vs[i].fn(); err != nil {
					return nil, nil, fmt.Errorf("%s: %w", vs[i].name, err)
				}
			}
			perOp := float64(time.Since(t0).Nanoseconds()) / float64(reps[i])
			if r == 0 || perOp < mins[i] {
				mins[i] = perOp
			}
		}
	}
	return mins, reps, nil
}

// allInline reports whether an instrumented Run with the given worker
// count dispatched no level to the pool (every gate was attributed to
// worker 0 by the cost-aware serial fallback).
func allInline(engine string, c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, w int, eps, sigma float64, mode schedMode, coarsen core.CoarsenMode) (bool, error) {
	scope := obs.NewScope()
	m := scope.Metrics
	var err error
	if engine == "moment" {
		_, err = (&core.MomentTiming{Workers: w, ErrorBudget: eps, Delay: delayFor(sigma), Obs: scope}).Run(c, in)
	} else {
		_, err = (&core.Analyzer{Workers: w, ErrorBudget: eps, Delay: delayFor(sigma), Batched: mode.batchMode(),
			Coarsen: core.CoarsenPolicy{Mode: coarsen}, Obs: scope}).Run(c, in)
	}
	if err != nil {
		return false, err
	}
	for _, ws := range m.Snapshot().Workers {
		if ws.Worker != 0 && ws.Gates > 0 {
			return false, nil
		}
	}
	return true, nil
}

// snapshotAnalyzer runs the engine once more with metrics enabled and
// returns the snapshot (including the pruned-leaf and truncated-mass
// counters of an ε>0 cell). It runs outside the timed loop so the
// reported ns/op measures the uninstrumented fast path.
func snapshotAnalyzer(engine string, c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, w int, eps, sigma float64, mode schedMode) (*obs.Snapshot, error) {
	scope := obs.NewScope()
	var err error
	if engine == "moment" {
		_, err = (&core.MomentTiming{Workers: w, ErrorBudget: eps, Delay: delayFor(sigma), Obs: scope}).Run(c, in)
	} else {
		_, err = (&core.Analyzer{Workers: w, ErrorBudget: eps, Delay: delayFor(sigma), Batched: mode.batchMode(), Obs: scope}).Run(c, in)
	}
	if err != nil {
		return nil, err
	}
	return scope.Snapshot(), nil
}

// snapshotMC is the Monte Carlo analog of snapshotSPSTA.
func snapshotMC(c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, cfg montecarlo.Config) (*obs.Snapshot, error) {
	scope := obs.NewScope()
	cfg.Obs = scope
	if _, err := montecarlo.Simulate(c, in, cfg); err != nil {
		return nil, err
	}
	return scope.Snapshot(), nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -workers list")
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad epsilon %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -epsilon list")
	}
	return out, nil
}

func loadCircuits(list string) ([]*netlist.Circuit, error) {
	if list == "" {
		return synth.GenerateAll()
	}
	var out []*netlist.Circuit
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		p, ok := synth.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown circuit %q", name)
		}
		c, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
