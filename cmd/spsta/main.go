// Command spsta analyzes a gate-level circuit with the SPSTA, SSTA,
// STA or Monte Carlo engines and prints per-endpoint arrival-time
// statistics.
//
// Usage:
//
//	spsta [flags] [circuit.bench]
//
// With no file argument, -gen selects a built-in synthetic benchmark
// profile (s208 … s1238).
//
//	spsta -gen s344 -scenario II -analyzer all
//	spsta -analyzer spsta -net G17 mydesign.bench
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/paths"
	"repro/internal/report"
	"repro/internal/ssta"
	"repro/internal/synth"
	"repro/internal/verilog"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spsta:", err)
		os.Exit(1)
	}
}

func run() error {
	gen := flag.String("gen", "", "generate a built-in synthetic benchmark (s208 … s1238) instead of reading a file")
	scenario := flag.String("scenario", "I", "input statistics scenario: I (uniform) or II (skewed)")
	analyzer := flag.String("analyzer", "spsta", "analyzer: spsta, spsta-moments, ssta, sta, mc, critical, paths, yield, or all")
	runs := flag.Int("runs", 10000, "Monte Carlo run count")
	seed := flag.Int64("seed", 1, "Monte Carlo seed; Monte Carlo output is deterministic for a fixed (-seed, -workers) pair")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS): SPSTA evaluates each circuit level in parallel with results identical for any worker count; Monte Carlo shards its runs per worker, so its substreams — and hence its output — are determined by the (-seed, -workers) pair")
	packed := flag.Bool("packed", true, "use the word-packed bit-parallel Monte Carlo engine (64 runs per machine word; bit-identical to -packed=false for the same seed and workers)")
	net := flag.String("net", "", "report a single net instead of the endpoints")
	split := flag.Int("split", 0, "decompose gates wider than this fanin into trees (0 disables)")
	sigma := flag.Float64("sigma", 0, "gate delay sigma: >0 selects variational N(1, sigma^2) gate delays (exercising the convolution SUM path) instead of deterministic unit delays")
	epsilon := flag.Float64("epsilon", 0, "per-net error budget for adaptive pruning in the spsta and spsta-moments engines (0 = exact; results deviate from the exact run by at most the consumed budget reported per net)")
	batched := flag.Bool("batched", true, "use the batched level scheduler in the spsta engine (struct-of-arrays slabs, shared delay kernels; bit-identical to -batched=false)")
	coarsen := flag.String("coarsen", "off", "depth-adaptive grid coarsening in the spsta engine: off, fixed (re-bin 2x once at the first level boundary) or auto (re-bin whenever supports outgrow the threshold); the re-binning deviation is folded into the per-net consumed budget (DESIGN.md §15)")
	coarsenFactor := flag.Int("coarsen-factor", 0, "re-binning factor for -coarsen fixed/auto: 2 or 4 (0 = default 2)")
	costFlag := flag.Bool("cost", false, "report per-engine deterministic work-unit cost (DESIGN.md §14) in the -analyzer all footer (enables the metrics scope)")
	metricsOut := flag.String("metrics", "", "append a JSON engine-metrics snapshot to the run report: - for stdout, or a file path")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON timeline of the level schedule to this file (open in chrome://tracing or Perfetto)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar metrics on this address (e.g. localhost:6060) for the duration of the run")
	flag.Parse()

	// One scope for the whole CLI invocation: metrics when -metrics,
	// -pprof or -cost asks for them, a tracer when -trace does. A nil
	// scope (no flag) keeps the zero-overhead fast path.
	var scope *obs.Scope
	if *metricsOut != "" || *pprofAddr != "" || *traceOut != "" || *costFlag {
		scope = &obs.Scope{}
		if *metricsOut != "" || *pprofAddr != "" || *costFlag {
			scope.Metrics = obs.NewMetrics()
		}
		if *traceOut != "" {
			scope.Tracer = obs.NewTracer()
		}
	}
	if *pprofAddr != "" {
		srv, err := obshttp.Serve(*pprofAddr, scope)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "pprof: serving http://%s/debug/pprof/ and /debug/metrics\n", srv.Addr())
	}

	c, err := loadCircuit(*gen, flag.Arg(0))
	if err != nil {
		return err
	}
	if *split > 0 {
		if c, err = netlist.SplitWideGates(c, *split); err != nil {
			return err
		}
	}
	var s experiments.Scenario
	switch *scenario {
	case "I", "i", "1":
		s = experiments.ScenarioI
	case "II", "ii", "2":
		s = experiments.ScenarioII
	default:
		return fmt.Errorf("unknown scenario %q (want I or II)", *scenario)
	}
	in := experiments.Inputs(c, s)

	st := c.Stats()
	fmt.Printf("%s: %d inputs, %d outputs, %d DFFs, %d gates, depth %d; scenario %s\n\n",
		st.Name, st.Inputs, st.Outputs, st.DFFs, st.Gates, st.Depth, s)

	targets, err := targetNets(c, *net)
	if err != nil {
		return err
	}

	var delay ssta.DelayModel
	if *sigma > 0 {
		s := *sigma
		delay = func(n *netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: s} }
	}

	if *epsilon < 0 {
		return fmt.Errorf("-epsilon must be >= 0 (got %v)", *epsilon)
	}
	mode := core.BatchAuto
	if !*batched {
		mode = core.BatchOff
	}
	cmode, err := core.ParseCoarsenMode(*coarsen)
	if err != nil {
		return err
	}
	pol := core.CoarsenPolicy{Mode: cmode, Factor: *coarsenFactor}
	if err := pol.Validate(); err != nil {
		return err
	}
	dispatch := func() error {
		switch *analyzer {
		case "spsta":
			_, err := runSPSTA(c, in, targets, *workers, *epsilon, delay, mode, pol, scope)
			return err
		case "spsta-moments":
			_, err := runSPSTAMoments(c, in, targets, *workers, *epsilon, delay, scope)
			return err
		case "ssta":
			return runSSTA(c, in, targets, delay)
		case "sta":
			return runSTA(c, in, targets, delay)
		case "mc":
			return runMC(c, in, targets, *runs, *seed, *workers, *packed, delay, scope)
		case "critical":
			return runCritical(c, in, *workers, delay, scope)
		case "paths":
			return runPaths(c, in)
		case "yield":
			return runYield(c, in, *workers, delay, scope)
		case "all":
			return runAll(c, in, targets, *runs, *seed, *workers, *packed, *epsilon, delay, mode, pol, scope)
		}
		return fmt.Errorf("unknown analyzer %q", *analyzer)
	}
	if err := dispatch(); err != nil {
		return err
	}
	return writeObsOutputs(scope.M(), scope.T(), *metricsOut, *traceOut)
}

// pruneStats is the ε-pruning certificate of one engine run, shown in
// the -analyzer all footer: the total approximation mass dropped across
// the circuit and the largest per-net consumed budget (the certified
// bound on any single net's probability deviation).
type pruneStats struct {
	ok     bool
	pruned float64
	budget float64
}

// runAll runs every comparison engine and prints a summary footer
// with per-engine wall time, the peak HeapAlloc growth observed while
// the engine ran (sampled concurrently), and — for the pruning-capable
// SPSTA engines — the total pruned mass and max consumed error budget.
func runAll(c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, targets []netlist.NodeID, runs int, seed int64, workers int, packed bool, epsilon float64, delay ssta.DelayModel, mode core.BatchMode, pol core.CoarsenPolicy, scope *obs.Scope) error {
	engines := []struct {
		name string
		f    func() (pruneStats, error)
	}{
		{"spsta", func() (pruneStats, error) {
			return runSPSTA(c, in, targets, workers, epsilon, delay, mode, pol, scope)
		}},
		{"spsta-moments", func() (pruneStats, error) { return runSPSTAMoments(c, in, targets, workers, epsilon, delay, scope) }},
		{"ssta", func() (pruneStats, error) { return pruneStats{}, runSSTA(c, in, targets, delay) }},
		{"sta", func() (pruneStats, error) { return pruneStats{}, runSTA(c, in, targets, delay) }},
		{"mc", func() (pruneStats, error) {
			return pruneStats{}, runMC(c, in, targets, runs, seed, workers, packed, delay, scope)
		}},
	}
	footer := report.Table{
		Title:   fmt.Sprintf("Engine summary (epsilon=%g)", epsilon),
		Headers: []string{"engine", "elapsed", "peak heap delta", "cost units", "pruned mass", "max budget"},
	}
	met := scope.M()
	for _, e := range engines {
		runtime.GC() // settle the baseline so deltas are per-engine
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		sampler := startHeapSampler(before)
		cost0 := met.CostUnits()
		t0 := time.Now()
		ps, err := e.f()
		elapsed := time.Since(t0)
		peak := sampler.stop()
		if err != nil {
			return err
		}
		// Engines run serially, so the counter delta is exactly this
		// engine's deterministic work-unit cost (DESIGN.md §14). The
		// closed-form ssta/sta engines don't count work units.
		cost := "-"
		if met != nil {
			cost = fmt.Sprint(met.CostUnits() - cost0)
		}
		pruned, budget := "-", "-"
		if ps.ok {
			pruned = fmt.Sprintf("%.3g", ps.pruned)
			budget = fmt.Sprintf("%.3g", ps.budget)
		}
		footer.Add(e.name, elapsed.Round(time.Microsecond).String(), formatBytes(peak), cost, pruned, budget)
		fmt.Println()
	}
	if err := footer.Render(os.Stdout); err != nil {
		return err
	}
	// Batch-scheduler and grid counters, when a metrics scope is live:
	// how many nets the batched levels carried, how the FFT plan cache
	// fared, how much slab storage the runs reused, and the peak
	// support/storage footprint alongside any re-binning the coarsening
	// policy performed.
	if m := scope.M(); m != nil {
		snap := m.Snapshot()
		b := snap.Batch
		var levels, nets int64
		for _, bk := range b.NetsHist {
			levels += bk.Count
			nets += bk.Count * int64(bk.Lo)
		}
		fmt.Printf("\nbatch kernels: %d levels batched (>=%d nets), fft plans %d hit / %d miss, %s slab reuse\n",
			levels, nets, b.FFTPlanHits, b.FFTPlanMisses, formatBytes(uint64(b.SlabBytesReused)))
		g := snap.Grid
		fmt.Printf("grid: peak support %d bins, peak slab %s, %d re-bin boundaries (%d rebins, deviation %.3g)\n",
			g.SupportWidthPeak, formatBytes(uint64(g.SlabBytesPeak)), g.RebinLevels, g.RebinCalls, g.RebinDeviation)
	}
	return nil
}

// heapSampler polls runtime.MemStats.HeapAlloc on a short ticker and
// tracks the peak growth above a baseline — a sampled approximation
// of the engine's peak live heap (allocation spikes shorter than the
// sampling interval can be missed).
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapSampler(baseline uint64) *heapSampler {
	s := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64)}
	go func() {
		peak := uint64(0)
		sample := func() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > baseline && ms.HeapAlloc-baseline > peak {
				peak = ms.HeapAlloc - baseline
			}
		}
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-s.stopc:
				sample()
				s.done <- peak
				return
			case <-ticker.C:
				sample()
			}
		}
	}()
	return s
}

func (s *heapSampler) stop() uint64 {
	close(s.stopc)
	return <-s.done
}

func formatBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// writeObsOutputs appends the metrics snapshot to the run report and
// writes the trace file, per the -metrics/-trace flags.
func writeObsOutputs(met *obs.Metrics, tracer *obs.Tracer, metricsOut, traceOut string) error {
	if met != nil && metricsOut != "" {
		enc, err := json.MarshalIndent(met.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		enc = append(enc, '\n')
		if metricsOut == "-" {
			fmt.Println("\nengine metrics:")
			if _, err := os.Stdout.Write(enc); err != nil {
				return err
			}
		} else if err := os.WriteFile(metricsOut, enc, 0o644); err != nil {
			return err
		}
	}
	if tracer != nil {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		msg := fmt.Sprintf("trace: wrote %d spans to %s", tracer.Len(), traceOut)
		if d := tracer.Dropped(); d > 0 {
			msg += fmt.Sprintf(" (%d spans dropped over the %d-event cap)", d, obs.DefaultMaxEvents)
		}
		fmt.Fprintln(os.Stderr, msg)
	}
	return nil
}

func loadCircuit(gen, path string) (*netlist.Circuit, error) {
	switch {
	case gen != "" && path != "":
		return nil, fmt.Errorf("pass either -gen or a file, not both")
	case gen != "":
		p, ok := synth.ProfileByName(gen)
		if !ok {
			var names []string
			for _, pr := range synth.Profiles() {
				names = append(names, pr.Name)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("unknown profile %q (have %v)", gen, names)
		}
		return synth.Generate(p)
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(path, ".v") || strings.HasSuffix(path, ".sv") {
			return verilog.Parse(f, stem(path))
		}
		return bench.Parse(f, stem(path))
	}
	return nil, fmt.Errorf("pass a .bench file or -gen <profile>; see -h")
}

func stem(path string) string {
	base := path
	if i := lastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := lastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func targetNets(c *netlist.Circuit, net string) ([]netlist.NodeID, error) {
	if net == "" {
		return c.Endpoints(), nil
	}
	n, ok := c.Node(net)
	if !ok {
		return nil, fmt.Errorf("no net named %q", net)
	}
	return []netlist.NodeID{n.ID}, nil
}

func runSPSTA(c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, targets []netlist.NodeID, workers int, epsilon float64, delay ssta.DelayModel, mode core.BatchMode, pol core.CoarsenPolicy, scope *obs.Scope) (pruneStats, error) {
	a := core.Analyzer{Workers: workers, Delay: delay, ErrorBudget: epsilon, Batched: mode, Coarsen: pol, Obs: scope}
	res, err := a.Run(c, in)
	if err != nil {
		return pruneStats{}, err
	}
	t := report.Table{
		Title:   "SPSTA (discretized t.o.p.)",
		Headers: []string{"net", "lvl", "P0", "P1", "Pr", "Pf", "rise mu", "sigma", "fall mu", "sigma"},
	}
	for _, id := range targets {
		n := c.Nodes[id]
		rm, rs, _ := res.Arrival(id, ssta.DirRise)
		fm, fs, _ := res.Arrival(id, ssta.DirFall)
		t.Add(n.Name, fmt.Sprint(n.Level),
			report.F3(res.Probability(id, logic.Zero)), report.F3(res.Probability(id, logic.One)),
			report.F3(res.Probability(id, logic.Rise)), report.F3(res.Probability(id, logic.Fall)),
			report.F(rm), report.F(rs), report.F(fm), report.F(fs))
	}
	if err := t.Render(os.Stdout); err != nil {
		return pruneStats{}, err
	}
	return pruneStats{ok: true, pruned: res.TotalPrunedMass(), budget: res.MaxConsumedBudget()}, nil
}

func runSPSTAMoments(c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, targets []netlist.NodeID, workers int, epsilon float64, delay ssta.DelayModel, scope *obs.Scope) (pruneStats, error) {
	a := core.MomentTiming{Workers: workers, Delay: delay, ErrorBudget: epsilon, Obs: scope}
	res, err := a.Run(c, in)
	if err != nil {
		return pruneStats{}, err
	}
	t := report.Table{
		Title:   "SPSTA (analytic moments)",
		Headers: []string{"net", "Pr", "rise mu", "sigma", "Pf", "fall mu", "sigma"},
	}
	for _, id := range targets {
		n := c.Nodes[id]
		ra, rp := res.Arrival(id, ssta.DirRise)
		fa, fp := res.Arrival(id, ssta.DirFall)
		t.Add(n.Name, report.F3(rp), report.F(ra.Mu), report.F(ra.Sigma),
			report.F3(fp), report.F(fa.Mu), report.F(fa.Sigma))
	}
	if err := t.Render(os.Stdout); err != nil {
		return pruneStats{}, err
	}
	return pruneStats{ok: true, pruned: res.TotalPrunedMass(), budget: res.MaxConsumedBudget()}, nil
}

func runSSTA(c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, targets []netlist.NodeID, delay ssta.DelayModel) error {
	res := ssta.Analyze(c, in, delay)
	t := report.Table{
		Title:   "SSTA (min-max separated)",
		Headers: []string{"net", "rise mu", "sigma", "fall mu", "sigma"},
	}
	for _, id := range targets {
		r := res.At(id, ssta.DirRise)
		f := res.At(id, ssta.DirFall)
		t.Add(c.Nodes[id].Name, report.F(r.Mu), report.F(r.Sigma), report.F(f.Mu), report.F(f.Sigma))
	}
	return t.Render(os.Stdout)
}

func runSTA(c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, targets []netlist.NodeID, delay ssta.DelayModel) error {
	res := ssta.AnalyzeSTA(c, in, delay, 3)
	t := report.Table{
		Title:   "STA (±3σ bounds)",
		Headers: []string{"net", "rise lo", "hi", "fall lo", "hi"},
	}
	for _, id := range targets {
		r := res.At(id, ssta.DirRise)
		f := res.At(id, ssta.DirFall)
		t.Add(c.Nodes[id].Name, report.F(r.Lo), report.F(r.Hi), report.F(f.Lo), report.F(f.Hi))
	}
	return t.Render(os.Stdout)
}

func runMC(c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, targets []netlist.NodeID, runs int, seed int64, workers int, packed bool, delay ssta.DelayModel, scope *obs.Scope) error {
	// The montecarlo package treats Workers as an exact shard count;
	// resolve the 0 default here so the CLI contract ("0 means
	// GOMAXPROCS") holds for Monte Carlo too.
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res, err := montecarlo.Simulate(c, in, montecarlo.Config{Runs: runs, Seed: seed, Workers: workers, Delay: delay, Packed: packed, Obs: scope})
	if err != nil {
		return err
	}
	t := report.Table{
		Title:   fmt.Sprintf("Monte Carlo (%d runs)", runs),
		Headers: []string{"net", "P0", "P1", "Pr", "Pf", "rise mu", "sigma", "fall mu", "sigma"},
	}
	for _, id := range targets {
		r := res.Arrival(id, ssta.DirRise)
		f := res.Arrival(id, ssta.DirFall)
		t.Add(c.Nodes[id].Name,
			report.F3(res.P(id, logic.Zero)), report.F3(res.P(id, logic.One)),
			report.F3(res.P(id, logic.Rise)), report.F3(res.P(id, logic.Fall)),
			report.F(r.Mean()), report.F(r.Sigma()), report.F(f.Mean()), report.F(f.Sigma()))
	}
	return t.Render(os.Stdout)
}

func runCritical(c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, workers int, delay ssta.DelayModel, scope *obs.Scope) error {
	a := core.Analyzer{Workers: workers, Delay: delay, Obs: scope}
	res, err := a.Run(c, in)
	if err != nil {
		return err
	}
	eps := c.Endpoints()
	crit := res.Criticalities(eps)
	type row struct {
		id netlist.NodeID
		v  float64
	}
	rows := make([]row, len(eps))
	for i, id := range eps {
		rows[i] = row{id, crit[i]}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	t := report.Table{
		Title:   "Endpoint criticality probabilities (SPSTA)",
		Headers: []string{"endpoint", "level", "criticality", "P(toggle)"},
	}
	for _, r := range rows {
		n := c.Nodes[r.id]
		t.Add(n.Name, fmt.Sprint(n.Level), report.F3(r.v), report.F3(res.TogglingRate(r.id)))
	}
	return t.Render(os.Stdout)
}

func runPaths(c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats) error {
	end := c.CriticalEndpoint()
	if end == netlist.InvalidNode {
		return fmt.Errorf("circuit has no endpoints")
	}
	ps := paths.Enumerate(c, end, 8)
	crit := paths.Criticalities(c, ps, in, nil)
	t := report.Table{
		Title:   fmt.Sprintf("Top paths to critical endpoint %s", c.Nodes[end].Name),
		Headers: []string{"#", "length", "launch", "delay mu", "sigma", "criticality"},
	}
	for i, p := range ps {
		launch := dist.Normal{Mu: 0, Sigma: 1}
		if st, ok := in[p.Launch()]; ok {
			launch = dist.Normal{Mu: st.Mu, Sigma: st.Sigma}
		}
		d := paths.Delay(c, p, launch, nil)
		t.Add(fmt.Sprint(i+1), fmt.Sprint(p.Length), c.Nodes[p.Launch()].Name,
			report.F(d.Mu), report.F(d.Sigma), report.F3(crit[i]))
	}
	return t.Render(os.Stdout)
}

func runYield(c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, workers int, delay ssta.DelayModel, scope *obs.Scope) error {
	a := core.Analyzer{Workers: workers, Delay: delay, Obs: scope}
	res, err := a.Run(c, in)
	if err != nil {
		return err
	}
	eps := c.Endpoints()
	t := report.Table{
		Title:   "Input-aware timing yield (probability every endpoint settles by T)",
		Headers: []string{"T", "yield"},
	}
	depth := float64(c.Depth())
	for f := 0.25; f <= 1.5; f += 0.125 {
		T := f * depth
		t.Add(report.F(T), report.F3(res.Yield(eps, T)))
	}
	return t.Render(os.Stdout)
}
