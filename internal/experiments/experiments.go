// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 4): Table 2 (critical-path arrival
// statistics for SPSTA vs SSTA vs 10k-run Monte Carlo under two
// input-statistics scenarios), Table 3 (analyzer runtimes), and
// Figures 1–4. cmd/experiments and the top-level benchmarks drive
// this package; EXPERIMENTS.md records its output against the
// paper's numbers.
package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/ssta"
	"repro/internal/synth"
)

// Scenario selects the paper's launch-point statistics.
type Scenario int

const (
	// ScenarioI: 0.25 probability each of 0/1/r/f (Section 4,
	// experiment part I).
	ScenarioI Scenario = iota
	// ScenarioII: 75% zero, 15% one, 2% rise, 8% fall (part II).
	ScenarioII
)

// String returns "I" or "II".
func (s Scenario) String() string {
	if s == ScenarioI {
		return "I"
	}
	return "II"
}

// Stats returns the launch-point statistics of the scenario.
func (s Scenario) Stats() logic.InputStats {
	if s == ScenarioI {
		return logic.UniformStats()
	}
	return logic.SkewedStats()
}

// Inputs assigns the scenario statistics to every launch point.
func Inputs(c *netlist.Circuit, s Scenario) map[netlist.NodeID]logic.InputStats {
	m := make(map[netlist.NodeID]logic.InputStats)
	for _, id := range c.LaunchPoints() {
		m[id] = s.Stats()
	}
	return m
}

// Config parameterizes the experiment harness.
type Config struct {
	// MCRuns is the Monte Carlo run count (default 10000, the
	// paper's setting).
	MCRuns int
	// Seed seeds the Monte Carlo RNG (default 1).
	Seed int64
	// Circuits restricts the benchmark set (default: all nine).
	Circuits []string
	// Workers sets the SPSTA level-parallel worker count (0 =
	// GOMAXPROCS) and the Monte Carlo shard count (0 = one shard, so
	// experiment output does not depend on the host). SPSTA results
	// are identical for any worker count; Monte Carlo results are
	// determined by the (Seed, Workers) pair.
	Workers int
	// Epsilon is the SPSTA adaptive-pruning error budget per net
	// (core.Analyzer.ErrorBudget); 0 runs the exact engine. Pruned
	// runs carry a certificate: every reported probability deviates
	// from exact by at most the consumed budget.
	Epsilon float64
	// Coarsen is the SPSTA depth-adaptive grid-coarsening policy
	// (core.Analyzer.Coarsen); the zero value keeps every run on one
	// grid. Re-binning deviations are folded into the same consumed
	// budget certificate as pruning.
	Coarsen core.CoarsenPolicy
	// Obs, when non-nil, collects engine metrics from every analyzer
	// and Monte Carlo run the harness performs. All runs of one
	// harness invocation share the scope, so its snapshot aggregates
	// the whole experiment. Nil keeps the uninstrumented fast path.
	Obs *obs.Scope
}

func (cfg Config) runs() int {
	if cfg.MCRuns == 0 {
		return 10000
	}
	return cfg.MCRuns
}

func (cfg Config) circuits() ([]*netlist.Circuit, error) {
	names := cfg.Circuits
	if len(names) == 0 {
		for _, p := range synth.Profiles() {
			names = append(names, p.Name)
		}
	}
	var out []*netlist.Circuit
	for _, name := range names {
		p, ok := synth.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown circuit %q", name)
		}
		c, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// Analysis bundles the three analyzers' results on one circuit, with
// wall-clock runtimes for Table 3.
type Analysis struct {
	Circuit   *netlist.Circuit
	SPSTA     *core.Result
	SSTA      *ssta.Result
	MC        *montecarlo.Result
	SPSTATime time.Duration
	SSTATime  time.Duration
	MCTime    time.Duration
}

// RunAll executes SPSTA, SSTA and Monte Carlo on every configured
// circuit under the scenario.
func RunAll(cfg Config, s Scenario) ([]Analysis, error) {
	circuits, err := cfg.circuits()
	if err != nil {
		return nil, err
	}
	var out []Analysis
	for _, c := range circuits {
		in := Inputs(c, s)
		a := Analysis{Circuit: c}

		t0 := time.Now()
		an := core.Analyzer{Workers: cfg.Workers, ErrorBudget: cfg.Epsilon, Coarsen: cfg.Coarsen, Obs: cfg.Obs}
		a.SPSTA, err = an.Run(c, in)
		if err != nil {
			return nil, fmt.Errorf("experiments: SPSTA on %s: %w", c.Name, err)
		}
		a.SPSTATime = time.Since(t0)

		t0 = time.Now()
		a.SSTA = ssta.Analyze(c, in, nil)
		a.SSTATime = time.Since(t0)

		t0 = time.Now()
		// MomentNets stays nil: Table 3 times the paper's full per-net MC run.
		a.MC, err = montecarlo.Simulate(c, in, montecarlo.Config{Runs: cfg.runs(), Seed: cfg.Seed, Workers: cfg.Workers, Obs: cfg.Obs})
		if err != nil {
			return nil, fmt.Errorf("experiments: MC on %s: %w", c.Name, err)
		}
		a.MCTime = time.Since(t0)
		out = append(out, a)
	}
	return out, nil
}

// Table2Row is one line of the paper's Table 2: the critical-path
// endpoint's arrival statistics for one circuit and direction.
type Table2Row struct {
	Case string
	Dir  ssta.Dir

	SPSTAMu, SPSTASigma, SPSTAP float64
	SSTAMu, SSTASigma           float64
	MCMu, MCSigma, MCP          float64
}

// Table2Rows extracts the paper's Table 2 rows (rise rows for every
// circuit, then fall rows, matching the paper's layout).
func Table2Rows(analyses []Analysis) []Table2Row {
	var rows []Table2Row
	for _, d := range []ssta.Dir{ssta.DirRise, ssta.DirFall} {
		for _, a := range analyses {
			end := a.Circuit.CriticalEndpoint()
			mean, sigma, prob := a.SPSTA.Arrival(end, d)
			sst := a.SSTA.At(end, d)
			mc := a.MC.Arrival(end, d)
			v := logic.Rise
			if d == ssta.DirFall {
				v = logic.Fall
			}
			rows = append(rows, Table2Row{
				Case:       a.Circuit.Name,
				Dir:        d,
				SPSTAMu:    mean,
				SPSTASigma: sigma,
				SPSTAP:     prob,
				SSTAMu:     sst.Mu,
				SSTASigma:  sst.Sigma,
				MCMu:       mc.Mean(),
				MCSigma:    mc.Sigma(),
				MCP:        a.MC.P(end, v),
			})
		}
	}
	return rows
}

// WriteTable2 renders Table 2 in the paper's column layout.
func WriteTable2(w io.Writer, s Scenario, rows []Table2Row) error {
	t := report.Table{
		Title: fmt.Sprintf("Table 2 (%s): critical-path arrival statistics — SPSTA vs SSTA vs Monte Carlo", s),
		Headers: []string{"test", "", "SPSTA mu", "sigma", "P",
			"SSTA mu", "sigma", "MC mu", "sigma", "P"},
	}
	for _, r := range rows {
		dir := "r"
		if r.Dir == ssta.DirFall {
			dir = "f"
		}
		t.Add(r.Case, dir,
			report.F(r.SPSTAMu), report.F(r.SPSTASigma), report.F(r.SPSTAP),
			report.F(r.SSTAMu), report.F(r.SSTASigma),
			report.F(r.MCMu), report.F(r.MCSigma), report.F(r.MCP))
	}
	return t.Render(w)
}

// Summary aggregates the relative errors of SPSTA and SSTA against
// Monte Carlo over a set of Table 2 rows — the abstract's headline
// metric ("SPSTA computes mean (standard deviation) of signal
// arrival times within 6.2% (18.6%), SSTA within 13.40% (64.3%)").
type Summary struct {
	Rows int
	// Mean absolute relative errors vs Monte Carlo.
	SPSTAMuErr, SPSTASigmaErr float64
	SSTAMuErr, SSTASigmaErr   float64
	// Mean absolute error of SPSTA transition probability vs MC
	// (the paper's 14.28% signal probability metric), relative to
	// the MC probability.
	SPSTAPErr float64
}

// Summarize averages relative errors over rows with usable MC
// statistics (nonzero mean/sigma/P).
func Summarize(rows []Table2Row) Summary {
	var s Summary
	var nMu, nSigma, nP int
	for _, r := range rows {
		if r.MCMu != 0 {
			s.SPSTAMuErr += math.Abs(r.SPSTAMu-r.MCMu) / math.Abs(r.MCMu)
			s.SSTAMuErr += math.Abs(r.SSTAMu-r.MCMu) / math.Abs(r.MCMu)
			nMu++
		}
		if r.MCSigma > 0.05 {
			s.SPSTASigmaErr += math.Abs(r.SPSTASigma-r.MCSigma) / r.MCSigma
			s.SSTASigmaErr += math.Abs(r.SSTASigma-r.MCSigma) / r.MCSigma
			nSigma++
		}
		if r.MCP > 0.01 {
			s.SPSTAPErr += math.Abs(r.SPSTAP-r.MCP) / r.MCP
			nP++
		}
	}
	s.Rows = len(rows)
	if nMu > 0 {
		s.SPSTAMuErr /= float64(nMu)
		s.SSTAMuErr /= float64(nMu)
	}
	if nSigma > 0 {
		s.SPSTASigmaErr /= float64(nSigma)
		s.SSTASigmaErr /= float64(nSigma)
	}
	if nP > 0 {
		s.SPSTAPErr /= float64(nP)
	}
	return s
}

// WriteSummary renders the error summary.
func WriteSummary(w io.Writer, s Summary) error {
	t := report.Table{
		Title:   "Accuracy vs Monte Carlo (mean absolute relative error)",
		Headers: []string{"metric", "SPSTA", "SSTA"},
	}
	t.Add("arrival mean", report.Pct(s.SPSTAMuErr), report.Pct(s.SSTAMuErr))
	t.Add("arrival sigma", report.Pct(s.SPSTASigmaErr), report.Pct(s.SSTASigmaErr))
	t.Add("transition probability", report.Pct(s.SPSTAPErr), "n/a")
	return t.Render(w)
}

// Table3Row is one line of the paper's Table 3: analyzer runtimes.
type Table3Row struct {
	Case                    string
	SPSTA, SSTA, MonteCarlo time.Duration
}

// Table3Rows extracts the runtime rows.
func Table3Rows(analyses []Analysis) []Table3Row {
	var rows []Table3Row
	for _, a := range analyses {
		rows = append(rows, Table3Row{
			Case:       a.Circuit.Name,
			SPSTA:      a.SPSTATime,
			SSTA:       a.SSTATime,
			MonteCarlo: a.MCTime,
		})
	}
	return rows
}

// WriteTable3 renders Table 3.
func WriteTable3(w io.Writer, runs int, rows []Table3Row) error {
	t := report.Table{
		Title:   fmt.Sprintf("Table 3: CPU runtime — SPSTA, SSTA, %d-run Monte Carlo", runs),
		Headers: []string{"test", "SPSTA", "SSTA", "Monte Carlo", "MC/SPSTA"},
	}
	for _, r := range rows {
		ratio := "n/a"
		if r.SPSTA > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(r.MonteCarlo)/float64(r.SPSTA))
		}
		t.Add(r.Case, r.SPSTA.Round(time.Microsecond).String(),
			r.SSTA.Round(time.Microsecond).String(),
			r.MonteCarlo.Round(time.Microsecond).String(), ratio)
	}
	return t.Render(w)
}

// Fig1 reproduces Figure 1: on one circuit, the actual (Monte Carlo)
// critical-endpoint arrival distribution against the SSTA best/worst
// case normal curves and the STA ±3σ bounds.
func Fig1(w io.Writer, cfg Config, s Scenario) error {
	p, _ := synth.ProfileByName("s344")
	c, err := synth.Generate(p)
	if err != nil {
		return err
	}
	in := Inputs(c, s)
	end := c.CriticalEndpoint()

	mc, err := montecarlo.Simulate(c, in, montecarlo.Config{Runs: cfg.runs(), Seed: cfg.Seed, Workers: cfg.Workers, Obs: cfg.Obs})
	if err != nil {
		return err
	}
	sst := ssta.Analyze(c, in, nil)
	sta := ssta.AnalyzeSTA(c, in, nil, 3)

	grid := dist.TimingGrid(c.Depth(), 0, 1)
	an := core.Analyzer{Workers: cfg.Workers, ErrorBudget: cfg.Epsilon, Coarsen: cfg.Coarsen, Obs: cfg.Obs}
	an.Grid = grid
	spsta, err := an.Run(c, in)
	if err != nil {
		return err
	}
	// The moment-matched normal of the MC sample stands in for the
	// actual distribution curve, alongside the exact SPSTA t.o.p.
	mcArr := mc.Arrival(end, ssta.DirRise)
	actual := dist.Normal{Mu: mcArr.Mean(), Sigma: mcArr.Sigma()}
	late := sst.At(end, ssta.DirRise)
	early := minArrival(sst, c)
	bound := sta.At(end, ssta.DirRise)

	xs := make([]float64, grid.N)
	actualY := make([]float64, grid.N)
	spstaY := make([]float64, grid.N)
	lateY := make([]float64, grid.N)
	earlyY := make([]float64, grid.N)
	boundY := make([]float64, grid.N)
	top := spsta.TOP(end, ssta.DirRise).Clone()
	top.Normalize()
	for i := 0; i < grid.N; i++ {
		x := grid.X(i)
		xs[i] = x
		actualY[i] = actual.PDF(x)
		spstaY[i] = top.W(i) / grid.Dt
		lateY[i] = late.PDF(x)
		earlyY[i] = early.PDF(x)
		if x >= bound.Lo && x <= bound.Hi {
			boundY[i] = 0.02
		}
	}
	fmt.Fprintf(w, "Figure 1: %s critical endpoint (rise), scenario %s\n", c.Name, s)
	fmt.Fprintf(w, "STA bounds: [%.2f, %.2f]\n", bound.Lo, bound.Hi)
	return report.RenderSeries(w, "", xs, []report.Series{
		{Name: "actual(MC)", Y: actualY},
		{Name: "SPSTA t.o.p. (normalized)", Y: spstaY},
		{Name: "SSTA worst", Y: lateY},
		{Name: "SSTA best", Y: earlyY},
		{Name: "STA bound span", Y: boundY},
	}, 16)
}

// minArrival returns the earliest (best-case) SSTA arrival over the
// endpoints: the "best case timing distribution" of Figure 1.
func minArrival(r *ssta.Result, c *netlist.Circuit) dist.Normal {
	best := dist.Normal{Mu: math.Inf(1)}
	for _, id := range c.Endpoints() {
		for _, d := range []ssta.Dir{ssta.DirRise, ssta.DirFall} {
			if n := r.At(id, d); n.Mu < best.Mu {
				best = n
			}
		}
	}
	return best
}

// Fig2 reproduces Figure 2: the SUM and MAX operations on two
// normal arrival distributions.
func Fig2(w io.Writer) error {
	g := dist.NewGrid(-5, 9, 1.0/32)
	a := dist.Normal{Mu: 0, Sigma: 1}
	b := dist.Normal{Mu: 1, Sigma: 0.8}
	pa := dist.FromNormal(g, a)
	pb := dist.FromNormal(g, b)
	sum := pa.Convolve(pb)
	mx := dist.MaxPMF(pa, pb)
	xs := make([]float64, g.N)
	ya := make([]float64, g.N)
	yb := make([]float64, g.N)
	ys := make([]float64, g.N)
	ym := make([]float64, g.N)
	for i := 0; i < g.N; i++ {
		xs[i] = g.X(i)
		ya[i] = pa.W(i) / g.Dt
		yb[i] = pb.W(i) / g.Dt
		ys[i] = sum.W(i) / g.Dt
		ym[i] = mx.W(i) / g.Dt
	}
	fmt.Fprintf(w, "Figure 2: SUM and MAX of t1~N(0,1), t2~N(1,0.8)\n")
	fmt.Fprintf(w, "SUM: mu=%.3f sigma=%.3f   MAX: mu=%.3f sigma=%.3f (Clark: mu=%.3f sigma=%.3f)\n",
		sum.Mean(), sum.Sigma(), mx.Mean(), mx.Sigma(),
		dist.MaxNormal(a, b, 0).Mu, dist.MaxNormal(a, b, 0).Sigma)
	return report.RenderSeries(w, "", xs, []report.Series{
		{Name: "t1", Y: ya}, {Name: "t2", Y: yb},
		{Name: "SUM", Y: ys}, {Name: "MAX", Y: ym},
	}, 14)
}

// Fig3 reproduces Figure 3: signal probability and toggling rate
// through a two-input AND gate.
func Fig3(w io.Writer) error {
	p1, p2 := 0.5, 0.5
	rho1, rho2 := 0.5, 0.5
	py := power.GateProbability(logic.And, []float64{p1, p2})
	rho := power.DiffProbability(logic.And, []float64{p1, p2}, 0)*rho1 +
		power.DiffProbability(logic.And, []float64{p1, p2}, 1)*rho2
	t := report.Table{
		Title:   "Figure 3: signal probability and toggling rate, y = AND(x1, x2)",
		Headers: []string{"net", "P(1)", "toggling rate"},
	}
	t.Add("x1", report.F3(p1), report.F3(rho1))
	t.Add("x2", report.F3(p2), report.F3(rho2))
	t.Add("y", report.F3(py), report.F3(rho))
	return t.Render(w)
}

// Fig4 reproduces Figure 4: the MAX operation versus the WEIGHTED
// SUM operation for a two-input AND gate whose inputs both have 0.9
// signal probability and same-mean, different-sigma arrivals.
func Fig4(w io.Writer) error {
	g := dist.NewGrid(-8, 8, 1.0/32)
	// 0.9 signal probability decomposed as 0.8 constant one + 0.1
	// rising; arrivals N(0,1) and N(0,2).
	top1 := dist.FromNormal(g, dist.Normal{Mu: 0, Sigma: 1}).Scale(0.1)
	top2 := dist.FromNormal(g, dist.Normal{Mu: 0, Sigma: 2}).Scale(0.1)
	ws := dist.MaxMixture(g, []dist.SwitchInput{
		{Stay: 0.8, TOP: top1},
		{Stay: 0.8, TOP: top2},
	})
	wsn := ws.Clone()
	wsn.Normalize()
	a1 := top1.Clone()
	a1.Normalize()
	a2 := top2.Clone()
	a2.Normalize()
	mx := dist.MaxPMF(a1, a2)

	xs := make([]float64, g.N)
	y1 := make([]float64, g.N)
	y2 := make([]float64, g.N)
	ym := make([]float64, g.N)
	yw := make([]float64, g.N)
	for i := 0; i < g.N; i++ {
		xs[i] = g.X(i)
		y1[i] = a1.W(i) / g.Dt
		y2[i] = a2.W(i) / g.Dt
		ym[i] = mx.W(i) / g.Dt
		yw[i] = wsn.W(i) / g.Dt
	}
	fmt.Fprintf(w, "Figure 4: MAX vs WEIGHTED SUM, AND gate, P(one)=0.9 per input\n")
	fmt.Fprintf(w, "MAX: mu=%.3f sigma=%.3f skew>0   WEIGHTED SUM: mass=%.3f mu=%.3f sigma=%.3f\n",
		mx.Mean(), mx.Sigma(), ws.Mass(), ws.Mean(), ws.Sigma())
	return report.RenderSeries(w, "", xs, []report.Series{
		{Name: "t1 pdf", Y: y1}, {Name: "t2 pdf", Y: y2},
		{Name: "MAX", Y: ym}, {Name: "WEIGHTED SUM (normalized)", Y: yw},
	}, 14)
}
