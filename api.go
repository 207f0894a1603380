package repro

import (
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/incr"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/paths"
	"repro/internal/pgrid"
	"repro/internal/power"
	"repro/internal/rcnet"
	"repro/internal/seq"
	"repro/internal/ssta"
	"repro/internal/symbolic"
	"repro/internal/synth"
	"repro/internal/verilog"
	"repro/internal/vpoly"
	"repro/internal/xtalk"
)

// Core circuit types.
type (
	// Circuit is a frozen gate-level netlist.
	Circuit = netlist.Circuit
	// Node is one net and its driving gate.
	Node = netlist.Node
	// NodeID identifies a net within a Circuit.
	NodeID = netlist.NodeID
	// GateType identifies a gate's Boolean function.
	GateType = logic.GateType
	// Value is a four-value logic value (0, 1, r, f).
	Value = logic.Value
	// InputStats is the cycle statistics of a launch point.
	InputStats = logic.InputStats
	// Dir is a transition direction (DirRise or DirFall).
	Dir = ssta.Dir
	// Normal is a normal distribution N(Mu, Sigma²).
	Normal = dist.Normal
	// Grid is the shared discretization grid of an analysis.
	Grid = dist.Grid
	// PMF is a discretized (sub-)distribution; t.o.p. functions are
	// PMFs whose mass is the transition occurrence probability.
	PMF = dist.PMF
	// Canonical is the first-order canonical timing form of the
	// symbolic analyzers.
	Canonical = vpoly.Canonical
	// DelayModel maps a gate to its delay distribution.
	DelayModel = ssta.DelayModel
	// Profile describes a synthetic benchmark's shape.
	Profile = synth.Profile
	// CoarsenMode selects the discretized analyzer's depth-adaptive
	// grid-coarsening policy (off by default).
	CoarsenMode = core.CoarsenMode
	// CoarsenPolicy configures depth-adaptive grid coarsening: the
	// mode plus the optional re-binning factor and auto threshold.
	CoarsenPolicy = core.CoarsenPolicy
)

// Grid-coarsening modes of the discretized analyzer.
const (
	CoarsenOff   = core.CoarsenOff
	CoarsenFixed = core.CoarsenFixed
	CoarsenAuto  = core.CoarsenAuto
)

// Four-value logic constants.
const (
	Zero = logic.Zero
	One  = logic.One
	Rise = logic.Rise
	Fall = logic.Fall
)

// Transition directions.
const (
	DirRise = ssta.DirRise
	DirFall = ssta.DirFall
)

// Analysis result types.
type (
	// SPSTAResult is the discretized SPSTA analysis result.
	SPSTAResult = core.Result
	// SPSTAMomentResult is the analytic (Clark-based) SPSTA result.
	SPSTAMomentResult = core.MomentResult
	// ToggleMomentsResult holds toggling-rate means, variances and
	// correlations (the paper's Eq. 13).
	ToggleMomentsResult = core.ToggleMoments
	// SSTAResult is the min-max-separated SSTA baseline result.
	SSTAResult = ssta.Result
	// STAResult holds static min/max arrival bounds.
	STAResult = ssta.STAResult
	// MonteCarloResult is the reference simulation result.
	MonteCarloResult = montecarlo.Result
	// MonteCarloConfig parameterizes the reference simulation.
	MonteCarloConfig = montecarlo.Config
	// SymbolicSSTAResult is the canonical-form SSTA result.
	SymbolicSSTAResult = symbolic.SSTAResult
	// SymbolicSPSTAResult is the canonical-form SPSTA result.
	SymbolicSPSTAResult = symbolic.SPSTAResult
	// SymbolicDelayModel maps a gate to a canonical delay form.
	SymbolicDelayModel = symbolic.DelayModel
)

// NewCircuit creates an empty circuit; add nodes with
// Circuit.AddNode, then Circuit.Freeze.
func NewCircuit(name string) *Circuit { return netlist.New(name) }

// ParseBench reads an ISCAS'89 bench-format netlist.
func ParseBench(r io.Reader, name string) (*Circuit, error) { return bench.Parse(r, name) }

// WriteBench writes a circuit in bench format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// Profiles returns the nine ISCAS'89-matched benchmark profiles of
// the paper's evaluation.
func Profiles() []Profile { return synth.Profiles() }

// GenerateBenchmark generates the named profile-matched synthetic
// benchmark circuit (s208 … s1238), deterministically.
func GenerateBenchmark(name string) (*Circuit, error) {
	p, ok := synth.ProfileByName(name)
	if !ok {
		return nil, &UnknownBenchmarkError{Name: name}
	}
	return synth.Generate(p)
}

// GenerateProfile generates a circuit from a custom profile.
func GenerateProfile(p Profile) (*Circuit, error) { return synth.Generate(p) }

// UnknownBenchmarkError reports a benchmark name with no profile.
type UnknownBenchmarkError struct{ Name string }

func (e *UnknownBenchmarkError) Error() string {
	return "repro: unknown benchmark " + e.Name
}

// UniformStats returns the paper's scenario I launch statistics
// (P0 = P1 = Pr = Pf = 0.25, transitions ~ N(0,1)).
func UniformStats() InputStats { return logic.UniformStats() }

// SkewedStats returns the paper's scenario II launch statistics
// (75% zero, 15% one, 2% rise, 8% fall).
func SkewedStats() InputStats { return logic.SkewedStats() }

// UniformInputs assigns scenario I statistics to every launch point.
func UniformInputs(c *Circuit) map[NodeID]InputStats {
	return experiments.Inputs(c, experiments.ScenarioI)
}

// SkewedInputs assigns scenario II statistics to every launch point.
func SkewedInputs(c *Circuit) map[NodeID]InputStats {
	return experiments.Inputs(c, experiments.ScenarioII)
}

// UnitDelay is the paper's experimental delay model: deterministic
// one time unit per gate, zero net delay.
func UnitDelay(n *Node) Normal { return ssta.UnitDelay(n) }

// AnalyzeSPSTA runs the discretized SPSTA analyzer with the default
// grid and unit gate delays.
func AnalyzeSPSTA(c *Circuit, inputs map[NodeID]InputStats) (*SPSTAResult, error) {
	var a core.Analyzer
	return a.Run(c, inputs)
}

// AnalyzeSPSTAWith runs the discretized SPSTA analyzer with an
// explicit grid and delay model.
func AnalyzeSPSTAWith(c *Circuit, inputs map[NodeID]InputStats, grid Grid, delay DelayModel) (*SPSTAResult, error) {
	a := core.Analyzer{Grid: grid, Delay: delay}
	return a.Run(c, inputs)
}

// AnalyzeSPSTAParallel runs the discretized SPSTA analyzer with an
// explicit level-parallel worker count (0 = GOMAXPROCS, 1 = serial).
// The result is bit-identical for every worker count: gates of one
// unit-delay level depend only on earlier levels, so the schedule
// never changes the arithmetic.
func AnalyzeSPSTAParallel(c *Circuit, inputs map[NodeID]InputStats, workers int) (*SPSTAResult, error) {
	a := core.Analyzer{Workers: workers}
	return a.Run(c, inputs)
}

// AnalyzeSPSTACoarsened runs the discretized SPSTA analyzer with
// depth-adaptive grid coarsening (DESIGN.md §15): at level boundaries
// the stored t.o.p. functions are re-binned onto a 2×/4×-coarser grid
// (policy.Mode fixed or auto), with the re-binning deviation folded
// into the per-net certificates (SPSTAResult.ConsumedBudget), so deep
// circuits trade certified accuracy for per-bin kernel work. eps is
// the usual ε-pruning budget and may be zero; a CoarsenOff policy at
// eps = 0 is bit-identical to AnalyzeSPSTA.
func AnalyzeSPSTACoarsened(c *Circuit, inputs map[NodeID]InputStats, eps float64, policy CoarsenPolicy) (*SPSTAResult, error) {
	a := core.Analyzer{ErrorBudget: eps, Coarsen: policy}
	return a.Run(c, inputs)
}

// AnalyzeSPSTAMoments runs the analytic (Clark-based) SPSTA
// abstraction.
func AnalyzeSPSTAMoments(c *Circuit, inputs map[NodeID]InputStats) (*SPSTAMomentResult, error) {
	var a core.MomentTiming
	return a.Run(c, inputs)
}

// AnalyzeSPSTAPruned runs the discretized SPSTA analyzer with
// ε-bounded adaptive pruning: each net may spend at most eps of
// occurrence mass on subset branch-and-bound, negligible-switcher
// absorption and t.o.p. tail truncation. The removed mass is folded
// back so four-value probabilities still sum to 1, and the result
// carries a certified worst-case deviation per net
// (SPSTAResult.ConsumedBudget, .DeviationBounds). eps = 0 is
// bit-identical to AnalyzeSPSTA.
func AnalyzeSPSTAPruned(c *Circuit, inputs map[NodeID]InputStats, eps float64) (*SPSTAResult, error) {
	a := core.Analyzer{ErrorBudget: eps}
	return a.Run(c, inputs)
}

// AnalyzeSPSTAMomentsPruned runs the analytic SPSTA abstraction with
// ε-bounded subset branch-and-bound (see AnalyzeSPSTAPruned); eps = 0
// is bit-identical to AnalyzeSPSTAMoments.
func AnalyzeSPSTAMomentsPruned(c *Circuit, inputs map[NodeID]InputStats, eps float64) (*SPSTAMomentResult, error) {
	a := core.MomentTiming{ErrorBudget: eps}
	return a.Run(c, inputs)
}

// AnalyzeToggleMoments propagates toggling-rate means, variances and
// correlations per the paper's Eq. 13.
func AnalyzeToggleMoments(c *Circuit, inputs map[NodeID]InputStats) *ToggleMomentsResult {
	return core.AnalyzeToggleMoments(c, inputs)
}

// AnalyzeSSTA runs the min-max-separated SSTA baseline (nil delay
// selects unit delays).
func AnalyzeSSTA(c *Circuit, inputs map[NodeID]InputStats, delay DelayModel) *SSTAResult {
	return ssta.Analyze(c, inputs, delay)
}

// AnalyzeSTA computes static min/max arrival bounds with launch
// intervals mu ± k·sigma.
func AnalyzeSTA(c *Circuit, inputs map[NodeID]InputStats, delay DelayModel, k float64) *STAResult {
	return ssta.AnalyzeSTA(c, inputs, delay, k)
}

// SimulateMonteCarlo runs the four-value logic reference simulation.
func SimulateMonteCarlo(c *Circuit, inputs map[NodeID]InputStats, cfg MonteCarloConfig) (*MonteCarloResult, error) {
	return montecarlo.Simulate(c, inputs, cfg)
}

// SimulateMonteCarloPacked runs the reference simulation on the
// word-packed bit-parallel engine: 64 runs per uint64 bit-plane pair,
// gate logic evaluated with word operations, arrival-time settling
// only on the lanes that transition. Results are bit-identical to
// SimulateMonteCarlo for the same (Seed, Workers); configurations the
// packed engine cannot express (CountGlitches, ProbeTimes) fall back
// to the scalar engine transparently.
func SimulateMonteCarloPacked(c *Circuit, inputs map[NodeID]InputStats, cfg MonteCarloConfig) (*MonteCarloResult, error) {
	cfg.Packed = true
	return montecarlo.Simulate(c, inputs, cfg)
}

// AnalyzeSymbolicSSTA runs canonical first-order SSTA over nvars
// global variation sources.
func AnalyzeSymbolicSSTA(c *Circuit, inputs map[NodeID]InputStats, delay SymbolicDelayModel, nvars int) (*SymbolicSSTAResult, error) {
	return symbolic.AnalyzeSSTA(c, inputs, delay, nvars)
}

// AnalyzeSymbolicSPSTA runs canonical SPSTA over nvars global
// variation sources.
func AnalyzeSymbolicSPSTA(c *Circuit, inputs map[NodeID]InputStats, delay SymbolicDelayModel, nvars int) (*SymbolicSPSTAResult, error) {
	return symbolic.AnalyzeSPSTA(c, inputs, delay, nvars)
}

// SymbolicUnitDelay returns the deterministic unit delay as a
// canonical form.
func SymbolicUnitDelay(nvars int) SymbolicDelayModel { return symbolic.UnitDelay(nvars) }

// SymbolicLevelDelay returns a spatially-correlated variational
// delay model (see symbolic.LevelDelay).
func SymbolicLevelDelay(nvars int, mu, globalFrac, localFrac float64) SymbolicDelayModel {
	return symbolic.LevelDelay(nvars, mu, globalFrac, localFrac)
}

// SignalProbabilities computes per-net one-probabilities under the
// independence assumption (Section 2.2.1).
func SignalProbabilities(c *Circuit, inputP map[NodeID]float64) []float64 {
	return power.SignalProbabilities(c, inputP)
}

// TransitionDensities propagates Najm transition densities (Eq. 6).
func TransitionDensities(c *Circuit, inputP, inputDensity map[NodeID]float64) []float64 {
	return power.TransitionDensities(c, inputP, inputDensity)
}

// DynamicPower estimates switching power from transition densities.
func DynamicPower(c *Circuit, rho []float64, vdd, freq float64) float64 {
	return power.DynamicPower(c, rho, vdd, freq)
}

// ExactSignalProbabilities computes per-net one-probabilities on
// global BDDs, capturing reconvergent-fanout correlations exactly
// (Section 3.5). limit bounds the BDD size (0 for the default).
func ExactSignalProbabilities(c *Circuit, inputP map[NodeID]float64, limit int) ([]float64, error) {
	s, err := power.BuildSymbolic(c, limit)
	if err != nil {
		return nil, err
	}
	return s.ExactProbabilities(inputP)
}

// TimingGrid returns the default analysis grid for a circuit depth
// and launch arrival statistics.
func TimingGrid(depth int, mu, sigma float64) Grid { return dist.TimingGrid(depth, mu, sigma) }

// AnalyzeSPSTAExact runs the discretized SPSTA analyzer with the
// Section 3.5 higher-order-correlation correction: four-value
// probabilities and t.o.p. masses are rescaled to the exact pair-BDD
// values, capturing reconvergent-fanout correlations.
func AnalyzeSPSTAExact(c *Circuit, inputs map[NodeID]InputStats) (*SPSTAResult, error) {
	a := core.Analyzer{ExactProbabilities: true}
	return a.Run(c, inputs)
}

// ExactFourValueProbabilities computes exact four-value signal
// probabilities for every net on pair-BDDs (Section 3.5). limit
// bounds the BDD size (0 for the default).
func ExactFourValueProbabilities(c *Circuit, inputs map[NodeID]InputStats, limit int) ([][4]float64, error) {
	ps, err := power.BuildPairSymbolic(c, limit)
	if err != nil {
		return nil, err
	}
	return ps.FourValue(inputs)
}

// Path is a launch-to-endpoint pin sequence from path-based analysis.
type Path = paths.Path

// EnumeratePaths returns up to k longest paths ending at endpoint,
// longest first (path-based SSTA's candidate set).
func EnumeratePaths(c *Circuit, endpoint NodeID, k int) []Path {
	return paths.Enumerate(c, endpoint, k)
}

// PathDelay returns a path's delay distribution: launch arrival plus
// the sum of gate delays (nil delay selects unit delays).
func PathDelay(c *Circuit, p Path, launch Normal, delay DelayModel) Normal {
	return paths.Delay(c, p, launch, delay)
}

// PathCriticalities returns each path's probability of being the
// slowest, with path-sharing correlations handled exactly through
// per-gate variation variables.
func PathCriticalities(c *Circuit, ps []Path, launch map[NodeID]InputStats, delay DelayModel) []float64 {
	return paths.Criticalities(c, ps, launch, delay)
}

// Coupling describes one crosstalk aggressor→victim coupling.
type Coupling = xtalk.Coupling

// CrosstalkAnalysis is the crosstalk-adjusted view of one victim
// transition direction.
type CrosstalkAnalysis = xtalk.Analysis

// AnalyzeCrosstalk computes alignment probabilities and the
// crosstalk-adjusted victim arrival from a base SPSTA result — the
// paper's motivating aggressor-alignment effect.
func AnalyzeCrosstalk(base *SPSTAResult, cp Coupling, d Dir) (*CrosstalkAnalysis, error) {
	return xtalk.Analyze(base, cp, d)
}

// RCTree is an RC interconnect tree for Elmore delay analysis.
type RCTree = rcnet.Tree

// RCLoad describes one gate's output RC network.
type RCLoad = rcnet.Load

// NewRCTree builds an RC tree from topologically-numbered parent,
// resistance and capacitance arrays.
func NewRCTree(parent []int, r, c []float64) (*RCTree, error) {
	return rcnet.NewTree(parent, r, c)
}

// RCLine builds a uniform distributed RC line.
func RCLine(segments int, rDriver, rTotal, cTotal, cLoad float64) (*RCTree, error) {
	return rcnet.Line(segments, rDriver, rTotal, cTotal, cLoad)
}

// RCDelayModel adapts per-gate RC loads into a DelayModel with
// sensitivity-based variational Elmore delays.
func RCDelayModel(loads map[NodeID]RCLoad, base DelayModel) DelayModel {
	return rcnet.GateDelayModel(loads, base)
}

// SequentialOptions controls the sequential fixed-point iteration.
type SequentialOptions = seq.Options

// SequentialResult is a converged sequential analysis.
type SequentialResult = seq.Result

// AnalyzeSequential iterates SPSTA around the flip-flop loop until
// the flop statistics reach a steady state (sequential
// switching-activity estimation).
func AnalyzeSequential(c *Circuit, inputs map[NodeID]InputStats, opt SequentialOptions) (*SequentialResult, error) {
	return seq.FixedPoint(c, inputs, opt)
}

// PowerMesh is a resistive power-grid mesh.
type PowerMesh = pgrid.Mesh

// NewPowerMesh builds a W×H mesh with corner VDD pads.
func NewPowerMesh(w, h int, r, vdd float64) (*PowerMesh, error) {
	return pgrid.NewMesh(w, h, r, vdd)
}

// CouplePowerGrid derates gate delays by the IR droop induced by the
// given per-net toggling rates (activity → droop → timing).
func CouplePowerGrid(c *Circuit, m *PowerMesh, toggling []float64, iPerToggle, k float64, base DelayModel) (DelayModel, []float64, float64, error) {
	return pgrid.Couple(c, m, toggling, iPerToggle, k, nil, base)
}

// IncrementalSSTA wraps SSTA for in-place re-analysis after delay or
// launch-statistics changes (only the affected cone is recomputed).
type IncrementalSSTA = incr.SSTA

// NewIncrementalSSTA runs the initial full SSTA analysis.
func NewIncrementalSSTA(c *Circuit, inputs map[NodeID]InputStats, base DelayModel) *IncrementalSSTA {
	return incr.NewSSTA(c, inputs, base)
}

// IncrementalSPSTA wraps SPSTA for in-place re-analysis.
type IncrementalSPSTA = incr.SPSTA

// NewIncrementalSPSTA runs the initial full SPSTA analysis.
func NewIncrementalSPSTA(c *Circuit, inputs map[NodeID]InputStats) (*IncrementalSPSTA, error) {
	return incr.NewSPSTA(core.Analyzer{}, c, inputs)
}

// NewIncrementalSPSTAPruned runs the initial full SPSTA analysis with
// ε-bounded pruning; incremental updates re-derive every recomputed
// gate's budget from the configuration, so repeated SetDelay/SetInput
// calls match a pruned full re-run with the same eps instead of
// compounding the error.
func NewIncrementalSPSTAPruned(c *Circuit, inputs map[NodeID]InputStats, eps float64) (*IncrementalSPSTA, error) {
	return incr.NewSPSTA(core.Analyzer{ErrorBudget: eps}, c, inputs)
}

// ParseVerilog reads a gate-level structural Verilog module.
func ParseVerilog(r io.Reader, fallbackName string) (*Circuit, error) {
	return verilog.Parse(r, fallbackName)
}

// WriteVerilog writes a circuit as a structural Verilog module.
func WriteVerilog(w io.Writer, c *Circuit) error { return verilog.Write(w, c) }

// EvaluateVectors runs the deterministic four-value simulation of
// one explicit launch assignment — the single-test-vector primitive
// the Monte Carlo loop repeats with random vectors.
func EvaluateVectors(c *Circuit, values map[NodeID]Value, times map[NodeID]float64, delay DelayModel) (*montecarlo.Evaluation, error) {
	return montecarlo.Evaluate(c, values, times, delay)
}

// MISModel maps a gate and its simultaneously-switching input count
// to a delay (the multiple-input-switching model of reference [2]).
type MISModel = ssta.MISModel

// AnalyzeSPSTAMIS runs the discretized SPSTA analyzer with a
// multiple-input-switching delay model.
func AnalyzeSPSTAMIS(c *Circuit, inputs map[NodeID]InputStats, mis MISModel) (*SPSTAResult, error) {
	a := core.Analyzer{MIS: mis}
	return a.Run(c, inputs)
}

// Observability. The engines carry an always-compiled, request-scoped
// instrumentation layer (see internal/obs): a metrics registry of
// atomic counters and bounded histograms, and a tracer emitting Chrome
// trace_event timelines of the level-parallel schedule. Registries are
// bundled into scopes — one per analysis — so concurrent analyses
// never share counters or spans. Instrumentation is observational
// only: attaching a scope never changes analysis results, and an
// analysis without a scope costs a single nil pointer check per site.
type (
	// EngineMetrics is the live metrics registry of the analysis
	// engines (kernel-cache hits, convolution counts, subset leaves,
	// per-level wall times, per-worker busy times).
	EngineMetrics = obs.Metrics
	// EngineMetricsSnapshot is a JSON-serializable point-in-time copy
	// of an EngineMetrics registry.
	EngineMetricsSnapshot = obs.Snapshot
	// EngineTracer records per-level and per-gate spans from the
	// level-parallel schedule and writes Chrome trace_event JSON.
	EngineTracer = obs.Tracer
	// EngineScope is one analysis' observability handle: a metrics
	// registry plus an optional tracer. Pass it via the Obs field of
	// core.Analyzer / core.MomentTiming / montecarlo.Config (or the
	// Scoped facade functions below); a nil scope disables
	// instrumentation.
	EngineScope = obs.Scope
)

// NewEngineScope returns a scope with a fresh metrics registry and no
// tracer.
func NewEngineScope() *EngineScope { return obs.NewScope() }

// NewTracedEngineScope returns a scope with a fresh metrics registry
// and a fresh tracer.
func NewTracedEngineScope() *EngineScope { return obs.NewTracedScope() }

// AnalyzeSPSTAScoped is AnalyzeSPSTAParallel recording kernel metrics
// and schedule spans into the given scope (nil runs uninstrumented).
// Results are bit-identical with and without a scope.
func AnalyzeSPSTAScoped(c *Circuit, inputs map[NodeID]InputStats, workers int, scope *EngineScope) (*SPSTAResult, error) {
	a := core.Analyzer{Workers: workers, Obs: scope}
	return a.Run(c, inputs)
}

// SimulateMonteCarloScoped is SimulateMonteCarlo recording run counts,
// shard busy times and packed-engine block statistics into the given
// scope (nil runs uninstrumented).
func SimulateMonteCarloScoped(c *Circuit, inputs map[NodeID]InputStats, cfg MonteCarloConfig, scope *EngineScope) (*MonteCarloResult, error) {
	cfg.Obs = scope
	return montecarlo.Simulate(c, inputs, cfg)
}

// SplitWideGates returns an equivalent circuit with every gate's
// fanin bounded by maxFanin (wide gates become balanced trees) so
// arbitrary parsed netlists fit the analyzers' enumeration caps.
func SplitWideGates(c *Circuit, maxFanin int) (*Circuit, error) {
	return netlist.SplitWideGates(c, maxFanin)
}

// ExtractCone returns the transitive fanin cone of a net as a
// standalone circuit (flip-flops become cone inputs).
func ExtractCone(c *Circuit, root NodeID) (*Circuit, error) {
	return netlist.ExtractCone(c, root)
}
