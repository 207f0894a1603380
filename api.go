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
	"repro/internal/power"
	"repro/internal/ssta"
	"repro/internal/symbolic"
	"repro/internal/synth"
	"repro/internal/verilog"
	"repro/internal/vpoly"
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
	// CoarsenPolicy configures depth-adaptive grid coarsening: its
	// one field is the mode.
	CoarsenPolicy = core.CoarsenPolicy
)

// Grid-coarsening modes of the discretized analyzer.
const (
	CoarsenOff  = core.CoarsenOff
	CoarsenAuto = core.CoarsenAuto
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
	// MonteCarloConfig parameterizes the reference simulation. Its
	// MomentNets field limits arrival-time moments to the listed
	// nets (nil keeps them at every net); set it to the nets you read.
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

// SPSTAOptions configures AnalyzeSPSTA. The zero value runs the
// paper's setting: the default grid, unit gate delays, every
// processor, no pruning and a single grid resolution.
type SPSTAOptions struct {
	// Grid is the discretization grid; the zero value selects
	// TimingGrid for the circuit depth and launch statistics.
	Grid Grid
	// Delay is the gate delay model; nil selects UnitDelay.
	// Deterministic delays shift the t.o.p. functions, variational
	// delays convolve them.
	Delay DelayModel
	// Workers is the level-parallel worker count (0 = GOMAXPROCS,
	// 1 = serial). Results are bit-identical for every worker count:
	// gates of one level depend only on earlier levels, so the
	// schedule never changes the arithmetic.
	Workers int
	// ErrorBudget is the per-net ε of adaptive pruning: each net may
	// spend at most this much occurrence mass on subset
	// branch-and-bound, negligible-switcher absorption, t.o.p. tail
	// truncation and delay-kernel tail folding. The removed mass is
	// folded back so four-value probabilities still sum to 1, and the
	// result certifies a worst-case deviation per net
	// (SPSTAResult.ConsumedBudget, .DeviationBounds). Zero is the
	// exact engine.
	ErrorBudget float64
	// Coarsen configures depth-adaptive grid coarsening (DESIGN.md
	// §15): under CoarsenAuto, at every level boundary where the
	// finished level's widest t.o.p. support exceeds 96 bins, the
	// stored t.o.p. functions are re-binned onto a 2×-coarser grid,
	// with the re-binning deviation folded into the per-net
	// certificates. The zero value (CoarsenOff) keeps one grid.
	Coarsen CoarsenPolicy
	// ExactProbabilities applies the Section 3.5 higher-order
	// correlation correction: four-value probabilities and t.o.p.
	// masses are rescaled to the exact pair-BDD values, capturing
	// reconvergent-fanout correlations.
	ExactProbabilities bool
	// MIS, when non-nil, replaces Delay with a multiple-input-switching
	// delay model.
	MIS MISModel
	// Obs records kernel metrics and schedule spans into the given
	// scope (nil runs uninstrumented). Results are bit-identical with
	// and without a scope.
	Obs *EngineScope
}

// AnalyzeSPSTA runs the discretized SPSTA analyzer.
func AnalyzeSPSTA(c *Circuit, inputs map[NodeID]InputStats, opt SPSTAOptions) (*SPSTAResult, error) {
	a := core.Analyzer{
		Grid: opt.Grid, Delay: opt.Delay, Workers: opt.Workers,
		ErrorBudget: opt.ErrorBudget, Coarsen: opt.Coarsen,
		ExactProbabilities: opt.ExactProbabilities, MIS: opt.MIS, Obs: opt.Obs,
	}
	return a.Run(c, inputs)
}

// AnalyzeSPSTAMoments runs the analytic (Clark-based) SPSTA
// abstraction. It has no error budget: the subset enumerations run
// exact.
func AnalyzeSPSTAMoments(c *Circuit, inputs map[NodeID]InputStats) (*SPSTAMomentResult, error) {
	return (&core.MomentTiming{}).Run(c, inputs)
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
// With cfg.MomentNets set, only the listed nets accumulate arrival
// moments (bit-identical to a nil run there); counts stay at every
// net. A MomentNets node ID outside the circuit is an error.
func SimulateMonteCarlo(c *Circuit, inputs map[NodeID]InputStats, cfg MonteCarloConfig) (*MonteCarloResult, error) {
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

// IncrementalSSTA wraps SSTA for in-place re-analysis after delay or
// launch-statistics changes (only the affected cone is recomputed).
// Its edits are IncrementalSPSTA's: each returns the nets recomputed
// and an error.
type IncrementalSSTA = incr.SSTA

// NewIncrementalSSTA runs the initial full SSTA analysis.
func NewIncrementalSSTA(c *Circuit, inputs map[NodeID]InputStats, base DelayModel) *IncrementalSSTA {
	return incr.NewSSTA(c, inputs, base)
}

// IncrementalSPSTA wraps SPSTA for in-place re-analysis.
type IncrementalSPSTA = incr.SPSTA

// NewIncrementalSPSTA runs the initial full SPSTA analysis with
// ε-bounded pruning (eps = 0 is exact). Every
// SetDelay/SetInput/Clear*/Apply update is bit-identical to a full
// re-run with the same eps and overrides: each recomputed gate
// re-derives its budget from the configuration, so repeated updates do
// not compound the error, and propagation stops only where a net's
// state is exactly unchanged.
func NewIncrementalSPSTA(c *Circuit, inputs map[NodeID]InputStats, eps float64) (*IncrementalSPSTA, error) {
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
	// work-unit costs, gates scheduled). It holds counts only; wall
	// time is in an EngineTracer's spans.
	EngineMetrics = obs.Metrics
	// EngineMetricsSnapshot is a JSON-serializable point-in-time copy
	// of an EngineMetrics registry.
	EngineMetricsSnapshot = obs.Snapshot
	// EngineTracer records per-level and per-gate spans from the
	// level-parallel schedule and writes Chrome trace_event JSON.
	EngineTracer = obs.Tracer
	// EngineScope is one analysis' observability handle: a metrics
	// registry plus an optional tracer. Pass it via
	// SPSTAOptions.Obs or MonteCarloConfig.Obs; a nil scope disables
	// instrumentation.
	EngineScope = obs.Scope
)

// NewEngineScope returns a scope with a fresh metrics registry and no
// tracer.
func NewEngineScope() *EngineScope { return obs.NewScope() }

// NewTracedEngineScope returns a scope with a fresh metrics registry
// and a fresh tracer.
func NewTracedEngineScope() *EngineScope { return obs.NewTracedScope() }

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
