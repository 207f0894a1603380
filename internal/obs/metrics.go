// Package obs is the engine instrumentation layer: a registry of
// atomic counters and bounded histograms (Metrics) plus a span
// recorder (Tracer) that exports Chrome trace_event JSON.
//
// The layer is always compiled and near-zero-cost when disabled: hot
// paths in dist, core and montecarlo hold a *Metrics / *Tracer —
// threaded through analyzer config and the dist kernels' arguments —
// and skip every measurement on nil. Enabling instrumentation never changes
// analysis results; counters and spans are observational only, so the
// parallel-vs-serial bit-identity contract holds with instrumentation
// on (asserted by core.TestInstrumentedParallelMatchesSerial).
//
// Metrics holds counts only; wall time lives in the Tracer's spans,
// so there is one clock (TestMetricsHoldNoWallTime keeps it that way).
//
// Registries are request-scoped, not process-global: a Scope bundles
// one Metrics and one optional Tracer, and every concurrent analysis
// carries its own (see scope.go). The kernels that have no config
// struct of their own (dist.PMF convolutions and mixtures, the
// kernel cache) take the Metrics pointer as an argument from their
// caller, which passes its scope's registry (nil when uninstrumented).
package obs

import (
	"math/bits"
	"sync/atomic"
)

// MaxFanin bounds the per-fanin histograms; wider gates fold into the
// last bucket (the analyzers cap enumeration fanin well below this).
const MaxFanin = 32

// pow2Buckets bounds Pow2Hist: bucket i counts values of bit length
// i, i.e. in [2^(i-1), 2^i); values at or beyond 2^(pow2Buckets-1)
// fold into the last bucket. 24 buckets cover supports up to 8M bins.
const pow2Buckets = 24

// Pow2Hist is a bounded power-of-two histogram of non-negative ints.
type Pow2Hist struct {
	b [pow2Buckets]atomic.Int64
}

// Observe counts v into its power-of-two bucket.
func (h *Pow2Hist) Observe(v int) {
	i := bits.Len(uint(v))
	if i >= pow2Buckets {
		i = pow2Buckets - 1
	}
	h.b[i].Add(1)
}

// HistBucket is one non-empty histogram bucket in a Snapshot: Count
// observations in [Lo, Hi].
type HistBucket struct {
	Lo    int   `json:"lo"`
	Hi    int   `json:"hi"`
	Count int64 `json:"count"`
}

func (h *Pow2Hist) snapshot() []HistBucket {
	var out []HistBucket
	for i := range h.b {
		c := h.b[i].Load()
		if c == 0 {
			continue
		}
		lo, hi := 0, 0
		if i > 0 {
			lo, hi = 1<<(i-1), 1<<i-1
		}
		out = append(out, HistBucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// FaninHist accumulates per-fanin totals (bucket = fanin, bounded at
// MaxFanin).
type FaninHist struct {
	b [MaxFanin + 1]atomic.Int64
}

// Add accumulates n into the fanin bucket.
func (h *FaninHist) Add(fanin int, n int64) {
	if fanin > MaxFanin {
		fanin = MaxFanin
	}
	if fanin < 0 {
		fanin = 0
	}
	h.b[fanin].Add(n)
}

// FaninBucket is one non-empty fanin bucket in a Snapshot.
type FaninBucket struct {
	Fanin int   `json:"fanin"`
	Count int64 `json:"count"`
}

func (h *FaninHist) snapshot() []FaninBucket {
	var out []FaninBucket
	for i := range h.b {
		if c := h.b[i].Load(); c != 0 {
			out = append(out, FaninBucket{Fanin: i, Count: c})
		}
	}
	return out
}

// Metrics is the engine metrics registry. All fields are updated with
// atomic operations by the instrumented hot paths; a Snapshot can be
// taken at any time, including mid-run.
type Metrics struct {
	// Kernel cache (dist.KernelCache.FromNormal): Hits found a
	// computed kernel on the fast path, Misses discretized a new one,
	// Races found the entry only after taking the write lock — the
	// lookups that would have re-discretized (and discarded) the
	// kernel before the once-per-key cache.
	KernelHits   atomic.Int64
	KernelMisses atomic.Int64
	KernelRaces  atomic.Int64

	// Convolution (dist.ConvPlan.ConvolveInto): direct O(sa·sb) vs FFT
	// path counts, and a power-of-two histogram of operand support
	// widths (two observations per convolution).
	ConvDirect  atomic.Int64
	ConvFFT     atomic.Int64
	ConvSupport Pow2Hist

	// WEIGHTED SUM accounting per gate fanin: MixtureEvals counts
	// closed-form O(k·n) mixture evaluations; SubsetLeaves counts
	// enumerated subset/value-combination leaves (O(2^k) MIS subsets,
	// O(4^k) parity combinations) — the Eq. 8/11/12 cost the closed
	// form avoids.
	MixtureEvals FaninHist
	SubsetLeaves FaninHist

	// ε-bounded pruning (core ErrorBudget > 0): PrunedSubtrees counts
	// branch-and-bound cuts, PrunedLeaves the enumeration leaves those
	// cuts skipped (by gate fanin, the complement of SubsetLeaves),
	// and PrunedMassFP the occurrence mass the cuts removed, in
	// MassFPUnit fixed point (atomic float accumulation without CAS
	// loops). TruncTails counts PMF.TruncateTail calls that removed
	// mass, TruncatedMassFP their removed mass (same fixed point),
	// TruncatedBins a power-of-two histogram of support bins trimmed
	// per call — the support width the downstream kernels no longer
	// visit — and PrunedSupportWidth a power-of-two histogram of the
	// support width remaining after each truncation, the width those
	// kernels still pay for.
	PrunedSubtrees     atomic.Int64
	PrunedLeaves       FaninHist
	PrunedMassFP       atomic.Int64
	TruncTails         atomic.Int64
	TruncatedMassFP    atomic.Int64
	TruncatedBins      Pow2Hist
	PrunedSupportWidth Pow2Hist

	// Convolution plan caches: FFTPlanHits / FFTPlanMisses count FFT
	// plan-cache lookups (a miss builds the twiddle and bit-reversal
	// tables for a transform size), ConvPlanHits / ConvPlanMisses the
	// per-geometry direct-kernel split-table lookups (dist.PlanFor).
	FFTPlanHits    atomic.Int64
	FFTPlanMisses  atomic.Int64
	ConvPlanHits   atomic.Int64
	ConvPlanMisses atomic.Int64

	// Multi-resolution grid coarsening (DESIGN.md §15): RebinCalls
	// counts PMF re-binning kernel invocations, RebinDeviationFP their
	// summed worst-case deviation bounds (MassFPUnit fixed point),
	// RebinLevels the level boundaries at which a scheduler coarsened
	// the analysis grid, GridBinsPerLevel a power-of-two histogram of
	// the grid bin count each scheduled level ran on (flat without
	// coarsening, stepping down with it), SupportWidthPeak the widest
	// t.o.p. support produced by any net (bins, monotone max), and
	// SlabBytesPeak the largest stored-row footprint of any run: the
	// bytes of the slab chunks its stored t.o.p. functions were carved
	// from (bytes, monotone max).
	RebinCalls       atomic.Int64
	RebinLevels      atomic.Int64
	RebinDeviationFP atomic.Int64
	GridBinsPerLevel Pow2Hist
	SupportWidthPeak atomic.Int64
	SlabBytesPeak    atomic.Int64

	// MCRuns counts Monte Carlo runs simulated.
	MCRuns atomic.Int64

	// Deterministic work-unit cost counters (DESIGN.md §14). Each
	// counts abstract units of algorithmic work at the site where the
	// work happens, under the determinism contract: identical
	// (netlist, inputs, ε, σ, engine, coarsen) runs
	// accumulate identical totals regardless of worker count, wall
	// time, or cross-request cache state. CostBinOps counts PMF bin
	// operations in dist (shift/max/min support widths, sa·sb direct
	// convolution products, the FFT size formula); CostMixtureOps
	// counts closed-form mixture work (k terms × union support width);
	// CostLeafOps counts enumerated subset/parity leaves; CostMCOps
	// counts Monte Carlo node evaluations (runs × topo nodes plus
	// settle-lane visits).
	CostBinOps     atomic.Int64
	CostMixtureOps atomic.Int64
	CostLeafOps    atomic.Int64
	CostMCOps      atomic.Int64

	// Packed Monte Carlo engine (montecarlo/bitsim.go):
	// MCPackedBlocks counts simulated 64-run blocks and
	// MCPackedSettleLanes counts sparse settle-pass lane visits
	// (gate outputs that transitioned and took the per-lane settling
	// arithmetic).
	MCPackedBlocks      atomic.Int64
	MCPackedSettleLanes atomic.Int64

	// Gates counts the nodes the level schedule ran: each scheduled
	// level adds its width once, on the scheduling goroutine.
	Gates atomic.Int64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// MassFPUnit is the fixed-point quantum used to accumulate
// probability-mass totals in atomic int64 counters: one unit is
// 1e-12 of mass, so per-event masses down to the pruning budgets'
// practical floor register and cumulative totals up to ~9e6 fit.
const MassFPUnit = 1e-12

// MassFP converts a probability mass to fixed-point counter units
// (rounding half up; negative masses clamp to zero).
func MassFP(m float64) int64 {
	if m <= 0 {
		return 0
	}
	return int64(m/MassFPUnit + 0.5)
}

// ObserveMax raises a monotone-max counter to v if v exceeds its
// current value (lock-free CAS loop; concurrent observers converge on
// the true maximum).
func ObserveMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// CostUnits returns the registry's total work-unit cost: the sum of
// the four deterministic cost counters. Nil-safe; 0 on a nil registry.
func (m *Metrics) CostUnits() int64 {
	if m == nil {
		return 0
	}
	return m.CostBinOps.Load() + m.CostMixtureOps.Load() +
		m.CostLeafOps.Load() + m.CostMCOps.Load()
}

// Snapshot is the JSON-serializable view of a Metrics registry.
type Snapshot struct {
	KernelCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Races  int64 `json:"races"`
	} `json:"kernel_cache"`
	Convolution struct {
		Direct      int64        `json:"direct"`
		FFT         int64        `json:"fft"`
		SupportHist []HistBucket `json:"support_hist,omitempty"`
	} `json:"convolution"`
	Mixture struct {
		EvalsByFanin        []FaninBucket `json:"evals_by_fanin,omitempty"`
		SubsetLeavesByFanin []FaninBucket `json:"subset_leaves_by_fanin,omitempty"`
	} `json:"mixture"`
	Pruning struct {
		Subtrees            int64         `json:"subtrees"`
		PrunedLeavesByFanin []FaninBucket `json:"pruned_leaves_by_fanin,omitempty"`
		PrunedMass          float64       `json:"pruned_mass"`
		Truncations         int64         `json:"truncations"`
		TruncatedMass       float64       `json:"truncated_mass"`
		TruncatedBinsHist   []HistBucket  `json:"truncated_bins_hist,omitempty"`
		SupportWidthHist    []HistBucket  `json:"pruned_support_width_hist,omitempty"`
	} `json:"pruning,omitzero"`
	Batch struct {
		FFTPlanHits    int64 `json:"fft_plan_hits"`
		FFTPlanMisses  int64 `json:"fft_plan_misses"`
		ConvPlanHits   int64 `json:"conv_plan_hits"`
		ConvPlanMisses int64 `json:"conv_plan_misses"`
	} `json:"batch,omitzero"`
	Grid struct {
		RebinCalls       int64        `json:"rebin_calls"`
		RebinLevels      int64        `json:"rebin_levels"`
		RebinDeviation   float64      `json:"rebin_deviation"`
		BinsPerLevelHist []HistBucket `json:"bins_per_level_hist,omitempty"`
		SupportWidthPeak int64        `json:"support_width_peak"`
		SlabBytesPeak    int64        `json:"slab_bytes_peak"`
	} `json:"grid,omitzero"`
	Cost struct {
		BinOps     int64 `json:"bin_ops"`
		MixtureOps int64 `json:"mixture_ops"`
		LeafOps    int64 `json:"leaf_ops"`
		MCOps      int64 `json:"mc_ops"`
		Total      int64 `json:"total"`
	} `json:"cost,omitzero"`
	MonteCarloRuns   int64 `json:"monte_carlo_runs,omitempty"`
	MonteCarloPacked struct {
		Blocks      int64 `json:"blocks"`
		SettleLanes int64 `json:"settle_lanes"`
	} `json:"monte_carlo_packed,omitzero"`
	Gates int64 `json:"gates,omitempty"`
}

// Snapshot captures the registry's current totals.
func (m *Metrics) Snapshot() *Snapshot {
	s := &Snapshot{}
	s.KernelCache.Hits = m.KernelHits.Load()
	s.KernelCache.Misses = m.KernelMisses.Load()
	s.KernelCache.Races = m.KernelRaces.Load()
	s.Convolution.Direct = m.ConvDirect.Load()
	s.Convolution.FFT = m.ConvFFT.Load()
	s.Convolution.SupportHist = m.ConvSupport.snapshot()
	s.Mixture.EvalsByFanin = m.MixtureEvals.snapshot()
	s.Mixture.SubsetLeavesByFanin = m.SubsetLeaves.snapshot()
	s.Pruning.Subtrees = m.PrunedSubtrees.Load()
	s.Pruning.PrunedLeavesByFanin = m.PrunedLeaves.snapshot()
	s.Pruning.PrunedMass = float64(m.PrunedMassFP.Load()) * MassFPUnit
	s.Pruning.Truncations = m.TruncTails.Load()
	s.Pruning.TruncatedMass = float64(m.TruncatedMassFP.Load()) * MassFPUnit
	s.Pruning.TruncatedBinsHist = m.TruncatedBins.snapshot()
	s.Pruning.SupportWidthHist = m.PrunedSupportWidth.snapshot()
	s.Batch.FFTPlanHits = m.FFTPlanHits.Load()
	s.Batch.FFTPlanMisses = m.FFTPlanMisses.Load()
	s.Batch.ConvPlanHits = m.ConvPlanHits.Load()
	s.Batch.ConvPlanMisses = m.ConvPlanMisses.Load()
	s.Grid.RebinCalls = m.RebinCalls.Load()
	s.Grid.RebinLevels = m.RebinLevels.Load()
	s.Grid.RebinDeviation = float64(m.RebinDeviationFP.Load()) * MassFPUnit
	s.Grid.BinsPerLevelHist = m.GridBinsPerLevel.snapshot()
	s.Grid.SupportWidthPeak = m.SupportWidthPeak.Load()
	s.Grid.SlabBytesPeak = m.SlabBytesPeak.Load()
	s.Cost.BinOps = m.CostBinOps.Load()
	s.Cost.MixtureOps = m.CostMixtureOps.Load()
	s.Cost.LeafOps = m.CostLeafOps.Load()
	s.Cost.MCOps = m.CostMCOps.Load()
	s.Cost.Total = s.Cost.BinOps + s.Cost.MixtureOps + s.Cost.LeafOps + s.Cost.MCOps
	s.MonteCarloRuns = m.MCRuns.Load()
	s.MonteCarloPacked.Blocks = m.MCPackedBlocks.Load()
	s.MonteCarloPacked.SettleLanes = m.MCPackedSettleLanes.Load()
	s.Gates = m.Gates.Load()
	return s
}

// AddTo adds every counter and histogram bucket of m into dst, with
// atomic adds, and raises dst's two peaks to m's. Aggregators (the
// spstad /metrics endpoint) use it to fold per-request registries
// into one lifetime registry that stays readable while requests fold
// into it. Nil-safe; a nil m adds nothing.
func (m *Metrics) AddTo(dst *Metrics) {
	if m == nil {
		return
	}
	add(&dst.KernelHits, &m.KernelHits)
	add(&dst.KernelMisses, &m.KernelMisses)
	add(&dst.KernelRaces, &m.KernelRaces)
	add(&dst.ConvDirect, &m.ConvDirect)
	add(&dst.ConvFFT, &m.ConvFFT)
	addAll(dst.ConvSupport.b[:], m.ConvSupport.b[:])
	addAll(dst.MixtureEvals.b[:], m.MixtureEvals.b[:])
	addAll(dst.SubsetLeaves.b[:], m.SubsetLeaves.b[:])
	add(&dst.PrunedSubtrees, &m.PrunedSubtrees)
	addAll(dst.PrunedLeaves.b[:], m.PrunedLeaves.b[:])
	add(&dst.PrunedMassFP, &m.PrunedMassFP)
	add(&dst.TruncTails, &m.TruncTails)
	add(&dst.TruncatedMassFP, &m.TruncatedMassFP)
	addAll(dst.TruncatedBins.b[:], m.TruncatedBins.b[:])
	addAll(dst.PrunedSupportWidth.b[:], m.PrunedSupportWidth.b[:])
	add(&dst.FFTPlanHits, &m.FFTPlanHits)
	add(&dst.FFTPlanMisses, &m.FFTPlanMisses)
	add(&dst.ConvPlanHits, &m.ConvPlanHits)
	add(&dst.ConvPlanMisses, &m.ConvPlanMisses)
	add(&dst.RebinCalls, &m.RebinCalls)
	add(&dst.RebinLevels, &m.RebinLevels)
	add(&dst.RebinDeviationFP, &m.RebinDeviationFP)
	addAll(dst.GridBinsPerLevel.b[:], m.GridBinsPerLevel.b[:])
	ObserveMax(&dst.SupportWidthPeak, m.SupportWidthPeak.Load())
	ObserveMax(&dst.SlabBytesPeak, m.SlabBytesPeak.Load())
	add(&dst.MCRuns, &m.MCRuns)
	add(&dst.CostBinOps, &m.CostBinOps)
	add(&dst.CostMixtureOps, &m.CostMixtureOps)
	add(&dst.CostLeafOps, &m.CostLeafOps)
	add(&dst.CostMCOps, &m.CostMCOps)
	add(&dst.MCPackedBlocks, &m.MCPackedBlocks)
	add(&dst.MCPackedSettleLanes, &m.MCPackedSettleLanes)
	add(&dst.Gates, &m.Gates)
}

// add adds src's value to dst, skipping the write when it is zero.
func add(dst, src *atomic.Int64) {
	if v := src.Load(); v != 0 {
		dst.Add(v)
	}
}

// addAll adds each histogram bucket of src to dst's.
func addAll(dst, src []atomic.Int64) {
	for i := range src {
		add(&dst[i], &src[i])
	}
}
