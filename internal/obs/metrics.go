// Package obs is the engine instrumentation layer: a registry of
// atomic counters and bounded histograms (Metrics) plus a span
// recorder (Tracer) that exports Chrome trace_event JSON.
//
// The layer is always compiled and near-zero-cost when disabled: hot
// paths in dist, core and montecarlo hold a *Metrics / *Tracer —
// threaded through analyzer config and the dist.Grid value — and skip
// every measurement on nil. Enabling instrumentation never changes
// analysis results; counters and spans are observational only, so the
// parallel-vs-serial bit-identity contract holds with instrumentation
// on (asserted by core.TestInstrumentedParallelMatchesSerial).
//
// Registries are request-scoped, not process-global: a Scope bundles
// one Metrics and one optional Tracer, and every concurrent analysis
// carries its own (see scope.go). The kernels that have no config
// struct of their own (dist.PMF convolutions, the scratch pool, the
// kernel cache) read the Metrics pointer riding on the Grid value
// they already receive, so scoping costs one plain field load per
// kernel call — cheaper than the atomic pointer load the old global
// registry needed.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MaxWorkers bounds the per-worker accumulator arrays; worker ids are
// folded modulo MaxWorkers (real worker counts are GOMAXPROCS-sized,
// far below the bound).
const MaxWorkers = 64

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

// levelStat accumulates one level's schedule statistics.
type levelStat struct {
	gates  int64
	wallNS int64
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

	// Scratch pool (dist.getBins): Gets reused a pooled buffer, News
	// allocated a fresh one.
	PoolGets atomic.Int64
	PoolNews atomic.Int64

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

	// Batched level scheduler (core Analyzer.Batched): BatchNets is a
	// power-of-two histogram of the batchable-net count per level (one
	// observation per level the batch path executed), FFTPlanHits /
	// FFTPlanMisses count FFT plan-cache lookups (a miss builds the
	// twiddle and bit-reversal tables for a transform size), and
	// SlabBytesReused accumulates the backing bytes a run obtained
	// from the slab pool instead of allocating.
	BatchNets       Pow2Hist
	FFTPlanHits     atomic.Int64
	FFTPlanMisses   atomic.Int64
	ConvPlanHits    atomic.Int64
	ConvPlanMisses  atomic.Int64
	SlabBytesReused atomic.Int64

	// Multi-resolution grid coarsening (DESIGN.md §15): RebinCalls
	// counts PMF re-binning kernel invocations, RebinDeviationFP their
	// summed worst-case deviation bounds (MassFPUnit fixed point),
	// RebinLevels the level boundaries at which a scheduler coarsened
	// the analysis grid, GridBinsPerLevel a power-of-two histogram of
	// the grid bin count each scheduled level ran on (flat without
	// coarsening, stepping down with it), SupportWidthPeak the widest
	// t.o.p. support produced by any net (bins, monotone max), and
	// SlabBytesPeak the largest slab footprint any level allocated or
	// reused (monotone max).
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
	// (netlist, inputs, ε, σ, engine, batched, coarsen) runs
	// accumulate identical totals regardless of worker count, wall
	// time, or cross-request cache state. CostBinOps counts PMF bin
	// operations in dist (shift/max/min support widths, sa·sb direct
	// convolution products, the FFT size formula); CostMixtureOps
	// counts closed-form mixture work (k terms × union support width);
	// CostLeafOps counts enumerated subset/parity leaves; CostMCOps
	// counts Monte Carlo node evaluations (runs × topo nodes, plus
	// settle-lane visits in the packed engine).
	CostBinOps     atomic.Int64
	CostMixtureOps atomic.Int64
	CostLeafOps    atomic.Int64
	CostMCOps      atomic.Int64

	// Packed Monte Carlo engine (montecarlo/bitsim.go):
	// MCPackedBlocks counts simulated 64-run blocks,
	// MCPackedSettleLanes counts sparse settle-pass lane visits
	// (gate outputs that transitioned and took the scalar settling
	// arithmetic), MCPackedBlockNS accumulates per-block wall time,
	// and MCScalarFallbacks counts Packed requests that fell back to
	// the scalar engine (CountGlitches / ProbeTimes need per-run
	// event context).
	MCPackedBlocks      atomic.Int64
	MCPackedSettleLanes atomic.Int64
	MCPackedBlockNS     atomic.Int64
	MCScalarFallbacks   atomic.Int64

	// Per-worker busy time and gate counts from the level-parallel
	// schedule (worker id folded modulo MaxWorkers; Monte Carlo
	// shards report under their shard index).
	WorkerBusyNS [MaxWorkers]atomic.Int64
	WorkerGates  [MaxWorkers]atomic.Int64

	mu     sync.Mutex
	levels []levelStat
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

// AddWorkerBusy accumulates busy time and one evaluated gate for a
// worker.
func (m *Metrics) AddWorkerBusy(worker int, d time.Duration) {
	m.AddWorkerChunk(worker, 1, int64(d))
}

// AddWorkerChunk accumulates one work chunk for a worker: gates
// evaluated and raw busy nanoseconds (fed from Nanotime readings on
// the metrics-only hot path).
func (m *Metrics) AddWorkerChunk(worker, gates int, ns int64) {
	w := worker % MaxWorkers
	if w < 0 {
		w = 0
	}
	m.WorkerBusyNS[w].Add(ns)
	m.WorkerGates[w].Add(int64(gates))
}

// RecordLevel accumulates one level-barrier interval: gates evaluated
// and wall time between the barriers. Called once per level by the
// scheduling goroutine.
func (m *Metrics) RecordLevel(level, gates int, wall time.Duration) {
	m.mu.Lock()
	for len(m.levels) <= level {
		m.levels = append(m.levels, levelStat{})
	}
	m.levels[level].gates += int64(gates)
	m.levels[level].wallNS += int64(wall)
	m.mu.Unlock()
}

// LevelSnapshot is one level's accumulated schedule statistics.
type LevelSnapshot struct {
	Level  int   `json:"level"`
	Gates  int64 `json:"gates"`
	WallNS int64 `json:"wall_ns"`
}

// WorkerSnapshot is one worker's accumulated busy time.
type WorkerSnapshot struct {
	Worker int   `json:"worker"`
	BusyNS int64 `json:"busy_ns"`
	Gates  int64 `json:"gates"`
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
	ScratchPool struct {
		Gets int64 `json:"gets"`
		News int64 `json:"news"`
	} `json:"scratch_pool"`
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
		NetsHist        []HistBucket `json:"batch_nets_hist,omitempty"`
		FFTPlanHits     int64        `json:"fft_plan_hits"`
		FFTPlanMisses   int64        `json:"fft_plan_misses"`
		ConvPlanHits    int64        `json:"conv_plan_hits"`
		ConvPlanMisses  int64        `json:"conv_plan_misses"`
		SlabBytesReused int64        `json:"slab_bytes_reused"`
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
		Blocks          int64 `json:"blocks"`
		SettleLanes     int64 `json:"settle_lanes"`
		BlockNS         int64 `json:"block_ns"`
		ScalarFallbacks int64 `json:"scalar_fallbacks"`
	} `json:"monte_carlo_packed,omitzero"`
	Levels  []LevelSnapshot  `json:"levels,omitempty"`
	Workers []WorkerSnapshot `json:"workers,omitempty"`
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
	s.ScratchPool.Gets = m.PoolGets.Load()
	s.ScratchPool.News = m.PoolNews.Load()
	s.Mixture.EvalsByFanin = m.MixtureEvals.snapshot()
	s.Mixture.SubsetLeavesByFanin = m.SubsetLeaves.snapshot()
	s.Pruning.Subtrees = m.PrunedSubtrees.Load()
	s.Pruning.PrunedLeavesByFanin = m.PrunedLeaves.snapshot()
	s.Pruning.PrunedMass = float64(m.PrunedMassFP.Load()) * MassFPUnit
	s.Pruning.Truncations = m.TruncTails.Load()
	s.Pruning.TruncatedMass = float64(m.TruncatedMassFP.Load()) * MassFPUnit
	s.Pruning.TruncatedBinsHist = m.TruncatedBins.snapshot()
	s.Pruning.SupportWidthHist = m.PrunedSupportWidth.snapshot()
	s.Batch.NetsHist = m.BatchNets.snapshot()
	s.Batch.FFTPlanHits = m.FFTPlanHits.Load()
	s.Batch.FFTPlanMisses = m.FFTPlanMisses.Load()
	s.Batch.ConvPlanHits = m.ConvPlanHits.Load()
	s.Batch.ConvPlanMisses = m.ConvPlanMisses.Load()
	s.Batch.SlabBytesReused = m.SlabBytesReused.Load()
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
	s.MonteCarloPacked.BlockNS = m.MCPackedBlockNS.Load()
	s.MonteCarloPacked.ScalarFallbacks = m.MCScalarFallbacks.Load()
	m.mu.Lock()
	for i, l := range m.levels {
		s.Levels = append(s.Levels, LevelSnapshot{Level: i, Gates: l.gates, WallNS: l.wallNS})
	}
	m.mu.Unlock()
	for w := 0; w < MaxWorkers; w++ {
		busy, gates := m.WorkerBusyNS[w].Load(), m.WorkerGates[w].Load()
		if busy == 0 && gates == 0 {
			continue
		}
		s.Workers = append(s.Workers, WorkerSnapshot{Worker: w, BusyNS: busy, Gates: gates})
	}
	return s
}

// Reset zeroes every counter, histogram and accumulator.
func (m *Metrics) Reset() {
	m.KernelHits.Store(0)
	m.KernelMisses.Store(0)
	m.KernelRaces.Store(0)
	m.ConvDirect.Store(0)
	m.ConvFFT.Store(0)
	for i := range m.ConvSupport.b {
		m.ConvSupport.b[i].Store(0)
	}
	m.PoolGets.Store(0)
	m.PoolNews.Store(0)
	for i := range m.MixtureEvals.b {
		m.MixtureEvals.b[i].Store(0)
	}
	for i := range m.SubsetLeaves.b {
		m.SubsetLeaves.b[i].Store(0)
	}
	m.PrunedSubtrees.Store(0)
	for i := range m.PrunedLeaves.b {
		m.PrunedLeaves.b[i].Store(0)
	}
	m.PrunedMassFP.Store(0)
	m.TruncTails.Store(0)
	m.TruncatedMassFP.Store(0)
	for i := range m.TruncatedBins.b {
		m.TruncatedBins.b[i].Store(0)
	}
	for i := range m.PrunedSupportWidth.b {
		m.PrunedSupportWidth.b[i].Store(0)
	}
	for i := range m.BatchNets.b {
		m.BatchNets.b[i].Store(0)
	}
	m.FFTPlanHits.Store(0)
	m.FFTPlanMisses.Store(0)
	m.ConvPlanHits.Store(0)
	m.ConvPlanMisses.Store(0)
	m.SlabBytesReused.Store(0)
	m.RebinCalls.Store(0)
	m.RebinLevels.Store(0)
	m.RebinDeviationFP.Store(0)
	for i := range m.GridBinsPerLevel.b {
		m.GridBinsPerLevel.b[i].Store(0)
	}
	m.SupportWidthPeak.Store(0)
	m.SlabBytesPeak.Store(0)
	m.CostBinOps.Store(0)
	m.CostMixtureOps.Store(0)
	m.CostLeafOps.Store(0)
	m.CostMCOps.Store(0)
	m.MCRuns.Store(0)
	m.MCPackedBlocks.Store(0)
	m.MCPackedSettleLanes.Store(0)
	m.MCPackedBlockNS.Store(0)
	m.MCScalarFallbacks.Store(0)
	for w := 0; w < MaxWorkers; w++ {
		m.WorkerBusyNS[w].Store(0)
		m.WorkerGates[w].Store(0)
	}
	m.mu.Lock()
	m.levels = m.levels[:0]
	m.mu.Unlock()
}

// Merge adds every counter, histogram bucket, level and worker total
// of o into s. Aggregators (the spstad /metrics endpoint) use it to
// fold per-request snapshots into a service-lifetime view.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	s.KernelCache.Hits += o.KernelCache.Hits
	s.KernelCache.Misses += o.KernelCache.Misses
	s.KernelCache.Races += o.KernelCache.Races
	s.Convolution.Direct += o.Convolution.Direct
	s.Convolution.FFT += o.Convolution.FFT
	s.Convolution.SupportHist = mergeHist(s.Convolution.SupportHist, o.Convolution.SupportHist)
	s.ScratchPool.Gets += o.ScratchPool.Gets
	s.ScratchPool.News += o.ScratchPool.News
	s.Mixture.EvalsByFanin = mergeFanin(s.Mixture.EvalsByFanin, o.Mixture.EvalsByFanin)
	s.Mixture.SubsetLeavesByFanin = mergeFanin(s.Mixture.SubsetLeavesByFanin, o.Mixture.SubsetLeavesByFanin)
	s.Pruning.Subtrees += o.Pruning.Subtrees
	s.Pruning.PrunedLeavesByFanin = mergeFanin(s.Pruning.PrunedLeavesByFanin, o.Pruning.PrunedLeavesByFanin)
	s.Pruning.PrunedMass += o.Pruning.PrunedMass
	s.Pruning.Truncations += o.Pruning.Truncations
	s.Pruning.TruncatedMass += o.Pruning.TruncatedMass
	s.Pruning.TruncatedBinsHist = mergeHist(s.Pruning.TruncatedBinsHist, o.Pruning.TruncatedBinsHist)
	s.Pruning.SupportWidthHist = mergeHist(s.Pruning.SupportWidthHist, o.Pruning.SupportWidthHist)
	s.Batch.NetsHist = mergeHist(s.Batch.NetsHist, o.Batch.NetsHist)
	s.Batch.FFTPlanHits += o.Batch.FFTPlanHits
	s.Batch.FFTPlanMisses += o.Batch.FFTPlanMisses
	s.Batch.ConvPlanHits += o.Batch.ConvPlanHits
	s.Batch.ConvPlanMisses += o.Batch.ConvPlanMisses
	s.Batch.SlabBytesReused += o.Batch.SlabBytesReused
	s.Grid.RebinCalls += o.Grid.RebinCalls
	s.Grid.RebinLevels += o.Grid.RebinLevels
	s.Grid.RebinDeviation += o.Grid.RebinDeviation
	s.Grid.BinsPerLevelHist = mergeHist(s.Grid.BinsPerLevelHist, o.Grid.BinsPerLevelHist)
	// Peaks aggregate as maxima: the merged view reports the largest
	// support width and slab footprint any merged request reached.
	if o.Grid.SupportWidthPeak > s.Grid.SupportWidthPeak {
		s.Grid.SupportWidthPeak = o.Grid.SupportWidthPeak
	}
	if o.Grid.SlabBytesPeak > s.Grid.SlabBytesPeak {
		s.Grid.SlabBytesPeak = o.Grid.SlabBytesPeak
	}
	s.Cost.BinOps += o.Cost.BinOps
	s.Cost.MixtureOps += o.Cost.MixtureOps
	s.Cost.LeafOps += o.Cost.LeafOps
	s.Cost.MCOps += o.Cost.MCOps
	s.Cost.Total += o.Cost.Total
	s.MonteCarloRuns += o.MonteCarloRuns
	s.MonteCarloPacked.Blocks += o.MonteCarloPacked.Blocks
	s.MonteCarloPacked.SettleLanes += o.MonteCarloPacked.SettleLanes
	s.MonteCarloPacked.BlockNS += o.MonteCarloPacked.BlockNS
	s.MonteCarloPacked.ScalarFallbacks += o.MonteCarloPacked.ScalarFallbacks
	for _, l := range o.Levels {
		for len(s.Levels) <= l.Level {
			s.Levels = append(s.Levels, LevelSnapshot{Level: len(s.Levels)})
		}
		s.Levels[l.Level].Gates += l.Gates
		s.Levels[l.Level].WallNS += l.WallNS
	}
	for _, w := range o.Workers {
		found := false
		for i := range s.Workers {
			if s.Workers[i].Worker == w.Worker {
				s.Workers[i].BusyNS += w.BusyNS
				s.Workers[i].Gates += w.Gates
				found = true
				break
			}
		}
		if !found {
			s.Workers = append(s.Workers, w)
		}
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Worker < s.Workers[j].Worker })
}

// mergeHist merges two non-empty-bucket lists keyed by [Lo, Hi].
func mergeHist(a, b []HistBucket) []HistBucket {
	for _, o := range b {
		found := false
		for i := range a {
			if a[i].Lo == o.Lo && a[i].Hi == o.Hi {
				a[i].Count += o.Count
				found = true
				break
			}
		}
		if !found {
			a = append(a, o)
		}
	}
	sort.Slice(a, func(i, j int) bool { return a[i].Lo < a[j].Lo })
	return a
}

// mergeFanin merges two non-empty-bucket lists keyed by fanin.
func mergeFanin(a, b []FaninBucket) []FaninBucket {
	for _, o := range b {
		found := false
		for i := range a {
			if a[i].Fanin == o.Fanin {
				a[i].Count += o.Count
				found = true
				break
			}
		}
		if !found {
			a = append(a, o)
		}
	}
	sort.Slice(a, func(i, j int) bool { return a[i].Fanin < a[j].Fanin })
	return a
}
