package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/synth"
)

// poolSize is how many circuits an engine workload cycles through.
// Synthetic circuits of one profile differ in work by up to ±10% from
// seed to seed (engine-variational); cycling through eight of them
// shrinks that seed-to-seed spread about threefold, while every
// circuit keeps its own latency class.
const poolSize = 8

// s5378 is the profile of the circuits both engine workloads analyze:
// s5378-sized (35 inputs, 49 outputs, 179 DFFs, 2,779 gates, depth
// 25), with its structure drawn from seed. One Analyzer.Run on it takes
// tens of milliseconds, long enough that timer and scheduler noise stay
// small beside it.
func s5378(seed int64) synth.Profile {
	return synth.Profile{Name: "s5378", Inputs: 35, Outputs: 49, DFFs: 179, Gates: 2779, Depth: 25, Seed: seed}
}

// poolSeed is the Profile.Seed of circuit k of a benchmark seed's pool.
func poolSeed(seed int64, k int) int64 { return seed*poolSize + int64(k) }

// engineSetting is one engine workload's analysis configuration.
type engineSetting struct {
	sigma   float64 // gate-delay sigma; 0 keeps the analyzer's unit delays
	eps     float64 // per-net error budget
	coarsen core.CoarsenMode
}

var (
	unitSetting        = engineSetting{}
	variationalSetting = engineSetting{sigma: 0.2, eps: 1e-4, coarsen: core.CoarsenAuto}
	// referenceSetting is the exact analysis variational results are
	// certified against: ε=0 on one grid.
	referenceSetting = engineSetting{sigma: 0.2}
)

// analyzer builds the single-worker analyzer of a setting; scope is nil
// on untraced passes.
func (s engineSetting) analyzer(scope *obs.Scope) *core.Analyzer {
	a := &core.Analyzer{
		Workers:     1,
		ErrorBudget: s.eps,
		Coarsen:     core.CoarsenPolicy{Mode: s.coarsen},
		Obs:         scope,
	}
	if s.sigma > 0 {
		sigma := s.sigma
		a.Delay = func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: sigma} }
	}
	return a
}

// engineCircuit is one circuit of an engine workload's pool: the
// generated circuit, its scenario I launch statistics and the digest of
// its warm-up result, which every later result must repeat.
type engineCircuit struct {
	seed   int64 // Profile.Seed
	c      *netlist.Circuit
	in     map[netlist.NodeID]logic.InputStats
	digest string
}

// enginePool is an engine workload's set-up.
type enginePool struct {
	circuits []*engineCircuit
	gen      time.Duration // synth.Generate time, summed over the pool
}

// setUpEngine generates the seed's pool of circuits and analyzes each
// once. The warm-up runs fill the process-wide FFT and
// convolution-plan caches, so timed operations all find them warm.
func setUpEngine(seed int64, s engineSetting, tr *spanLog, parent uint64) (*enginePool, error) {
	pool := &enginePool{}
	for k := 0; k < poolSize; k++ {
		p := s5378(poolSeed(seed, k))
		id, t0 := tr.begin()
		c, err := synth.Generate(p)
		pool.gen += time.Since(t0)
		tr.end(id, parent, "synth.Generate", t0)
		if err != nil {
			return nil, fmt.Errorf("generate %s seed %d: %w", p.Name, p.Seed, err)
		}
		in := experiments.Inputs(c, experiments.ScenarioI)
		id, t0 = tr.begin()
		res, err := s.analyzer(nil).Run(c, in)
		tr.end(id, parent, "Analyzer.Run warm-up", t0)
		if err != nil {
			return nil, fmt.Errorf("warm-up run, circuit seed %d: %w", p.Seed, err)
		}
		pool.circuits = append(pool.circuits, &engineCircuit{seed: p.Seed, c: c, in: in, digest: digest(res)})
	}
	return pool, nil
}

// enginePass is one timed pass: back-to-back Analyzer.Run calls by one
// caller, operation i on circuit i mod poolSize.
type enginePass struct {
	lat           []float64 // per-operation latency, ms
	before, after memStats
	// counts holds, on traced passes, each circuit's counters from its
	// first operation.
	counts []*obs.Snapshot
}

// timeEngine runs one timed pass. Every result must hash to its
// circuit's warm-up digest; on traced passes every operation also gets
// its own obs.Scope, and its exact counters must repeat those of the
// circuit's first operation.
//
// Each operation starts on a freshly collected heap, with no earlier
// result alive: one Run allocates about as much as the live heap that
// triggers a collection, so without the reset some operations would
// overlap a GC cycle and others not, and the median would sit on the
// boundary between the two.
func timeEngine(pool *enginePool, s engineSetting, ops int, tr *spanLog, parent uint64, chk *checker) *enginePass {
	p := &enginePass{lat: make([]float64, 0, ops), counts: make([]*obs.Snapshot, poolSize)}
	p.before = readMem()
	for i := 0; i < ops; i++ {
		k := i % poolSize
		ec := pool.circuits[k]
		runtime.GC()
		var scope *obs.Scope
		if tr != nil {
			scope = obs.NewScope()
		}
		a := s.analyzer(scope)
		id, t0 := tr.begin()
		res, err := a.Run(ec.c, ec.in)
		d := time.Since(t0)
		tr.end(id, parent, "Analyzer.Run", t0)
		p.lat = append(p.lat, ms(d))
		if err != nil {
			chk.record(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		var counts exactCountSet
		if scope != nil {
			counts = exactCounts(scope.Snapshot())
		}
		first := p.counts[k]
		switch got := digest(res); {
		case got != ec.digest:
			chk.record(fmt.Errorf("op %d: result digest %.16s differs from the warm-up run's %.16s", i, got, ec.digest))
		case first != nil && counts != exactCounts(first):
			chk.record(fmt.Errorf("op %d: exact counts %+v differ from the circuit's first operation's %+v", i, counts, exactCounts(first)))
		default:
			chk.record(nil)
		}
		if scope != nil && first == nil {
			p.counts[k] = scope.Snapshot()
		}
	}
	p.after = readMem()
	return p
}

// throughput is operations per second of busy time, the median over
// the pass's blocks.
func (p *enginePass) throughput() float64 { return blockRate(p.lat) }

// exactCountSet is the engine counters that must repeat bit-for-bit.
type exactCountSet struct {
	Cost, Mixture, Leaf, Bin, Direct, FFT, Rebin int64
}

func exactCounts(s *obs.Snapshot) exactCountSet {
	return exactCountSet{
		Cost: s.Cost.Total, Mixture: s.Cost.MixtureOps, Leaf: s.Cost.LeafOps, Bin: s.Cost.BinOps,
		Direct: s.Convolution.Direct, FFT: s.Convolution.FFT, Rebin: s.Grid.RebinCalls,
	}
}

// verifier checks one circuit's result against an independent
// expectation once the timed passes are over.
type verifier func(rep *report, ec *engineCircuit, res *core.Result) error

// runEngine runs an engine workload: set-up, an untraced timed pass,
// on traced runs a traced pass, then the output checks.
func runEngine(s engineSetting, verify verifier, cfg runConfig) (*report, error) {
	rep := newReport(cfg, 1)
	var setups, gens []float64
	setUp := func() (*enginePool, error) {
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		pool, err := setUpEngine(cfg.seed, s, nil, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, ms(pool.gen))
		return pool, nil
	}
	var pool *enginePool
	for i := 0; i < engineSetUps/2; i++ {
		pool = nil
		var err error
		if pool, err = setUp(); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	p := timeEngine(pool, s, cfg.ops, nil, 0, &rep.check)
	rep.setPeakRSS()
	rep.set("throughput_ops_s", p.throughput())
	setBlockPercentile[int](rep, "latency_p50_ms", p.lat, nil, 50)
	setBlockPercentile[int](rep, "latency_p90_ms", p.lat, nil, 90)
	rep.setRuntime(p.before, p.after, cfg.ops)

	for i := engineSetUps / 2; i < engineSetUps; i++ {
		if _, err := setUp(); err != nil {
			return nil, err
		}
	}
	rep.set("setup_s", median(setups))
	rep.set("synth.generate_ms", median(gens))

	if t := rep.trace; t != nil {
		root, t0 := t.log.begin()
		setup, s0 := t.log.begin()
		tpool, err := setUpEngine(cfg.seed, s, t.log, setup)
		t.log.end(setup, root, "setup", s0)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		timed, t1 := t.log.begin()
		tp := timeEngine(tpool, s, cfg.ops, t.log, timed, &rep.check)
		t.log.end(timed, root, "timed", t1)
		t.log.end(root, 0, cfg.workload, t0)
		rep.set("trace_overhead_pct", 100*(p.throughput()-tp.throughput())/p.throughput())
		setBlockPercentile[int](rep, "core.run_ms", tp.lat, nil, 50)
		rep.setEngineCounts(tp.counts)
		t.Counts["first_op_per_circuit"] = tp.counts
	}

	// Output checks, outside every timed pass and set-up: each circuit
	// is analyzed once more and checked.
	for _, ec := range pool.circuits {
		res, err := s.analyzer(nil).Run(ec.c, ec.in)
		if err == nil && digest(res) != ec.digest {
			err = errors.New("check run differs from the warm-up run")
		}
		if err == nil {
			err = verify(rep, ec, res)
		}
		if err != nil {
			err = fmt.Errorf("circuit seed %d: %w", ec.seed, err)
		}
		rep.check.record(err)
	}
	return rep, nil
}

// setEngineCounts records the per-layer engine counters of a traced
// pass: counts per operation, averaged over the pool (one first
// operation per circuit), and the pool's peaks and hit ratios.
func (r *report) setEngineCounts(counts []*obs.Snapshot) {
	var sum exactCountSet
	var kHits, kMiss, pHits, pMiss, slab, width float64
	n := 0
	for _, c := range counts {
		if c == nil {
			continue // that circuit's every operation failed, and each was counted
		}
		n++
		e := exactCounts(c)
		sum.Cost += e.Cost
		sum.Mixture += e.Mixture
		sum.Leaf += e.Leaf
		sum.Bin += e.Bin
		sum.Direct += e.Direct
		sum.FFT += e.FFT
		sum.Rebin += e.Rebin
		kHits += float64(c.KernelCache.Hits)
		kMiss += float64(c.KernelCache.Misses)
		pHits += float64(c.Batch.ConvPlanHits)
		pMiss += float64(c.Batch.ConvPlanMisses)
		slab = max(slab, float64(c.Grid.SlabBytesPeak))
		width = max(width, float64(c.Grid.SupportWidthPeak))
	}
	if n == 0 {
		return
	}
	per := func(v int64) float64 { return float64(v) / float64(n) }
	r.set("core.cost_units", per(sum.Cost))
	r.set("core.mixture_ops", per(sum.Mixture))
	r.set("core.leaf_ops", per(sum.Leaf))
	r.set("dist.bin_ops", per(sum.Bin))
	r.set("dist.conv_direct", per(sum.Direct))
	r.set("dist.conv_fft", per(sum.FFT))
	r.set("dist.rebin_calls", per(sum.Rebin))
	r.set("dist.kernel_cache_hit_ratio", ratio(kHits, kMiss))
	r.set("dist.conv_plan_hit_ratio", ratio(pHits, pMiss))
	r.set("dist.slab_bytes_peak", slab)
	r.set("dist.support_width_peak", width)
}
