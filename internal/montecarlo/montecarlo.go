// Package montecarlo implements the reference analysis of the
// paper's Section 4: a four-value logic (0, 1, r, f) Monte Carlo
// simulator. Each run draws a logic value and a transition arrival
// time for every launch point, propagates values and settled
// transition times through the netlist (glitches filtered, MIN/MAX
// settle semantics per gate logic and transition direction), and
// accumulates per-net occurrence counts and arrival-time moments.
//
// The engine (bitsim.go) evaluates 64 runs per gate with word-level
// bit operations. The package's tests keep a one-run-at-a-time
// reference walk that draws from the same per-run streams and must
// match it bit for bit.
package montecarlo

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ssta"
)

// Config parameterizes a simulation.
type Config struct {
	// Runs is the number of Monte Carlo runs (default 10000, the
	// paper's setting).
	Runs int
	// Seed selects the deterministic random streams (default 1).
	// Every run r draws from its own SplitMix64 stream with starting
	// state runState(Seed, r) — see rng.go — so the randomness
	// consumed by run r depends only on (Seed, r), not on the Workers
	// count, the shard split or the run's lane in a 64-run block.
	// Occurrence, glitch, probe and criticality counts are therefore
	// identical for every Workers value; the moments depend on
	// Workers only through the order the shard merge associates them.
	Seed int64
	// Delay is the gate delay model (default ssta.UnitDelay). A
	// model with Sigma > 0 is sampled independently per gate per
	// run, adding process variation to the input-statistics
	// variation. Models must be deterministic pure functions of the
	// gate (all ssta models are): the packed engine evaluates
	// Delay(n) once per 64-run block instead of once per run.
	Delay ssta.DelayModel
	// CountGlitches additionally counts filtered glitches per net
	// with the event-walk semantics (logic.GateType.SettleTime), run
	// on the lanes where at least two fanins switch — the only ones
	// that can glitch (used by the glitch example).
	CountGlitches bool
	// ProbeTimes requests time-resolved state sampling: for every
	// probe time t, the per-net count of runs whose net is at logic
	// one at t (initial value before its transition, final after).
	// This is the sampled probability waveform of probabilistic
	// waveform simulation. The cost is one pass over each net's
	// transitioning lanes per probe time.
	ProbeTimes []float64
	// CountCriticality tracks, per run, which endpoint settles
	// last (among endpoints that transition) and accumulates
	// per-endpoint criticality counts.
	CountCriticality bool
	// MomentNets, when non-nil, limits the arrival-time moments
	// (NetStats.Rise and Fall) to the listed nets; every other net's
	// moments stay empty (N() == 0). Occurrence counts, criticality,
	// glitch and probe counts are kept at every net either way, and
	// the listed nets' moments are bit-identical to a nil run. nil
	// accumulates moments at every net. Callers pass the nets they
	// read: the Welford update is a large share of the packed
	// engine's time, and most nets' moments are never read.
	MomentNets []netlist.NodeID
	// Workers splits the runs across goroutines (default 1,
	// sequential). Each worker owns a contiguous range of global run
	// indices and the per-net moment accumulators are merged in
	// shard order (parallel Welford), so results are deterministic
	// for a given (Seed, Workers) pair.
	Workers int
	// MIS, when non-nil, replaces Delay with a multiple-input
	// switching model: the sampled gate delay is MIS(gate, k) for k
	// simultaneously switching inputs (mirrors core.Analyzer.MIS).
	// Like Delay, MIS models must be pure functions of (gate, k).
	MIS ssta.MISModel
	// Obs is the simulation's observability scope (metrics and
	// optional tracing); nil disables instrumentation. Scopes are
	// per-simulation: concurrent simulations with distinct scopes
	// record into fully isolated registries.
	Obs *obs.Scope
}

// NetStats accumulates per-net observations across runs.
type NetStats struct {
	// Count holds final-value occurrence counts indexed by
	// logic.Value.
	Count [logic.NumValues]int64
	// Rise and Fall hold arrival-time moments conditioned on the
	// net transitioning in that direction.
	Rise, Fall dist.Moments
	// Glitches counts filtered glitch edges (pairs of cancelling
	// output changes) when Config.CountGlitches is set.
	Glitches int64
	// OneAt[i] counts runs whose net is at logic one at
	// Config.ProbeTimes[i].
	OneAt []int64
	// Critical counts runs in which this net was the last-settling
	// endpoint (Config.CountCriticality; endpoints only).
	Critical int64
}

// Result is a completed simulation.
type Result struct {
	C     *netlist.Circuit
	Runs  int
	Stats []NetStats
}

// newResult allocates a result for runs runs with probes probe slots
// per net.
func newResult(c *netlist.Circuit, runs, probes int) *Result {
	res := &Result{C: c, Runs: runs, Stats: make([]NetStats, len(c.Nodes))}
	if probes > 0 {
		for i := range res.Stats {
			res.Stats[i].OneAt = make([]int64, probes)
		}
	}
	return res
}

// Simulate runs the Monte Carlo analysis. inputs maps launch points
// to their cycle statistics; missing launch points default to the
// paper's scenario I (uniform) statistics.
func Simulate(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats, cfg Config) (*Result, error) {
	return simulate(c, inputs, cfg, simulatePacked)
}

// engine simulates runs runs with global indices [start, start+runs)
// into res. cfg has been normalized by simulate (Delay non-nil,
// inputs validated); moments[id] reports whether net id accumulates
// arrival moments (Config.MomentNets).
type engine func(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats, cfg *Config, moments []bool, seed int64, res *Result, start, runs int)

// simulate validates and normalizes cfg and runs it on run, sharded
// per Config.Workers. Simulate always passes simulatePacked; the seam
// lets the tests run their reference engine through the same
// validation, sharding and merge.
func simulate(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats, cfg Config, run engine) (*Result, error) {
	runs := cfg.Runs
	if runs == 0 {
		runs = 10000
	}
	if runs < 0 {
		return nil, fmt.Errorf("montecarlo: %d runs", runs)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.Delay == nil {
		cfg.Delay = ssta.UnitDelay
	}
	for id, st := range inputs {
		if err := st.Validate(); err != nil {
			return nil, fmt.Errorf("montecarlo: launch %s: %w", c.Nodes[id].Name, err)
		}
	}
	moments := make([]bool, len(c.Nodes))
	for i := range moments {
		moments[i] = cfg.MomentNets == nil
	}
	for _, id := range cfg.MomentNets {
		if id < 0 || int(id) >= len(c.Nodes) {
			return nil, fmt.Errorf("montecarlo: moment net %d out of range [0, %d)", id, len(c.Nodes))
		}
		moments[id] = true
	}
	if m := cfg.Obs.M(); m != nil {
		m.MCRuns.Add(int64(runs))
	}
	workers := cfg.Workers
	if workers > runs {
		workers = runs
	}
	if workers <= 1 {
		res := newResult(c, runs, len(cfg.ProbeTimes))
		run(c, inputs, &cfg, moments, seed, res, 0, runs)
		return res, nil
	}
	return simulateParallel(c, inputs, &cfg, run, moments, seed, runs, workers)
}

// simulateParallel assigns each worker a contiguous range of global
// run indices and merges the per-net statistics with the parallel
// Welford combination. Because run r's random stream depends only on
// (seed, r), the shard boundaries never change what any run draws —
// only how the Welford accumulators associate, which the shard-order
// merge keeps deterministic.
func simulateParallel(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats, cfg *Config, run engine, moments []bool, seed int64, runs, workers int) (*Result, error) {
	shards := make([]*Result, workers)
	var wg sync.WaitGroup
	base := runs / workers
	extra := runs % workers
	start := 0
	for w := 0; w < workers; w++ {
		n := base
		if w < extra {
			n++
		}
		w, ws, wn := w, start, n
		start += n
		wg.Add(1)
		go func() {
			defer wg.Done()
			sres := newResult(c, wn, len(cfg.ProbeTimes))
			tr := cfg.Obs.T()
			var t0 time.Time
			if tr != nil {
				t0 = time.Now()
			}
			run(c, inputs, cfg, moments, seed, sres, ws, wn)
			if tr != nil {
				tr.NameThread(w+1, "worker "+strconv.Itoa(w))
				tr.RecordSpan(tr.NewSpan(), cfg.Obs.SpanID(),
					"mc shard "+strconv.Itoa(w)+" ("+strconv.Itoa(wn)+" runs)",
					"montecarlo", w+1, t0, time.Since(t0), nil)
			}
			shards[w] = sres
		}()
	}
	wg.Wait()
	res := newResult(c, runs, len(cfg.ProbeTimes))
	for _, sh := range shards {
		for i := range res.Stats {
			dst, src := &res.Stats[i], &sh.Stats[i]
			for v := range dst.Count {
				dst.Count[v] += src.Count[v]
			}
			dst.Rise.Merge(&src.Rise)
			dst.Fall.Merge(&src.Fall)
			dst.Glitches += src.Glitches
			dst.Critical += src.Critical
			for j := range dst.OneAt {
				dst.OneAt[j] += src.OneAt[j]
			}
		}
	}
	return res, nil
}

// oneAt reports whether a net with cycle value v and transition time
// tt is at logic one at probe time pt.
func oneAt(v logic.Value, tt, pt float64) bool {
	switch v {
	case logic.One:
		return true
	case logic.Rise:
		return pt >= tt
	case logic.Fall:
		return pt < tt
	}
	return false
}

// P returns the sampled occurrence probability of value v at net id.
func (r *Result) P(id netlist.NodeID, v logic.Value) float64 {
	return float64(r.Stats[id].Count[v]) / float64(r.Runs)
}

// SignalProbability returns the sampled time-averaged probability of
// logic one at net id: P(1) + (P(r)+P(f))/2.
func (r *Result) SignalProbability(id netlist.NodeID) float64 {
	return r.P(id, logic.One) + (r.P(id, logic.Rise)+r.P(id, logic.Fall))/2
}

// TogglingRate returns the sampled transitions-per-cycle at net id.
func (r *Result) TogglingRate(id netlist.NodeID) float64 {
	return r.P(id, logic.Rise) + r.P(id, logic.Fall)
}

// Arrival returns the conditional arrival-time moments of direction
// d at net id.
func (r *Result) Arrival(id netlist.NodeID, d ssta.Dir) *dist.Moments {
	if d == ssta.DirRise {
		return &r.Stats[id].Rise
	}
	return &r.Stats[id].Fall
}

// OneProbabilityAt returns the sampled probability that net id is at
// logic one at probe time index i (requires Config.ProbeTimes).
func (r *Result) OneProbabilityAt(id netlist.NodeID, i int) float64 {
	return float64(r.Stats[id].OneAt[i]) / float64(r.Runs)
}

// Criticality returns the sampled probability that net id is the
// last-settling endpoint (requires Config.CountCriticality).
func (r *Result) Criticality(id netlist.NodeID) float64 {
	return float64(r.Stats[id].Critical) / float64(r.Runs)
}
