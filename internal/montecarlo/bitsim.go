// Word-packed bit-parallel Monte Carlo engine.
//
// The four-value logic value of a net is two Booleans — the value at
// the start and at the end of the cycle (logic.Value.Initial/Final) —
// and a gate's four-value output is the gate's Boolean function
// applied to each of those planes independently (logic.GateType.Eval).
// The packed engine exploits this: it simulates a block of 64 runs at
// once by keeping, per net, two uint64 bit-planes (bit l of iw/fw is
// run l's initial/final value) so one gate evaluation for all 64 runs
// is a handful of word operations (AND/OR/XOR reductions over the
// fanin words, complemented for inverting gates).
//
// Derived word masks per net:
//
//	switching = iw ^ fw      (Rise or Fall)
//	one       = iw & fw
//	rise      = ^iw & fw
//	fall      = iw & ^fw
//
// Arrival-time settling is inherently per-run arithmetic, so it runs
// as a sparse, fanin-major pass: for each fanin in order, a
// bits.TrailingZeros64 walk visits only the lanes where both the
// output and that fanin transition, and folds the fanin's time into a
// per-lane accumulator (MIN on the lanes where a monotone gate
// settles to its controlled value, MAX elsewhere); one last walk over
// the switching mask adds the sampled gate delay. Each lane still sees
// its switching fanins in fanin order, as a one-run-at-a-time settle
// would.
//
// Two optional per-run outputs draw no randomness, so they run as a
// pass over the block's finished planes and times after propagation.
// Probe counts (Config.ProbeTimes) are a popcount of the one mask
// plus, per probe time, a walk over the rise and fall lanes comparing
// each lane's transition time (oneAt). Glitch counts
// (Config.CountGlitches) need the event-walk semantics, but a gate can
// only glitch on a lane where at least two fanins switch: two word
// masks find those lanes (twice |= once & fsw; once |= fsw), and only
// they gather their fanin values and times into scratch for
// logic.GateType.SettleTime.
//
// Randomness: each lane l of a block starting at global run b draws
// from the SplitMix64 stream runState(seed, b+l) (rng.go). The node-
// major loop order consumes each lane's stream in topological node
// order — exactly the order a one-run-at-a-time walk consumes run
// b+l's stream — so every sampled value matches that walk bit for
// bit, and so do the per-net Welford accumulators: lanes are read out
// in ascending order, which is ascending global run order. The tests
// keep such a walk as the reference engine.
package montecarlo

import (
	"math/bits"
	"math/rand"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// laneCount is the number of runs packed per bit-plane word.
const laneCount = 64

// packedState is the per-block scratch of the packed engine,
// allocated once per simulated range.
type packedState struct {
	iw []uint64  // per-net initial-value bit-plane
	fw []uint64  // per-net final-value bit-plane
	tm []float64 // per-net per-lane transition times, stride laneCount

	// Per-lane random streams; lane l is reseeded to
	// runState(seed, block+l) at each block start, so the rand.Rand
	// wrappers are built once per simulated range.
	srcs [laneCount]runSource
	rngs [laneCount]*rand.Rand

	// Per-lane settle scratch of the gate being settled: the folded
	// fanin time and the number of switching fanins (for MIS).
	acc [laneCount]float64
	k   [laneCount]int

	// One lane's fanin values and times, gathered for the glitch
	// event walk.
	inVals  []logic.Value
	inTimes []float64
}

// simulatePacked simulates runs runs with global indices
// [start, start+runs) into res using the bit-parallel engine. It is
// the engine Simulate runs.
func simulatePacked(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats, cfg *Config, moments []bool, seed int64, res *Result, start, runs int) {
	nn := len(c.Nodes)
	st := &packedState{
		iw: make([]uint64, nn),
		fw: make([]uint64, nn),
		tm: make([]float64, nn*laneCount),
	}
	for l := range st.srcs {
		st.rngs[l] = newRunRNG(&st.srcs[l])
	}
	var endpoints []netlist.NodeID
	if cfg.CountCriticality {
		endpoints = c.Endpoints()
	}
	order := c.TopoOrder()
	defaultStats := logic.UniformStats()
	m := cfg.Obs.M()

	for block := 0; block < runs; block += laneCount {
		active := runs - block
		if active > laneCount {
			active = laneCount
		}
		settled := simulateBlock(c, inputs, cfg, st, order, endpoints, moments, defaultStats, res,
			seed, start+block, active)
		if m != nil {
			m.MCPackedBlocks.Add(1)
			m.MCPackedSettleLanes.Add(settled)
			// active×nodes + settled sums to a shard-invariant total:
			// block boundaries shift with the worker split, but every
			// run visits every node exactly once and a lane's settle
			// passes depend only on its (seed, run) stream.
			m.CostMCOps.Add(int64(active)*int64(len(order)) + settled)
		}
	}
}

// simulateBlock runs one block of active (<= 64) runs with global
// indices [block, block+active) and accumulates its statistics.
// It returns the number of sparse settle-pass lane visits.
func simulateBlock(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats, cfg *Config, st *packedState,
	order, endpoints []netlist.NodeID, moments []bool, defaultStats logic.InputStats, res *Result,
	seed int64, block, active int) int64 {

	activeMask := ^uint64(0) >> (laneCount - uint(active))
	for l := 0; l < active; l++ {
		st.srcs[l].state = runState(seed, block+l)
	}
	iw, fw, tm := st.iw, st.fw, st.tm
	settled := int64(0)

	for _, id := range order {
		n := c.Nodes[id]
		var wi, wf uint64
		switch {
		case n.Type == logic.Const0:
			wi, wf = 0, 0
		case n.Type == logic.Const1:
			wi, wf = activeMask, activeMask
		case !n.Type.Combinational():
			ist, ok := inputs[id]
			if !ok {
				ist = defaultStats
			}
			base := int(id) * laneCount
			for l := 0; l < active; l++ {
				v, t := ist.Sample(st.rngs[l])
				bit := uint64(1) << uint(l)
				if v.Initial() {
					wi |= bit
				}
				if v.Final() {
					wf |= bit
				}
				tm[base+l] = t
			}
		default:
			wi, wf = evalPlanes(n.Type, n.Fanin, iw, fw)
			if sw := (wi ^ wf) & activeMask; sw != 0 {
				settled += int64(bits.OnesCount64(sw))
				settleLanes(cfg, st, n, id, wf, sw)
			}
		}
		iw[id], fw[id] = wi, wf

		// Statistics: word popcounts for the occurrence counts, a
		// per-lane walk over the transition masks for the moments of
		// the nets that keep them. Lanes are visited in ascending
		// order = ascending global run order, the Welford Add sequence
		// of a one-run-at-a-time walk.
		s := &res.Stats[id]
		one := wi & wf & activeMask
		rise := ^wi & wf & activeMask
		fall := wi & ^wf & activeMask
		zero := activeMask &^ (one | rise | fall)
		s.Count[logic.Zero] += int64(bits.OnesCount64(zero))
		s.Count[logic.One] += int64(bits.OnesCount64(one))
		s.Count[logic.Rise] += int64(bits.OnesCount64(rise))
		s.Count[logic.Fall] += int64(bits.OnesCount64(fall))
		if !moments[id] {
			continue
		}
		base := int(id) * laneCount
		for w := rise; w != 0; w &= w - 1 {
			s.Rise.Add(tm[base+bits.TrailingZeros64(w)])
		}
		for w := fall; w != 0; w &= w - 1 {
			s.Fall.Add(tm[base+bits.TrailingZeros64(w)])
		}
	}

	if cfg.CountGlitches || len(cfg.ProbeTimes) > 0 {
		countEvents(c, cfg, st, order, res, activeMask)
	}
	if cfg.CountCriticality {
		for l := 0; l < active; l++ {
			bit := uint64(1) << uint(l)
			last := netlist.InvalidNode
			lastT := 0.0
			for _, ep := range endpoints {
				if (iw[ep]^fw[ep])&bit == 0 {
					continue
				}
				t := tm[int(ep)*laneCount+l]
				if last == netlist.InvalidNode || t > lastT {
					last, lastT = ep, t
				}
			}
			if last != netlist.InvalidNode {
				res.Stats[last].Critical++
			}
		}
	}
	return settled
}

// evalPlanes evaluates the gate's Boolean function bitwise on the
// initial and final planes of its fanins: 64 four-value gate
// evaluations in a handful of word operations. Inverted planes carry
// garbage in the inactive high lanes; every consumer masks with
// activeMask, and lane-local word ops never mix lanes, so the garbage
// stays confined.
func evalPlanes(g logic.GateType, fanin []netlist.NodeID, iw, fw []uint64) (wi, wf uint64) {
	switch g {
	case logic.Buf:
		return iw[fanin[0]], fw[fanin[0]]
	case logic.Not:
		return ^iw[fanin[0]], ^fw[fanin[0]]
	case logic.And, logic.Nand:
		wi, wf = ^uint64(0), ^uint64(0)
		for _, f := range fanin {
			wi &= iw[f]
			wf &= fw[f]
		}
		if g == logic.Nand {
			wi, wf = ^wi, ^wf
		}
		return wi, wf
	case logic.Or, logic.Nor:
		for _, f := range fanin {
			wi |= iw[f]
			wf |= fw[f]
		}
		if g == logic.Nor {
			wi, wf = ^wi, ^wf
		}
		return wi, wf
	case logic.Xor, logic.Xnor:
		for _, f := range fanin {
			wi ^= iw[f]
			wf ^= fw[f]
		}
		if g == logic.Xnor {
			wi, wf = ^wi, ^wf
		}
		return wi, wf
	}
	panic("montecarlo: evalPlanes on non-combinational gate " + g.String())
}

// settleLanes runs the sparse settle pass for gate n over the lanes
// in the switching mask sw. It walks the fanins in order and, for
// each, only the lanes where that fanin also switches: the first
// switching fanin of a lane sets its accumulator, later ones take a
// strict MIN on the lanes of opMinMask and a strict MAX elsewhere.
// A final pass over sw adds the sampled gate delay. Per lane this is
// a strict MIN/MAX fold over the switching fanins in fanin order, and
// the lane's delay draw stays one per gate in node order, so the times
// are bit-identical to a one-run-at-a-time settle.
func settleLanes(cfg *Config, st *packedState, n *netlist.Node, id netlist.NodeID, wf, sw uint64) {
	// opMin per lane: SettleOp returns OpMin exactly when a monotone
	// gate's output settles to its controlled value, i.e. when the
	// output's final bit equals controlledOut; Buf/Not and parity
	// gates always settle at OpMax.
	opMinMask := uint64(0)
	if ctrl, ok := n.Type.Controlling(); ok {
		if ctrl != n.Type.Inverting() {
			opMinMask = wf
		} else {
			opMinMask = ^wf
		}
	}
	tm := st.tm
	acc, k := &st.acc, &st.k
	seen := uint64(0) // lanes whose accumulator holds a fanin time
	for _, f := range n.Fanin {
		fsw := sw & (st.iw[f] ^ st.fw[f])
		fb := int(f) * laneCount
		for w := fsw &^ seen; w != 0; w &= w - 1 {
			l := bits.TrailingZeros64(w)
			acc[l] = tm[fb+l]
			k[l] = 1
		}
		for w := fsw & seen & opMinMask; w != 0; w &= w - 1 {
			l := bits.TrailingZeros64(w)
			if t := tm[fb+l]; t < acc[l] {
				acc[l] = t
			}
			k[l]++
		}
		for w := fsw & seen &^ opMinMask; w != 0; w &= w - 1 {
			l := bits.TrailingZeros64(w)
			if t := tm[fb+l]; t > acc[l] {
				acc[l] = t
			}
			k[l]++
		}
		seen |= fsw
	}
	dn := cfg.Delay(n)
	base := int(id) * laneCount
	for w := sw; w != 0; w &= w - 1 {
		l := bits.TrailingZeros64(w)
		d := dn
		if cfg.MIS != nil {
			d = cfg.MIS(n, k[l])
		}
		dt := d.Mu
		if d.Sigma > 0 {
			dt += d.Sigma * st.rngs[l].NormFloat64()
		}
		tm[base+l] = acc[l] + dt
	}
}

// countEvents adds the block's probe counts at every net and glitch
// counts at every gate. Both read only the block's finished planes and
// times and draw no randomness, so they run after propagation.
func countEvents(c *netlist.Circuit, cfg *Config, st *packedState, order []netlist.NodeID, res *Result, activeMask uint64) {
	for _, id := range order {
		s := &res.Stats[id]
		if len(cfg.ProbeTimes) > 0 {
			wi, wf := st.iw[id], st.fw[id]
			base := int(id) * laneCount
			countProbes(s.OneAt, cfg.ProbeTimes, wi&wf&activeMask, ^wi&wf&activeMask, wi&^wf&activeMask,
				st.tm[base:base+laneCount])
		}
		if n := c.Nodes[id]; cfg.CountGlitches && n.Type.Combinational() {
			s.Glitches += st.glitches(n, activeMask)
		}
	}
}

// countProbes adds to oneAtCounts[i] the number of lanes at logic one
// at probes[i]: every lane of the one mask, plus the rise and fall
// lanes whose transition time tm[l] puts them at one (oneAt).
func countProbes(oneAtCounts []int64, probes []float64, one, rise, fall uint64, tm []float64) {
	ones := int64(bits.OnesCount64(one))
	for i, pt := range probes {
		n := ones
		for w := rise; w != 0; w &= w - 1 {
			if oneAt(logic.Rise, tm[bits.TrailingZeros64(w)], pt) {
				n++
			}
		}
		for w := fall; w != 0; w &= w - 1 {
			if oneAt(logic.Fall, tm[bits.TrailingZeros64(w)], pt) {
				n++
			}
		}
		oneAtCounts[i] += n
	}
}

// glitches returns gate n's filtered glitch edges summed over the
// active lanes. Only a lane with at least two switching fanins can
// glitch, so only those lanes gather their fanin values and times for
// the event walk; the others contribute zero, as SettleTime would
// report for them.
func (st *packedState) glitches(n *netlist.Node, activeMask uint64) int64 {
	var once, twice uint64
	for _, f := range n.Fanin {
		fsw := (st.iw[f] ^ st.fw[f]) & activeMask
		twice |= once & fsw
		once |= fsw
	}
	total := int64(0)
	for w := twice; w != 0; w &= w - 1 {
		l := uint(bits.TrailingZeros64(w))
		st.inVals, st.inTimes = st.inVals[:0], st.inTimes[:0]
		for _, f := range n.Fanin {
			st.inVals = append(st.inVals, logic.FromEdge(st.iw[f]>>l&1 != 0, st.fw[f]>>l&1 != 0))
			st.inTimes = append(st.inTimes, st.tm[int(f)*laneCount+int(l)])
		}
		_, _, gl, _ := n.Type.SettleTime(st.inVals, st.inTimes)
		total += int64(gl)
	}
	return total
}
