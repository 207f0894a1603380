package core

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ssta"
)

// DefaultMaxMomentFanin bounds the O(2^k) subset enumeration of the
// analytic moment-based analyzer.
const DefaultMaxMomentFanin = 16

// MomentTiming is the analytic SPSTA abstraction of Section 3.4
// applied to arrival times: instead of discretized t.o.p. functions
// it carries, per net and direction, the transition occurrence
// probability and the conditional arrival-time mean and variance,
// using Clark moment matching for the MIN/MAX inside each
// switching-input subset and exact mixture moments for the WEIGHTED
// SUM across subsets. It is faster and grid-free, at the cost of the
// normal-mixture approximation — one point of the paper's
// accuracy/efficiency tradeoff.
type MomentTiming struct {
	// Delay is the gate delay model (default ssta.UnitDelay).
	Delay ssta.DelayModel
	// Obs is the analysis' observability scope (metrics and optional
	// tracing); nil disables instrumentation. Scopes are per-analysis,
	// so concurrent Runs with distinct scopes never share counters.
	Obs *obs.Scope
}

// MomentState is the per-net analytic SPSTA view.
type MomentState struct {
	// P holds the four-value occurrence probabilities.
	P [logic.NumValues]float64
	// Arr[d] is the conditional arrival-time normal of direction d
	// (meaningful when P[Rise]/P[Fall] > 0).
	Arr [2]dist.Normal
}

// MomentResult is a completed analytic SPSTA analysis.
type MomentResult struct {
	C     *netlist.Circuit
	State []MomentState
}

// Run executes the analytic analyzer, level by level on the calling
// goroutine: a gate costs a few subset leaves, too little work to pay
// for pool dispatch (DESIGN.md §10.3).
func (a *MomentTiming) Run(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats) (*MomentResult, error) {
	delay := a.Delay
	if delay == nil {
		delay = ssta.UnitDelay
	}
	res := &MomentResult{C: c, State: make([]MomentState, len(c.Nodes))}
	defaultStats := logic.UniformStats()
	name := func(id netlist.NodeID) string { return c.Nodes[id].Name }
	err := runLevels(a.Obs.M(), a.Obs.T(), a.Obs.SpanID(), 1, c.Levelize(), name, func(_ int, id netlist.NodeID) error {
		n := c.Nodes[id]
		st := &res.State[id]
		switch {
		case n.Type == logic.Const0:
			st.P[logic.Zero] = 1
		case n.Type == logic.Const1:
			st.P[logic.One] = 1
		case !n.Type.Combinational():
			in, ok := inputs[id]
			if !ok {
				in = defaultStats
			}
			if err := in.Validate(); err != nil {
				return fmt.Errorf("core: launch %s: %w", n.Name, err)
			}
			st.P = in.P
			arr := dist.Normal{Mu: in.Mu, Sigma: in.Sigma}
			st.Arr[ssta.DirRise] = arr
			st.Arr[ssta.DirFall] = arr
		default:
			if err := momentGate(res, n, delay, a.Obs.M()); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// mixAccum accumulates mixture moments across switching subsets.
type mixAccum struct {
	w, m1, m2 float64
}

func (m *mixAccum) add(weight float64, n dist.Normal) {
	m.w += weight
	m.m1 += weight * n.Mu
	m.m2 += weight * (n.Var() + n.Mu*n.Mu)
}

// normal returns the moment-matched conditional normal and the total
// probability of the mixture.
func (m *mixAccum) normal() (dist.Normal, float64) {
	if m.w == 0 {
		return dist.Normal{}, 0
	}
	mu := m.m1 / m.w
	v := m.m2/m.w - mu*mu
	if v < 0 {
		v = 0
	}
	return dist.Normal{Mu: mu, Sigma: sqrt(v)}, m.w
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

func momentGate(res *MomentResult, n *netlist.Node, delay ssta.DelayModel, m *obs.Metrics) error {
	st := &res.State[n.ID]
	d := delay(n)
	shift := func(x dist.Normal) dist.Normal {
		return dist.Normal{Mu: x.Mu + d.Mu, Sigma: sqrt(x.Var() + d.Var())}
	}
	switch {
	case n.Type == logic.Buf || n.Type == logic.Not:
		in := &res.State[n.Fanin[0]]
		if n.Type == logic.Buf {
			st.P = in.P
			st.Arr[ssta.DirRise] = shift(in.Arr[ssta.DirRise])
			st.Arr[ssta.DirFall] = shift(in.Arr[ssta.DirFall])
		} else {
			st.P[logic.Zero] = in.P[logic.One]
			st.P[logic.One] = in.P[logic.Zero]
			st.P[logic.Rise] = in.P[logic.Fall]
			st.P[logic.Fall] = in.P[logic.Rise]
			st.Arr[ssta.DirRise] = shift(in.Arr[ssta.DirFall])
			st.Arr[ssta.DirFall] = shift(in.Arr[ssta.DirRise])
		}
		return nil

	case n.Type.Monotone():
		if len(n.Fanin) > DefaultMaxMomentFanin {
			return fmt.Errorf("core: %s: fanin %d exceeds moment cap %d", n.Name, len(n.Fanin), DefaultMaxMomentFanin)
		}
		ctrl, _ := n.Type.Controlling()
		ncVal := logic.Zero
		towardNC, towardCtrl := logic.Fall, logic.Rise
		if !ctrl {
			ncVal = logic.One
			towardNC, towardCtrl = logic.Rise, logic.Fall
		}
		var ncd, cd mixAccum
		pNCD := 1.0
		for _, f := range n.Fanin {
			pNCD *= res.State[f].P[ncVal]
		}
		var leaves *int64
		if m != nil {
			leaves = new(int64)
		}
		subsetMoments(res, n.Fanin, ncVal, towardNC, true, &ncd, leaves)
		subsetMoments(res, n.Fanin, ncVal, towardCtrl, false, &cd, leaves)
		if m != nil {
			m.SubsetLeaves.Add(len(n.Fanin), *leaves)
			m.CostLeafOps.Add(*leaves)
		}
		ncdOut := nonControlledOutput(n.Type, ctrl)
		ncdArr, ncdP := ncd.normal()
		cdArr, cdP := cd.normal()
		var riseArr, fallArr dist.Normal
		var riseP, fallP float64
		if ncdOut {
			riseArr, riseP, fallArr, fallP = ncdArr, ncdP, cdArr, cdP
		} else {
			riseArr, riseP, fallArr, fallP = cdArr, cdP, ncdArr, ncdP
		}
		st.P[boolVal(ncdOut)] = pNCD
		st.P[logic.Rise] = riseP
		st.P[logic.Fall] = fallP
		st.P[boolVal(!ncdOut)] = clampProb(1 - pNCD - riseP - fallP)
		st.Arr[ssta.DirRise] = shift(riseArr)
		st.Arr[ssta.DirFall] = shift(fallArr)
		return nil

	case n.Type.Parity():
		if len(n.Fanin) > DefaultMaxParityFanin {
			return fmt.Errorf("core: %s: parity fanin %d too wide", n.Name, len(n.Fanin))
		}
		var rise, fall mixAccum
		vals := make([]logic.Value, len(n.Fanin))
		var leaves *int64
		if m != nil {
			leaves = new(int64)
		}
		var rec func(i int, weight float64)
		rec = func(i int, weight float64) {
			if weight == 0 {
				return
			}
			if i == len(vals) {
				if leaves != nil {
					*leaves++
				}
				out, op := n.Type.SettleOp(vals)
				if !out.Switching() {
					st.P[out] += weight
					return
				}
				first := true
				var acc dist.Normal
				for j, v := range vals {
					if !v.Switching() {
						continue
					}
					arr := res.State[n.Fanin[j]].Arr[dirOf(v)]
					if first {
						acc, first = arr, false
					} else if op == logic.OpMax {
						acc = dist.MaxNormal(acc, arr, 0)
					} else {
						acc = dist.MinNormal(acc, arr, 0)
					}
				}
				if out == logic.Rise {
					rise.add(weight, acc)
				} else {
					fall.add(weight, acc)
				}
				return
			}
			in := &res.State[n.Fanin[i]]
			for v := logic.Zero; v < logic.NumValues; v++ {
				vals[i] = v
				rec(i+1, weight*in.P[v])
			}
		}
		rec(0, 1)
		if m != nil {
			m.SubsetLeaves.Add(len(n.Fanin), *leaves)
			m.CostLeafOps.Add(*leaves)
		}
		riseArr, riseP := rise.normal()
		fallArr, fallP := fall.normal()
		st.P[logic.Rise] = riseP
		st.P[logic.Fall] = fallP
		st.Arr[ssta.DirRise] = shift(riseArr)
		st.Arr[ssta.DirFall] = shift(fallArr)
		return nil
	}
	return fmt.Errorf("core: unsupported gate %v", n.Type)
}

// subsetMoments enumerates non-empty switching subsets (direction
// dir, the rest pinned at ncVal) and accumulates the Clark-combined
// subset arrival moments into acc. max selects MAX (true) or MIN
// combination. leaves, when non-nil, counts enumerated subset leaves
// for the obs histogram. Fanins are visited in netlist order: Clark
// matching is order-sensitive, so the order is part of the result.
func subsetMoments(res *MomentResult, fanin []netlist.NodeID, ncVal, dir logic.Value, max bool, acc *mixAccum, leaves *int64) {
	var rec func(i int, weight float64, cur dist.Normal, has bool)
	rec = func(i int, weight float64, cur dist.Normal, has bool) {
		if weight == 0 {
			return
		}
		if i == len(fanin) {
			if leaves != nil {
				*leaves++
			}
			if has {
				acc.add(weight, cur)
			}
			return
		}
		in := &res.State[fanin[i]]
		// Input holds the non-controlling constant.
		rec(i+1, weight*in.P[ncVal], cur, has)
		// Input switches toward dir.
		p := in.P[dir]
		if p > 0 {
			arr := in.Arr[dirOf(dir)]
			next := arr
			if has {
				if max {
					next = dist.MaxNormal(cur, arr, 0)
				} else {
					next = dist.MinNormal(cur, arr, 0)
				}
			}
			rec(i+1, weight*p, next, true)
		}
	}
	rec(0, 1, dist.Normal{}, false)
}

// Probability returns P(net id has value v).
func (r *MomentResult) Probability(id netlist.NodeID, v logic.Value) float64 {
	return r.State[id].P[v]
}

// Arrival returns the conditional arrival normal and occurrence
// probability of direction d at net id.
func (r *MomentResult) Arrival(id netlist.NodeID, d ssta.Dir) (dist.Normal, float64) {
	v := logic.Rise
	if d == ssta.DirFall {
		v = logic.Fall
	}
	return r.State[id].Arr[d], r.State[id].P[v]
}
