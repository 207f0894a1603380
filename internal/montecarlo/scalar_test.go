package montecarlo

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// The reference engine: the package's original one-run-at-a-time
// walk, kept as the oracle the packed engine is tested against.
// simulate(c, in, cfg, simulateScalar) runs it through the same
// validation, sharding and merge as Simulate, and it draws from the
// same per-run streams, so every statistic must match bit for bit.

// simulateScalar is the one-run-at-a-time engine: per run, per node
// in topological order, draw or evaluate the four-value output and
// settle the transition time.
func simulateScalar(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats, cfg *Config, moments []bool, seed int64, res *Result, start, runs int) {
	var endpoints []netlist.NodeID
	if cfg.CountCriticality {
		endpoints = c.Endpoints()
	}

	vals := make([]logic.Value, len(c.Nodes))
	times := make([]float64, len(c.Nodes))
	inVals := make([]logic.Value, 0, 8)
	inTimes := make([]float64, 0, 8)
	order := c.TopoOrder()
	defaultStats := logic.UniformStats()
	src := &runSource{}
	rng := newRunRNG(src)
	// One cost unit per node visit: runs × topo-order length, counted
	// up front — the walk is unconditional, so the product is exact and
	// shard-invariant (each shard contributes its own runs).
	if m := cfg.Obs.M(); m != nil {
		m.CostMCOps.Add(int64(runs) * int64(len(order)))
	}

	for run := 0; run < runs; run++ {
		src.state = runState(seed, start+run)
		for _, id := range order {
			n := c.Nodes[id]
			switch {
			case n.Type == logic.Const0:
				vals[id], times[id] = logic.Zero, 0
			case n.Type == logic.Const1:
				vals[id], times[id] = logic.One, 0
			case !n.Type.Combinational():
				st, ok := inputs[id]
				if !ok {
					st = defaultStats
				}
				vals[id], times[id] = st.Sample(rng)
			default:
				inVals = inVals[:0]
				inTimes = inTimes[:0]
				for _, f := range n.Fanin {
					inVals = append(inVals, vals[f])
					inTimes = append(inTimes, times[f])
				}
				out, op := n.Type.SettleOp(inVals)
				vals[id] = out
				if cfg.CountGlitches {
					_, _, gl, _ := n.Type.SettleTime(inVals, inTimes)
					res.Stats[id].Glitches += int64(gl)
				}
				if out.Switching() {
					t := settle(op, inVals, inTimes)
					dn := cfg.Delay(n)
					if cfg.MIS != nil {
						k := 0
						for _, v := range inVals {
							if v.Switching() {
								k++
							}
						}
						dn = cfg.MIS(n, k)
					}
					d := dn.Mu
					if dn.Sigma > 0 {
						d += dn.Sigma * rng.NormFloat64()
					}
					times[id] = t + d
				} else {
					times[id] = 0
				}
			}
			s := &res.Stats[id]
			s.Count[vals[id]]++
			if moments[id] {
				switch vals[id] {
				case logic.Rise:
					s.Rise.Add(times[id])
				case logic.Fall:
					s.Fall.Add(times[id])
				}
			}
			for i, pt := range cfg.ProbeTimes {
				if oneAt(vals[id], times[id], pt) {
					s.OneAt[i]++
				}
			}
		}
		if cfg.CountCriticality {
			last := netlist.InvalidNode
			lastT := 0.0
			for _, ep := range endpoints {
				if !vals[ep].Switching() {
					continue
				}
				if last == netlist.InvalidNode || times[ep] > lastT {
					last, lastT = ep, times[ep]
				}
			}
			if last != netlist.InvalidNode {
				res.Stats[last].Critical++
			}
		}
	}
}

// settle combines the switching inputs' arrival times with op.
func settle(op logic.Op, vals []logic.Value, times []float64) float64 {
	first := true
	acc := 0.0
	for i, v := range vals {
		if !v.Switching() {
			continue
		}
		t := times[i]
		if first {
			acc, first = t, false
			continue
		}
		if op == logic.OpMin && t < acc {
			acc = t
		}
		if op == logic.OpMax && t > acc {
			acc = t
		}
	}
	return acc
}
