// Package incr implements incremental re-analysis: Section 1 notes
// that block-based (S)STA is "efficient, incremental, and suitable
// for optimization", and an optimizer changing one gate must not pay
// for a full-circuit pass. Both the SSTA baseline and SPSTA are
// wrapped: after a delay or launch-statistics change, only the
// affected fanout cone is recomputed, level by level, stopping as
// soon as propagated values stop changing.
package incr

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ssta"
)

// levelQueue is a min-heap of nodes ordered by logic level, the
// standard worklist for incremental timing: a node is processed only
// after every fanin that might still change.
type levelQueue struct {
	c     *netlist.Circuit
	items []netlist.NodeID
	in    map[netlist.NodeID]bool
}

func newLevelQueue(c *netlist.Circuit) *levelQueue {
	return &levelQueue{c: c, in: make(map[netlist.NodeID]bool)}
}

func (q *levelQueue) Len() int { return len(q.items) }
func (q *levelQueue) Less(i, j int) bool {
	li, lj := q.c.Nodes[q.items[i]].Level, q.c.Nodes[q.items[j]].Level
	if li != lj {
		return li < lj
	}
	return q.items[i] < q.items[j]
}
func (q *levelQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *levelQueue) Push(x any)    { q.items = append(q.items, x.(netlist.NodeID)) }
func (q *levelQueue) Pop() any {
	x := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	return x
}

func (q *levelQueue) add(id netlist.NodeID) {
	if !q.in[id] {
		q.in[id] = true
		heap.Push(q, id)
	}
}

func (q *levelQueue) take() (netlist.NodeID, bool) {
	if q.Len() == 0 {
		return 0, false
	}
	id := heap.Pop(q).(netlist.NodeID)
	q.in[id] = false
	return id, true
}

// SSTA is an incrementally-updatable SSTA analysis.
type SSTA struct {
	c      *netlist.Circuit
	inputs map[netlist.NodeID]logic.InputStats
	baseIn map[netlist.NodeID]logic.InputStats
	base   ssta.DelayModel
	over   map[netlist.NodeID]dist.Normal
	res    *ssta.Result
	// Eps is the change threshold below which propagation stops
	// (default exact: 0).
	Eps float64
}

// NewSSTA runs the initial full analysis. base defaults to unit
// delays when nil.
func NewSSTA(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats, base ssta.DelayModel) *SSTA {
	if base == nil {
		base = ssta.UnitDelay
	}
	s := &SSTA{
		c:      c,
		inputs: cloneStats(inputs),
		baseIn: cloneStats(inputs),
		base:   base,
		over:   make(map[netlist.NodeID]dist.Normal),
	}
	s.res = ssta.Analyze(c, s.inputs, s.delay)
	return s
}

func cloneStats(in map[netlist.NodeID]logic.InputStats) map[netlist.NodeID]logic.InputStats {
	out := make(map[netlist.NodeID]logic.InputStats, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func (s *SSTA) delay(n *netlist.Node) dist.Normal {
	if d, ok := s.over[n.ID]; ok {
		return d
	}
	return s.base(n)
}

// Result returns the current (always-consistent) analysis.
func (s *SSTA) Result() *ssta.Result { return s.res }

// At returns the current arrival of direction d at net id.
func (s *SSTA) At(id netlist.NodeID, d ssta.Dir) dist.Normal { return s.res.At(id, d) }

// SetDelay overrides one gate's delay and propagates the change
// through its fanout cone. It returns the number of node
// recomputations performed.
func (s *SSTA) SetDelay(id netlist.NodeID, d dist.Normal) int {
	s.over[id] = d
	return s.update(id)
}

// SetInput replaces one launch point's statistics and propagates.
func (s *SSTA) SetInput(id netlist.NodeID, st logic.InputStats) int {
	s.inputs[id] = st
	return s.update(id)
}

// ClearDelay removes a delay override, restoring the base model for
// the gate and propagating through its fanout cone. A no-op (zero
// recomputations) when the gate has no override.
func (s *SSTA) ClearDelay(id netlist.NodeID) int {
	if _, ok := s.over[id]; !ok {
		return 0
	}
	delete(s.over, id)
	return s.update(id)
}

// ClearInput restores one launch point's original statistics (the
// map NewSSTA was given) and propagates.
func (s *SSTA) ClearInput(id netlist.NodeID) int {
	if st, ok := s.baseIn[id]; ok {
		s.inputs[id] = st
	} else {
		delete(s.inputs, id)
	}
	return s.update(id)
}

func (s *SSTA) update(seed netlist.NodeID) int {
	q := newLevelQueue(s.c)
	q.add(seed)
	evals := 0
	for {
		id, ok := q.take()
		if !ok {
			return evals
		}
		evals++
		r, f := ssta.ComputeNode(s.res, id, s.inputs, s.delay)
		if normalsClose(r, s.res.Arrival[ssta.DirRise][id], s.Eps) &&
			normalsClose(f, s.res.Arrival[ssta.DirFall][id], s.Eps) {
			continue
		}
		s.res.Arrival[ssta.DirRise][id] = r
		s.res.Arrival[ssta.DirFall][id] = f
		for _, out := range s.c.Nodes[id].Fanout {
			if s.c.Nodes[out].Type.Combinational() {
				q.add(out)
			}
		}
	}
}

func normalsClose(a, b dist.Normal, eps float64) bool {
	return math.Abs(a.Mu-b.Mu) <= eps && math.Abs(a.Sigma-b.Sigma) <= eps
}

// SPSTA is an incrementally-updatable SPSTA analysis.
type SPSTA struct {
	a      core.Analyzer
	c      *netlist.Circuit
	inputs map[netlist.NodeID]logic.InputStats
	baseIn map[netlist.NodeID]logic.InputStats
	base   ssta.DelayModel
	over   map[netlist.NodeID]dist.Normal
	res    *core.Result
	// Eps is the L1 threshold on probabilities and t.o.p. change
	// below which propagation stops. The default 1e-12 keeps
	// results bit-comparable to a full re-run while still cutting
	// off numerically-identical cones.
	Eps float64
}

// NewSPSTA runs the initial full analysis with the given analyzer
// configuration. The whole-circuit ExactProbabilities correction is
// incompatible with cone-local updates and is rejected.
func NewSPSTA(a core.Analyzer, c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats) (*SPSTA, error) {
	if a.ExactProbabilities {
		return nil, fmt.Errorf("incr: ExactProbabilities is a whole-circuit correction; run core.Analyzer directly")
	}
	s := &SPSTA{a: a, c: c, inputs: cloneStats(inputs), baseIn: cloneStats(inputs), Eps: 1e-12}
	s.base = a.Delay
	if s.base == nil {
		s.base = ssta.UnitDelay
	}
	s.over = make(map[netlist.NodeID]dist.Normal)
	s.a.Delay = func(n *netlist.Node) dist.Normal {
		if d, ok := s.over[n.ID]; ok {
			return d
		}
		return s.base(n)
	}
	res, err := s.a.Run(c, s.inputs)
	if err != nil {
		return nil, err
	}
	s.res = res
	return s, nil
}

// SetDelay overrides one gate's delay and propagates through its
// fanout cone, returning the number of node recomputations.
func (s *SPSTA) SetDelay(id netlist.NodeID, d dist.Normal) (int, error) {
	old, had := s.over[id]
	s.over[id] = d
	n, err := s.update(id)
	if had && old != d {
		s.retire(old)
	}
	return n, err
}

// retire drops the cached kernel of a delay that just went out of use
// as an override, unless another active override still uses it.
// Without this, a long-lived session editing gates to ever-new delays
// keeps one full-grid kernel per distinct delay. Should d also be a
// base-model delay, the next gate that needs it re-discretizes it,
// with the same bins.
func (s *SPSTA) retire(d dist.Normal) {
	for _, o := range s.over {
		if o == d {
			return
		}
	}
	s.res.Kernels().Forget(d)
}

// Result returns the current analysis.
func (s *SPSTA) Result() *core.Result { return s.res }

// SetInput replaces one launch point's statistics and propagates
// through its fanout cone, returning the number of node
// recomputations.
func (s *SPSTA) SetInput(id netlist.NodeID, st logic.InputStats) (int, error) {
	if err := st.Validate(); err != nil {
		return 0, err
	}
	s.inputs[id] = st
	return s.update(id)
}

// ClearDelay removes a delay override, restoring the base model for
// the gate and propagating through its fanout cone. A no-op (zero
// recomputations) when the gate has no override.
func (s *SPSTA) ClearDelay(id netlist.NodeID) (int, error) {
	old, ok := s.over[id]
	if !ok {
		return 0, nil
	}
	delete(s.over, id)
	n, err := s.update(id)
	s.retire(old)
	return n, err
}

// ClearInput restores one launch point's original statistics (the
// map NewSPSTA was given) and propagates.
func (s *SPSTA) ClearInput(id netlist.NodeID) (int, error) {
	if st, ok := s.baseIn[id]; ok {
		s.inputs[id] = st
	} else {
		delete(s.inputs, id)
	}
	return s.update(id)
}

// Circuit returns the analyzed circuit.
func (s *SPSTA) Circuit() *netlist.Circuit { return s.c }

// SetObs re-attaches the session to an observability scope: later
// SetDelay/SetInput/Clear* recomputations record their metrics (cost
// units, kernel counters) and spans into the given scope instead of
// the one the session was built with. This is what lets a service
// hold one long-lived session and still attribute each delta
// request's work to that request's scope. nil detaches.
func (s *SPSTA) SetObs(scope *obs.Scope) {
	s.a.Obs = scope
	// ComputeNode reads the metrics handle off the result's grid (the
	// dist kernels have no config struct), so the re-attachment must
	// rewrite it there too.
	s.res.Grid = s.res.Grid.WithMetrics(scope.M())
}

func (s *SPSTA) update(seed netlist.NodeID) (int, error) {
	q := newLevelQueue(s.c)
	q.add(seed)
	evals := 0
	for {
		id, ok := q.take()
		if !ok {
			return evals, nil
		}
		evals++
		prev := s.res.State[id]
		if err := s.a.ComputeNode(s.res, id, s.inputs); err != nil {
			return evals, err
		}
		if stateClose(&prev, &s.res.State[id], s.Eps) {
			// Restore the exact previous state to keep untouched
			// cones bit-identical.
			s.res.State[id] = prev
			continue
		}
		for _, out := range s.c.Nodes[id].Fanout {
			if s.c.Nodes[out].Type.Combinational() {
				q.add(out)
			}
		}
	}
}

func stateClose(a, b *core.NetState, eps float64) bool {
	for v := range a.P {
		if math.Abs(a.P[v]-b.P[v]) > eps {
			return false
		}
	}
	// The pruning certificate is part of the state: a stale consumed
	// budget could under-report the certified deviation of a cone
	// whose fanins re-spent their budgets differently, so budget
	// changes propagate like value changes.
	if math.Abs(a.PrunedMass-b.PrunedMass) > eps || math.Abs(a.Budget-b.Budget) > eps {
		return false
	}
	for d := range a.TOP {
		pa, pb := a.TOP[d], b.TOP[d]
		if (pa == nil) != (pb == nil) {
			return false
		}
		if pa == nil {
			continue
		}
		for i := 0; i < pa.Grid().N; i++ {
			if math.Abs(pa.W(i)-pb.W(i)) > eps {
				return false
			}
		}
	}
	return true
}
