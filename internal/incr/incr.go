// Package incr implements incremental re-analysis: Section 1 notes
// that block-based (S)STA is "efficient, incremental, and suitable
// for optimization", and an optimizer changing one gate must not pay
// for a full-circuit pass. Both the SSTA baseline and SPSTA are
// wrapped: after a delay or launch-statistics change, only the
// affected fanout cone is recomputed, level by level, and a net is
// recomputed only when it is the edited one or one of its fanins
// changed, so propagation stops exactly where values stop changing.
// SPSTA cones run on the analyzer's own level scheduler
// (core.Analyzer.Update); SSTA walks the same level buckets serially.
package incr

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ssta"
)

// SSTA is an incrementally-updatable SSTA analysis.
type SSTA struct {
	c      *netlist.Circuit
	inputs map[netlist.NodeID]logic.InputStats
	baseIn map[netlist.NodeID]logic.InputStats
	base   ssta.DelayModel
	over   map[netlist.NodeID]dist.Normal
	res    *ssta.Result
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
	c := s.c
	levels := make([][]netlist.NodeID, c.Depth()+1)
	levels[c.Nodes[seed].Level] = []netlist.NodeID{seed}
	queued := make([]bool, len(c.Nodes))
	evals := 0
	// A fanout sits on a later level than its fanin, so the walk
	// reaches every bucket after the last append to it.
	for _, level := range levels {
		for _, id := range level {
			evals++
			r, f := ssta.ComputeNode(s.res, id, s.inputs, s.delay)
			if r == s.res.Arrival[ssta.DirRise][id] && f == s.res.Arrival[ssta.DirFall][id] {
				continue
			}
			s.res.Arrival[ssta.DirRise][id] = r
			s.res.Arrival[ssta.DirFall][id] = f
			for _, out := range c.Nodes[id].Fanout {
				if o := c.Nodes[out]; o.Type.Combinational() && !queued[out] {
					queued[out] = true
					levels[o.Level] = append(levels[o.Level], out)
				}
			}
		}
	}
	return evals
}

// SPSTA is an incrementally-updatable SPSTA analysis.
//
// An optimizer's what-if loop edits one net and reverts it before
// trying the next, so the session keeps one undo snapshot: the state
// saved just before the latest edit that moved a net off its base
// delay or launch statistics. Reverting exactly that edit, with no
// other call in between, copies the snapshot back instead of
// re-timing the cone. The snapshot copies the per-net values, not
// the t.o.p. functions they point to, so a restored session shares
// its t.o.p. storage with the pre-edit state again.
type SPSTA struct {
	a      core.Analyzer
	c      *netlist.Circuit
	inputs map[netlist.NodeID]logic.InputStats
	baseIn map[netlist.NodeID]logic.InputStats
	base   ssta.DelayModel
	over   map[netlist.NodeID]dist.Normal
	res    *core.Result

	undo    []core.NetState
	undoFor edit
	undoOK  bool
}

// edit names what a call changed: net id's delay override or, when
// input is set, its launch statistics.
type edit struct {
	id    netlist.NodeID
	input bool
}

// NewSPSTA runs the initial full analysis with the given analyzer
// configuration. Two whole-circuit steps cannot be replayed on a
// cone and are rejected: the ExactProbabilities correction, and grid
// coarsening, whose re-binning deviation a cone recomputed on the
// final coarse grid would never add.
func NewSPSTA(a core.Analyzer, c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats) (*SPSTA, error) {
	if a.ExactProbabilities {
		return nil, fmt.Errorf("incr: ExactProbabilities is a whole-circuit correction; run core.Analyzer directly")
	}
	if a.Coarsen.Mode != core.CoarsenOff {
		return nil, fmt.Errorf("incr: grid coarsening re-bins at full-run level boundaries; run core.Analyzer directly")
	}
	s := &SPSTA{a: a, c: c, inputs: cloneStats(inputs), baseIn: cloneStats(inputs)}
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
	n, err := s.apply(edit{id: id}, !had)
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

// apply re-times the session after e and returns the nets
// recomputed. fromBase says e moved its net off the base value; only
// then is the pre-edit state saved, and it becomes usable only once
// the update succeeds.
func (s *SPSTA) apply(e edit, fromBase bool) (int, error) {
	s.undoOK = false
	if fromBase {
		s.undo = append(s.undo[:0], s.res.State...)
	}
	n, err := s.a.Update(s.res, s.inputs, e.id)
	s.undoOK = fromBase && err == nil
	s.undoFor = e
	return n, err
}

// revert re-times the session after e's net went back to its base
// value. When e undoes the edit the snapshot was saved for, the saved
// state is copied back and nothing is recomputed; otherwise the
// change propagates through the net's cone.
func (s *SPSTA) revert(e edit) (int, error) {
	restore := s.undoOK && s.undoFor == e
	s.undoOK = false
	if restore {
		copy(s.res.State, s.undo)
		return 0, nil
	}
	return s.a.Update(s.res, s.inputs, e.id)
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
	cur, ok := s.inputs[id]
	base, baseOK := s.baseIn[id]
	s.inputs[id] = st
	return s.apply(edit{id: id, input: true}, ok == baseOK && cur == base)
}

// ClearDelay removes a delay override, restoring the base model for
// the gate and propagating through its fanout cone. A no-op (zero
// recomputations) when the gate has no override; zero recomputations
// too when it reverts the session's latest edit, whose pre-edit state
// is copied back.
func (s *SPSTA) ClearDelay(id netlist.NodeID) (int, error) {
	old, ok := s.over[id]
	if !ok {
		return 0, nil
	}
	delete(s.over, id)
	n, err := s.revert(edit{id: id})
	s.retire(old)
	return n, err
}

// ClearInput restores one launch point's original statistics (the
// map NewSPSTA was given) and propagates, or copies the pre-edit
// state back when this reverts the session's latest edit.
func (s *SPSTA) ClearInput(id netlist.NodeID) (int, error) {
	if st, ok := s.baseIn[id]; ok {
		s.inputs[id] = st
	} else {
		delete(s.inputs, id)
	}
	return s.revert(edit{id: id, input: true})
}

// Circuit returns the analyzed circuit.
func (s *SPSTA) Circuit() *netlist.Circuit { return s.c }

// SetObs re-attaches the session to an observability scope: later
// SetDelay/SetInput/Clear* recomputations record all of their metrics
// (cost units, kernel-cache lookups, convolutions) and level spans
// into the given scope and none into the one the session was built
// with: every kernel charges the registry of the Update that calls it,
// not a registry stored with the session's t.o.p. functions or kernel
// cache. This is what lets a service hold one long-lived session and
// still attribute each delta request's work to that request's scope.
// nil detaches.
func (s *SPSTA) SetObs(scope *obs.Scope) { s.a.Obs = scope }
