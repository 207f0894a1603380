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
// The two share their edit bookkeeping (the overrides in effect, the
// undo snapshot's rule and Apply) and differ only in the full run,
// the cone update and what the snapshot holds.
package incr

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ssta"
)

// ErrRejected marks an edit a session refused before changing
// anything: invalid launch statistics, or launch statistics whose
// full analysis runs on another grid than the SPSTA session's.
var ErrRejected = errors.New("incr: edit rejected")

// engine is what the two incremental analyses do differently.
type engine interface {
	// update re-times seed's fanout cone after its delay or launch
	// statistics changed and returns the nets recomputed.
	update(seed netlist.NodeID) (int, error)
	// save snapshots the per-net state; restore copies it back.
	save()
	restore()
	// forget drops what the engine caches for a delay no override
	// uses any more.
	forget(d dist.Normal)
	// check rejects launch statistics whose full analysis the engine
	// cannot reach by re-timing cones.
	check(inputs map[netlist.NodeID]logic.InputStats) error
}

// session is the edit bookkeeping both engines embed: the launch
// statistics and gate-delay overrides in effect over the base the
// session was built with.
//
// An optimizer's what-if loop edits one net and reverts it before
// trying the next, so a session keeps one undo snapshot: the state
// saved just before the latest edit that moved a net off its base
// delay or launch statistics. Reverting exactly that edit, with no
// other call in between, copies the snapshot back instead of
// re-timing the cone.
type session struct {
	eng    engine
	c      *netlist.Circuit
	inputs map[netlist.NodeID]logic.InputStats
	baseIn map[netlist.NodeID]logic.InputStats
	base   ssta.DelayModel
	over   map[netlist.NodeID]dist.Normal

	undoFor edit
	undoOK  bool
}

// edit names what a call changed: net id's delay override or, when
// input is set, its launch statistics.
type edit struct {
	id    netlist.NodeID
	input bool
}

func newSession(eng engine, c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats, base ssta.DelayModel) session {
	if base == nil {
		base = ssta.UnitDelay
	}
	return session{eng: eng, c: c, inputs: cloneStats(inputs), baseIn: cloneStats(inputs), base: base,
		over: make(map[netlist.NodeID]dist.Normal)}
}

func cloneStats(in map[netlist.NodeID]logic.InputStats) map[netlist.NodeID]logic.InputStats {
	out := make(map[netlist.NodeID]logic.InputStats, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// delay is the delay model in effect: the overrides over the base.
func (s *session) delay(n *netlist.Node) dist.Normal {
	if d, ok := s.over[n.ID]; ok {
		return d
	}
	return s.base(n)
}

// Circuit returns the analyzed circuit.
func (s *session) Circuit() *netlist.Circuit { return s.c }

// SetDelay overrides one gate's delay and propagates through its
// fanout cone, returning the number of node recomputations.
func (s *session) SetDelay(id netlist.NodeID, d dist.Normal) (int, error) {
	old, had := s.over[id]
	s.over[id] = d
	n, err := s.retime(edit{id: id}, !had)
	if had && old != d {
		s.retire(old)
	}
	return n, err
}

// ClearDelay removes a delay override, restoring the base model for
// the gate and propagating through its fanout cone. A no-op (zero
// recomputations) when the gate has no override; zero recomputations
// too when it reverts the session's latest edit, whose pre-edit state
// is copied back.
func (s *session) ClearDelay(id netlist.NodeID) (int, error) {
	old, ok := s.over[id]
	if !ok {
		return 0, nil
	}
	delete(s.over, id)
	n, err := s.revert(edit{id: id})
	s.retire(old)
	return n, err
}

// SetInput replaces one launch point's statistics and propagates
// through its fanout cone, returning the number of node
// recomputations. Statistics that are invalid, or that an SPSTA
// session cannot re-time on its grid, are rejected (ErrRejected)
// before anything changes.
func (s *session) SetInput(id netlist.NodeID, st logic.InputStats) (int, error) {
	if err := s.admit(s.inputs, map[netlist.NodeID]logic.InputStats{id: st}); err != nil {
		return 0, err
	}
	return s.setInput(id, st)
}

func (s *session) setInput(id netlist.NodeID, st logic.InputStats) (int, error) {
	fromBase := !s.inputEdited(id)
	s.inputs[id] = st
	return s.retime(edit{id: id, input: true}, fromBase)
}

// ClearInput restores one launch point's original statistics (the
// map the session was built with) and propagates, or copies the
// pre-edit state back when this reverts the session's latest edit. A
// no-op when the launch point already has them.
func (s *session) ClearInput(id netlist.NodeID) (int, error) {
	if !s.inputEdited(id) {
		return 0, nil
	}
	if st, ok := s.baseIn[id]; ok {
		s.inputs[id] = st
	} else {
		delete(s.inputs, id)
	}
	return s.revert(edit{id: id, input: true})
}

// inputEdited reports whether launch point id's statistics differ
// from the ones the session was built with.
func (s *session) inputEdited(id netlist.NodeID) bool {
	cur, ok := s.inputs[id]
	base, baseOK := s.baseIn[id]
	return ok != baseOK || cur != base
}

// Apply drives the session to exactly the given overrides: delay
// maps gates to their delays, input maps launch points to their
// statistics, and every override in effect that they do not name is
// cleared. An override already in effect is skipped. Clears run
// before sets, in a fixed order: sets walk delays then launch points,
// each in ascending net id, and clears walk the exact reverse. So a
// what-if call that drops the previous call's edits clears that
// call's last edit first, while it is still the session's latest
// edit, which copies the snapshot back instead of re-timing the cone,
// and the node count is the same on every run. The launch edits are
// checked before any edit is applied: a rejected set (ErrRejected)
// leaves the session unchanged. Apply returns the total node
// recomputations.
func (s *session) Apply(delay map[netlist.NodeID]dist.Normal, input map[netlist.NodeID]logic.InputStats) (int, error) {
	if err := s.admit(s.baseIn, input); err != nil {
		return 0, err
	}
	total := 0
	step := func(n int, err error) error {
		total += n
		return err
	}
	clearIn, clearOver := sortedIDs(s.inputs), sortedIDs(s.over)
	slices.Reverse(clearIn)
	slices.Reverse(clearOver)
	for _, id := range clearIn {
		if _, ok := input[id]; !ok {
			if err := step(s.ClearInput(id)); err != nil {
				return total, err
			}
		}
	}
	for _, id := range clearOver {
		if _, ok := delay[id]; !ok {
			if err := step(s.ClearDelay(id)); err != nil {
				return total, err
			}
		}
	}
	for _, id := range sortedIDs(delay) {
		if cur, ok := s.over[id]; !ok || cur != delay[id] {
			if err := step(s.SetDelay(id, delay[id])); err != nil {
				return total, err
			}
		}
	}
	for _, id := range sortedIDs(input) {
		if cur, ok := s.inputs[id]; !ok || cur != input[id] {
			if err := step(s.setInput(id, input[id])); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// sortedIDs returns m's keys in ascending net id order.
func sortedIDs[V any](m map[netlist.NodeID]V) []netlist.NodeID {
	ids := make([]netlist.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// admit checks launch edits before any is applied: each must be
// valid, and the engine must accept the launch statistics they lead
// to, those of from with edited laid over them.
func (s *session) admit(from, edited map[netlist.NodeID]logic.InputStats) error {
	next := cloneStats(from)
	for id, st := range edited {
		if err := st.Validate(); err != nil {
			return fmt.Errorf("%w: launch %s: %v", ErrRejected, s.c.Nodes[id].Name, err)
		}
		next[id] = st
	}
	return s.eng.check(next)
}

// retime re-times the session after e and returns the nets
// recomputed. fromBase says e moved its net off the base value; only
// then is the pre-edit state saved, and it becomes usable only once
// the update succeeds.
func (s *session) retime(e edit, fromBase bool) (int, error) {
	s.undoOK = false
	if fromBase {
		s.eng.save()
	}
	n, err := s.eng.update(e.id)
	s.undoOK = fromBase && err == nil
	s.undoFor = e
	return n, err
}

// revert re-times the session after e's net went back to its base
// value. When e undoes the edit the snapshot was saved for, the saved
// state is copied back and nothing is recomputed; otherwise the
// change propagates through the net's cone.
func (s *session) revert(e edit) (int, error) {
	restore := s.undoOK && s.undoFor == e
	s.undoOK = false
	if restore {
		s.eng.restore()
		return 0, nil
	}
	return s.eng.update(e.id)
}

// retire tells the engine a delay just went out of use as an
// override, unless another active override still uses it.
func (s *session) retire(d dist.Normal) {
	for _, o := range s.over {
		if o == d {
			return
		}
	}
	s.eng.forget(d)
}

// SSTA is an incrementally-updatable SSTA analysis. Its undo
// snapshot is the two arrival arrays.
type SSTA struct {
	session
	res  *ssta.Result
	undo [2][]dist.Normal
}

// NewSSTA runs the initial full analysis. base defaults to unit
// delays when nil.
func NewSSTA(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats, base ssta.DelayModel) *SSTA {
	s := &SSTA{}
	s.session = newSession(s, c, inputs, base)
	s.res = ssta.Analyze(c, s.inputs, s.delay)
	return s
}

// Result returns the current (always-consistent) analysis.
func (s *SSTA) Result() *ssta.Result { return s.res }

// At returns the current arrival of direction d at net id.
func (s *SSTA) At(id netlist.NodeID, d ssta.Dir) dist.Normal { return s.res.At(id, d) }

func (s *SSTA) update(seed netlist.NodeID) (int, error) {
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
	return evals, nil
}

func (s *SSTA) save() {
	for d := range s.undo {
		s.undo[d] = append(s.undo[d][:0], s.res.Arrival[d]...)
	}
}

func (s *SSTA) restore() {
	for d := range s.undo {
		copy(s.res.Arrival[d], s.undo[d])
	}
}

func (s *SSTA) forget(dist.Normal) {}

func (s *SSTA) check(map[netlist.NodeID]logic.InputStats) error { return nil }

// SPSTA is an incrementally-updatable SPSTA analysis. Its undo
// snapshot copies the per-net values, not the t.o.p. functions they
// point to, so a restored session shares its t.o.p. storage with the
// pre-edit state again.
type SPSTA struct {
	session
	a    core.Analyzer
	res  *core.Result
	undo []core.NetState
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
	s := &SPSTA{a: a}
	s.session = newSession(s, c, inputs, a.Delay)
	s.a.Delay = s.delay
	res, err := s.a.Run(c, s.inputs)
	if err != nil {
		return nil, err
	}
	s.res = res
	return s, nil
}

// Result returns the current analysis.
func (s *SPSTA) Result() *core.Result { return s.res }

func (s *SPSTA) update(seed netlist.NodeID) (int, error) { return s.a.Update(s.res, s.inputs, seed) }

func (s *SPSTA) save() { s.undo = append(s.undo[:0], s.res.State...) }

func (s *SPSTA) restore() { copy(s.res.State, s.undo) }

// forget drops the cached kernel of a retired override delay.
// Without this, a long-lived session editing gates to ever-new delays
// keeps one full-grid kernel per distinct delay. Should d also be a
// base-model delay, the next gate that needs it re-discretizes it,
// with the same bins.
func (s *SPSTA) forget(d dist.Normal) { s.res.Kernels().Forget(d) }

// check rejects launch statistics that move the analysis grid: a full
// analysis sizes its grid by the widest launch sigma
// (core.Analyzer.GridFor), while the session keeps the grid it was
// built on, so its result would no longer match.
func (s *SPSTA) check(inputs map[netlist.NodeID]logic.InputStats) error {
	if s.a.GridFor(s.c, inputs) == s.a.GridFor(s.c, s.baseIn) {
		return nil
	}
	return fmt.Errorf("%w: the widest launch sigma must stay %g, the value this session's analysis grid is sized for (a full analysis would re-grid for %g)",
		ErrRejected, core.LaunchSigma(s.baseIn), core.LaunchSigma(inputs))
}

// SetObs re-attaches the session to an observability scope: later
// edits record all of their metrics (cost units, kernel-cache
// lookups, convolutions) and level spans into the given scope and
// none into the one the session was built with: every kernel charges
// the registry of the Update that calls it, not a registry stored
// with the session's t.o.p. functions or kernel cache. This is what
// lets a service hold one long-lived session and still attribute each
// delta request's work to that request's scope. nil detaches.
func (s *SPSTA) SetObs(scope *obs.Scope) { s.a.Obs = scope }
