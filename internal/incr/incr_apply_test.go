package incr

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/ssta"
)

// overrideDelay layers gate-delay overrides on N(1, sigma²) base
// delays (unit delays at sigma 0), as a session built with that base
// model sees them.
func overrideDelay(sigma float64, over map[netlist.NodeID]dist.Normal) ssta.DelayModel {
	return func(n *netlist.Node) dist.Normal {
		if d, ok := over[n.ID]; ok {
			return d
		}
		return dist.Normal{Mu: 1, Sigma: sigma}
	}
}

// withInputs returns base with the launch overrides laid over it.
func withInputs(base, over map[netlist.NodeID]logic.InputStats) map[netlist.NodeID]logic.InputStats {
	in := cloneStats(base)
	for id, st := range over {
		in[id] = st
	}
	return in
}

// requireSameArrivals fails unless every arrival of got equals want
// bit for bit.
func requireSameArrivals(t *testing.T, got, want *ssta.Result, what string) {
	t.Helper()
	for d := range want.Arrival {
		for id, w := range want.Arrival[d] {
			if g := got.Arrival[d][id]; g != w {
				t.Fatalf("%s: net %s direction %d is %v, a full run %v", what, got.C.Nodes[id].Name, d, g, w)
			}
		}
	}
}

// TestSSTARestoreMatchesFullRun: the ssta engine keeps the same undo
// snapshot as SPSTA. A revert of the session's latest edit, gate or
// launch, recomputes nothing and lands bit for bit on a full run with
// the remaining overrides.
func TestSSTARestoreMatchesFullRun(t *testing.T) {
	c := gen(t, "s1196")
	in := experiments.Inputs(c, experiments.ScenarioI)
	base := overrideDelay(0.2, nil)
	s := NewSSTA(c, in, base)
	want := ssta.Analyze(c, in, base)
	var gates []netlist.NodeID
	for _, n := range c.Nodes {
		if n.Type.Combinational() {
			gates = append(gates, n.ID)
		}
	}
	for i, e := range singleEdits(gates)[:64] {
		if n, err := s.SetDelay(e.gate, e.d); err != nil || n == 0 {
			t.Fatalf("edit %d: set recomputed %d nets (err %v)", i, n, err)
		}
		n, err := s.ClearDelay(e.gate)
		if err != nil || n != 0 {
			t.Fatalf("edit %d: revert recomputed %d nets (err %v), want a restore", i, n, err)
		}
		requireSameArrivals(t, s.Result(), want, "after a gate revert")
	}

	g, d := gates[0], dist.Normal{Mu: 2.5, Sigma: 0.2}
	launch := c.LaunchPoints()[0]
	st := logic.SkewedStats()
	st.Mu = 0.5
	mustEdit(t)(s.SetDelay(g, d))
	mustEdit(t)(s.SetInput(launch, st))
	if n, err := s.ClearInput(launch); err != nil || n != 0 {
		t.Fatalf("launch revert recomputed %d nets (err %v), want a restore", n, err)
	}
	requireSameArrivals(t, s.Result(), ssta.Analyze(c, in, overrideDelay(0.2, map[netlist.NodeID]dist.Normal{g: d})),
		"after a launch revert")
}

// TestApplySkipsEditsInEffect: Apply re-times only what differs from
// the overrides in effect. Re-sending the same set recomputes nothing,
// and so does an input edit equal to the statistics the launch point
// already has; dropping the set's single new edit restores the
// snapshot.
func TestApplySkipsEditsInEffect(t *testing.T) {
	s, gates := variationalSession(t, "s344", 0.2, 1e-4)
	launch := s.Circuit().LaunchPoints()[0]
	st := logic.SkewedStats()
	st.Mu = 0.5
	delay := map[netlist.NodeID]dist.Normal{gates[0]: {Mu: 2, Sigma: 0.1}}
	input := map[netlist.NodeID]logic.InputStats{launch: st}
	if n, err := s.Apply(delay, input); err != nil || n == 0 {
		t.Fatalf("first Apply recomputed %d nets (err %v)", n, err)
	}
	if n, err := s.Apply(delay, input); err != nil || n != 0 {
		t.Fatalf("repeated Apply recomputed %d nets (err %v), want 0", n, err)
	}
	other := s.Circuit().LaunchPoints()[1]
	unchanged := map[netlist.NodeID]logic.InputStats{launch: st, other: s.inputs[other]}
	if n, err := s.Apply(delay, unchanged); err != nil || n != 0 {
		t.Fatalf("an input edit equal to the launch's statistics recomputed %d nets (err %v), want 0", n, err)
	}
	delay[gates[1]] = dist.Normal{Mu: 0.7, Sigma: 0.05}
	mustEdit(t)(s.Apply(delay, input))
	delete(delay, gates[1])
	if n, err := s.Apply(delay, input); err != nil || n != 0 {
		t.Fatalf("dropping the latest edit recomputed %d nets (err %v), want a restore", n, err)
	}
	requireSameState(t, s.Result(), fullRun(t, s, 0.2, 1e-4, delay, input), "after the what-if")
}

// TestApplyOrderIsDeterministic: Apply walks its edits in net id
// order, not Go's map order, so applying a two-gate set to a fresh
// session and reverting it recomputes the same nets on every trial
// (the revert clears the set's last edit first, which restores the
// snapshot), and the reverted session lands on a full run.
func TestApplyOrderIsDeterministic(t *testing.T) {
	const sigma, eps = 0.2, 1e-4
	type counts struct{ apply, revert int }
	var first counts
	for trial := 0; trial < 40; trial++ {
		s, gates := variationalSession(t, "s344", sigma, eps)
		delay := map[netlist.NodeID]dist.Normal{
			gates[0]:            {Mu: 2, Sigma: 0.1},
			gates[len(gates)/2]: {Mu: 0.7, Sigma: 0.05},
		}
		var got counts
		var err error
		if got.apply, err = s.Apply(delay, nil); err != nil {
			t.Fatal(err)
		}
		if got.revert, err = s.Apply(nil, nil); err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = got
		} else if got != first {
			t.Fatalf("trial %d recomputed %+v nets, trial 0 %+v", trial, got, first)
		}
		requireSameState(t, s.Result(), fullRun(t, s, sigma, eps, nil, nil), "after the revert")
	}
}

// TestApplyRejectsGridMove: a launch sigma above 1 widens the grid a
// full analysis would run on, so Apply rejects the whole set, the gate
// edit beside it included, and the session is left as it was; an
// invalid launch edit is rejected the same way.
func TestApplyRejectsGridMove(t *testing.T) {
	s, gates := variationalSession(t, "s344", 0.2, 0)
	launch := s.Circuit().LaunchPoints()[0]
	want := fullRun(t, s, 0.2, 0, nil, nil)
	wide := s.inputs[launch]
	wide.Sigma = 2
	bad := s.inputs[launch]
	bad.P[0] = 2
	delay := map[netlist.NodeID]dist.Normal{gates[0]: {Mu: 2, Sigma: 0.1}}
	for _, st := range []logic.InputStats{wide, bad} {
		n, err := s.Apply(delay, map[netlist.NodeID]logic.InputStats{launch: st})
		if !errors.Is(err, ErrRejected) || n != 0 {
			t.Fatalf("sigma %g, p %v: Apply returned %d, %v; want a rejection", st.Sigma, st.P, n, err)
		}
		requireSameState(t, s.Result(), want, "after a rejected set")
		if len(s.over) != 0 || s.inputEdited(launch) {
			t.Fatal("a rejected set left overrides in effect")
		}
	}
	if _, err := s.SetInput(launch, wide); !errors.Is(err, ErrRejected) {
		t.Fatalf("SetInput of sigma 2: %v, want a rejection", err)
	}
	wide.Sigma = 1
	mustEdit(t)(s.Apply(delay, map[netlist.NodeID]logic.InputStats{launch: wide}))
	requireSameState(t, s.Result(), fullRun(t, s, 0.2, 0, delay, map[netlist.NodeID]logic.InputStats{launch: wide}),
		"after sigma 1, which keeps the grid")
}

// fuzzBytes reads a fuzz input one byte at a time, as zeros once it
// runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzApplyMatchesFullRun is the differential oracle for Apply: the
// input picks an engine (spsta or ssta), ε ∈ {0, 1e-4}, a base gate
// sigma ∈ {0, 0.2} and up to four override sets on s208 (gate delays,
// and launch statistics with sigma up to 3). After each Apply every
// net must equal a fresh full analysis with the same overrides bit
// for bit, or the set was rejected, which an spsta session must do
// exactly when the full analysis would run on another grid, and the
// session is unchanged. A set that only drops the previous set's
// single edit, applied from the base, must recompute nothing.
//
// Layout: byte 0 holds the engine (bit 0), ε (bit 1) and sigma
// (bit 2); byte 1 the set count less one (mod 4); each set starts
// with its edit count (mod 4), and each edit is a kind byte (odd for
// a launch edit), a target index, mu and sigma bytes and, for a
// launch edit, a probability-vector byte.
func FuzzApplyMatchesFullRun(f *testing.F) {
	c := gen(f, "s208")
	var gates []netlist.NodeID
	for _, n := range c.Nodes {
		if n.Type.Combinational() {
			gates = append(gates, n.ID)
		}
	}
	launches := c.LaunchPoints()
	baseIn := experiments.Inputs(c, experiments.ScenarioI)
	probs := [][logic.NumValues]float64{logic.UniformStats().P, logic.SkewedStats().P, {0.5, 0.5, 0, 0}}

	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		head := in.next()
		useSSTA, eps, sigma := head&1 == 1, []float64{0, 1e-4}[head>>1&1], []float64{0, 0.2}[head>>2&1]
		var (
			sp    *SPSTA
			ss    *SSTA
			apply func(map[netlist.NodeID]dist.Normal, map[netlist.NodeID]logic.InputStats) (int, error)
		)
		if useSSTA {
			ss = NewSSTA(c, baseIn, overrideDelay(sigma, nil))
			apply = ss.Apply
		} else {
			var err error
			if sp, err = NewSPSTA(core.Analyzer{ErrorBudget: eps, Delay: overrideDelay(sigma, nil)}, c, baseIn); err != nil {
				t.Fatal(err)
			}
			apply = sp.Apply
		}
		// sameGrid reports whether a full run with these launch
		// overrides runs on the session's grid; the ssta engine has none.
		sameGrid := func(input map[netlist.NodeID]logic.InputStats) bool {
			return useSSTA || (&core.Analyzer{}).GridFor(c, withInputs(baseIn, input)) == sp.Result().Grid
		}
		// matches compares every net of the session with a full run of
		// the given overrides.
		matches := func(o overrideSet, what string) {
			next := withInputs(baseIn, o.input)
			if useSSTA {
				requireSameArrivals(t, ss.Result(), ssta.Analyze(c, next, overrideDelay(sigma, o.delay)), what)
				return
			}
			want, err := (&core.Analyzer{ErrorBudget: eps, Delay: overrideDelay(sigma, o.delay)}).Run(c, next)
			if err != nil {
				t.Fatal(err)
			}
			requireSameState(t, sp.Result(), want, what)
		}

		var prev, prevPrev overrideSet
		for set, sets := 0, 1+in.next()%4; set < sets; set++ {
			o := overrideSet{map[netlist.NodeID]dist.Normal{}, map[netlist.NodeID]logic.InputStats{}}
			for e, edits := 0, in.next()%4; e < edits; e++ {
				if in.next()&1 == 0 {
					g := gates[in.next()%len(gates)]
					o.delay[g] = dist.Normal{Mu: float64(in.next()) / 64, Sigma: float64(in.next()%64) / 128}
					continue
				}
				l := launches[in.next()%len(launches)]
				st := baseIn[l]
				st.Mu, st.Sigma = float64(in.next())/128, float64(in.next())/85
				if k := in.next() % 4; k < len(probs) {
					st.P = probs[k]
				}
				o.input[l] = st
			}
			n, err := apply(o.delay, o.input)
			if errors.Is(err, ErrRejected) {
				if sameGrid(o.input) {
					t.Fatalf("set %d: rejected a set whose full run keeps the session's grid: %v", set, err)
				}
				matches(prev, "after a rejected set")
				continue
			}
			if err != nil {
				t.Fatalf("set %d: %v", set, err)
			}
			if !sameGrid(o.input) {
				t.Fatalf("set %d: accepted a set whose full run uses another grid", set)
			}
			matches(o, "after Apply")
			if o.size() == 0 && prev.size() == 1 && prev.fromBase(prevPrev) && n != 0 {
				t.Fatalf("set %d: dropping the previous set's single edit recomputed %d nets, want a restore", set, n)
			}
			prevPrev, prev = prev, o
		}
	})
}

// overrideSet is one Apply's gate-delay and launch overrides.
type overrideSet struct {
	delay map[netlist.NodeID]dist.Normal
	input map[netlist.NodeID]logic.InputStats
}

func (o overrideSet) size() int { return len(o.delay) + len(o.input) }

// fromBase reports whether every edit of o names a net that before
// left at its base value.
func (o overrideSet) fromBase(before overrideSet) bool {
	for id := range o.delay {
		if _, ok := before.delay[id]; ok {
			return false
		}
	}
	for id := range o.input {
		if _, ok := before.input[id]; ok {
			return false
		}
	}
	return true
}
