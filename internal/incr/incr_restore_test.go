package incr

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// fullRun analyzes s's circuit from scratch under a variational
// session's base configuration (N(1, sigma²) gate delays, Scenario I
// launch statistics, error budget eps) with the given overrides.
func fullRun(t *testing.T, s *SPSTA, sigma, eps float64, delay map[netlist.NodeID]dist.Normal, launch map[netlist.NodeID]logic.InputStats) *core.Result {
	t.Helper()
	in := experiments.Inputs(s.Circuit(), experiments.ScenarioI)
	for id, st := range launch {
		in[id] = st
	}
	a := core.Analyzer{ErrorBudget: eps, Delay: func(n *netlist.Node) dist.Normal {
		if d, ok := delay[n.ID]; ok {
			return d
		}
		return dist.Normal{Mu: 1, Sigma: sigma}
	}}
	res, err := a.Run(s.Circuit(), in)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireSameState fails unless every net of got equals want bit for
// bit: probabilities, pruned mass, budget and every t.o.p. bin.
func requireSameState(t *testing.T, got, want *core.Result, what string) {
	t.Helper()
	for id := range want.State {
		a, b := &got.State[id], &want.State[id]
		if a.P != b.P || a.PrunedMass != b.PrunedMass || a.Budget != b.Budget || !sameTOPs(a, b) {
			t.Fatalf("%s: net %s differs from a full run", what, got.C.Nodes[id].Name)
		}
	}
}

// TestSPSTARestoreMatchesFullRun: a revert of the session's latest
// edit copies the pre-edit state back instead of re-timing the cone,
// so it must recompute nothing and still land bit for bit on a full
// run with the remaining overrides. It replays the 512-step
// single-edit sequence on s1196 (each edit reverted before the next),
// then a launch-point what-if on top of a held gate override.
func TestSPSTARestoreMatchesFullRun(t *testing.T) {
	const sigma, eps = 0.2, 1e-4
	s, gates := variationalSession(t, "s1196", sigma, eps)
	base := fullRun(t, s, sigma, eps, nil, nil)
	for i, e := range singleEdits(gates) {
		if _, err := s.SetDelay(e.gate, e.d); err != nil {
			t.Fatal(err)
		}
		n, err := s.ClearDelay(e.gate)
		if err != nil || n != 0 {
			t.Fatalf("edit %d: revert recomputed %d nets (err %v), want a restore", i, n, err)
		}
		requireSameState(t, s.Result(), base, "after a gate revert")
	}

	g := gates[0]
	d := dist.Normal{Mu: 2.5, Sigma: 0.2}
	launch := s.Circuit().LaunchPoints()[0]
	st := logic.SkewedStats()
	st.Mu = 0.5
	if _, err := s.SetDelay(g, d); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetInput(launch, st); err != nil {
		t.Fatal(err)
	}
	if n, err := s.ClearInput(launch); err != nil || n != 0 {
		t.Fatalf("launch revert recomputed %d nets (err %v), want a restore", n, err)
	}
	requireSameState(t, s.Result(), fullRun(t, s, sigma, eps, map[netlist.NodeID]dist.Normal{g: d}, nil),
		"after a launch revert")
}

// TestSPSTARestoreInvalidated: the snapshot describes the session
// only until another call re-times it. Reverting after an edit to
// another net, after re-editing the same gate, or after an edit whose
// update failed must take the recomputing path, and still match a
// full run.
func TestSPSTARestoreInvalidated(t *testing.T) {
	const sigma, eps = 0.2, 1e-4
	c := gen(t, "s344")
	g, h := pickGate(c), netlist.NodeID(-1)
	xor := netlist.NodeID(-1)
	for _, n := range c.Nodes {
		if n.Type.Combinational() && n.ID != g && h < 0 {
			h = n.ID
		}
		if n.Type.Parity() && xor < 0 {
			xor = n.ID
		}
	}
	if h < 0 || xor < 0 {
		t.Fatal("s344 lacks a second gate or a parity gate")
	}
	launch := c.LaunchPoints()[0]
	st := logic.SkewedStats()
	d1, d2 := dist.Normal{Mu: 2.5, Sigma: 0.2}, dist.Normal{Mu: 0.7, Sigma: 0.1}

	for _, tc := range []struct {
		name string
		gate netlist.NodeID
		// edits runs a first SetDelay of gate and whatever follows it
		// before gate's revert, returning the overrides still active
		// after that revert.
		edits func(t *testing.T, s *SPSTA) (map[netlist.NodeID]dist.Normal, map[netlist.NodeID]logic.InputStats)
	}{
		{"other gate set", g, func(t *testing.T, s *SPSTA) (map[netlist.NodeID]dist.Normal, map[netlist.NodeID]logic.InputStats) {
			mustEdit(t)(s.SetDelay(g, d1))
			mustEdit(t)(s.SetDelay(h, d2))
			return map[netlist.NodeID]dist.Normal{h: d2}, nil
		}},
		{"launch set", g, func(t *testing.T, s *SPSTA) (map[netlist.NodeID]dist.Normal, map[netlist.NodeID]logic.InputStats) {
			mustEdit(t)(s.SetDelay(g, d1))
			mustEdit(t)(s.SetInput(launch, st))
			return nil, map[netlist.NodeID]logic.InputStats{launch: st}
		}},
		{"re-edit", g, func(t *testing.T, s *SPSTA) (map[netlist.NodeID]dist.Normal, map[netlist.NodeID]logic.InputStats) {
			mustEdit(t)(s.SetDelay(g, d1))
			mustEdit(t)(s.SetDelay(g, d2))
			return nil, nil
		}},
		{"update error", xor, func(t *testing.T, s *SPSTA) (map[netlist.NodeID]dist.Normal, map[netlist.NodeID]logic.InputStats) {
			s.a.MaxParityFanin = 1
			if _, err := s.SetDelay(xor, d1); err == nil {
				t.Fatal("update past the parity cap did not fail")
			}
			s.a.MaxParityFanin = 0
			return nil, nil
		}},
		{"update panic", g, func(t *testing.T, s *SPSTA) (map[netlist.NodeID]dist.Normal, map[netlist.NodeID]logic.InputStats) {
			grid := s.Result().Grid
			s.Result().Grid = dist.NewGrid(0, 1, 0.5)
			p := func() (p any) {
				defer func() { p = recover() }()
				s.SetDelay(g, d1)
				return nil
			}()
			if p == nil {
				t.Fatal("update on a poisoned grid did not panic")
			}
			s.Result().Grid = grid
			return nil, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := variationalSession(t, "s344", sigma, eps)
			delay, in := tc.edits(t, s)
			n, err := s.ClearDelay(tc.gate)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("revert restored a stale snapshot, want a recomputation")
			}
			requireSameState(t, s.Result(), fullRun(t, s, sigma, eps, delay, in), tc.name)
		})
	}
}

// mustEdit fails t when an edit returns an error.
func mustEdit(t *testing.T) func(int, error) {
	return func(_ int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSPSTARestoreKeepsHydratedStorage: a what-if session that
// reverts each edit before the next must not build a second copy of
// its state. After the single-edit sequence on s1196, a launch
// what-if and a final revert to base, every net must point at the
// very t.o.p. functions it held right after hydration.
func TestSPSTARestoreKeepsHydratedStorage(t *testing.T) {
	s, gates := variationalSession(t, "s1196", 0.2, 1e-4)
	hydrated := make([][2]*dist.PMF, len(s.Result().State))
	for id, st := range s.Result().State {
		hydrated[id] = st.TOP
	}
	prev := netlist.NodeID(-1)
	for _, e := range singleEdits(gates) {
		if _, _, err := e.apply(s, prev); err != nil {
			t.Fatal(err)
		}
		prev = e.gate
	}
	mustEdit(t)(s.ClearDelay(prev))
	launch := s.Circuit().LaunchPoints()[0]
	mustEdit(t)(s.SetInput(launch, logic.SkewedStats()))
	mustEdit(t)(s.ClearInput(launch))
	for id, st := range s.Result().State {
		if st.TOP != hydrated[id] {
			t.Fatalf("net %s holds t.o.p. storage allocated after hydration", s.Circuit().Nodes[id].Name)
		}
	}
}
