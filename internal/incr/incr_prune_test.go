package incr

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/ssta"
)

// TestSPSTAIncrementalPrunedMatchesFull: with a nonzero error budget
// the incremental engine must land on the same state as a pruned full
// re-run with the same ε after a sequence of SetDelay/SetInput
// changes, bit for bit. Budgets are per gate and re-derived from the
// configuration on every recomputation, so the incremental path cannot
// double-spend ε no matter how many times a cone is recomputed. The
// sequence runs over two base delay models: unit delays, and N(1, 0.6²)
// delays, whose kernels lose the most bins to tail folding (161 → 84
// on the default grid), so every recomputed net convolves with the
// folded kernels Run cached.
//
// Cone updates run on the level scheduler, so the sequence is also
// replayed at Workers 2 and 4 (4 dispatches the launch change's
// widest cone level to the pool, even on one processor): every row
// must recompute the same nets and end bit-identical to the serial
// run and to the full re-run. The poisoned row swaps the result's grid
// for one of a different geometry first, so the cone's first net
// panics; the panic must reach this goroutine as a recoverable panic
// instead of killing the process.
func TestSPSTAIncrementalPrunedMatchesFull(t *testing.T) {
	for _, base := range []struct {
		name  string
		delay ssta.DelayModel
	}{
		{"unit", ssta.UnitDelay},
		{"sigma0.6", func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.6} }},
	} {
		t.Run(base.name, func(t *testing.T) { prunedMatchesFull(t, base.delay) })
	}
}

func prunedMatchesFull(t *testing.T, baseDelay ssta.DelayModel) {
	const eps = 1e-4
	c := gen(t, "s344")
	in := experiments.Inputs(c, experiments.ScenarioI)

	// A launch change followed by a delay change, with the delay
	// change applied twice (the second recomputation of the same cone
	// must not spend any further budget).
	launch := c.LaunchPoints()[1]
	st := logic.SkewedStats()
	g := pickGate(c)
	d := dist.Normal{Mu: 2.5, Sigma: 0.2}
	session := func(workers int) *SPSTA {
		inc, err := NewSPSTA(core.Analyzer{ErrorBudget: eps, Workers: workers, Delay: baseDelay}, c, in)
		if err != nil {
			t.Fatal(err)
		}
		return inc
	}
	edit := func(inc *SPSTA) (evals [3]int) {
		var err error
		if evals[0], err = inc.SetInput(launch, st); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 3; i++ {
			if evals[i], err = inc.SetDelay(g, d); err != nil {
				t.Fatal(err)
			}
		}
		return evals
	}

	in2 := experiments.Inputs(c, experiments.ScenarioI)
	in2[launch] = st
	full := core.Analyzer{Workers: 1, ErrorBudget: eps, Delay: func(n *netlist.Node) dist.Normal {
		if n.ID == g {
			return d
		}
		return baseDelay(n)
	}}
	want, err := full.Run(c, in2)
	if err != nil {
		t.Fatal(err)
	}

	inc := session(1)
	evals := edit(inc)
	for _, tc := range []struct {
		workers int
		poison  bool
	}{{1, false}, {2, false}, {4, false}, {4, true}} {
		got := inc
		if tc.workers != 1 {
			got = session(tc.workers)
		}
		if tc.poison {
			got.Result().Grid = dist.NewGrid(0, 1, 0.5)
			p := func() (p any) {
				defer func() { p = recover() }()
				edit(got)
				return nil
			}()
			if p == nil {
				t.Errorf("workers=%d: update on a poisoned grid did not panic", tc.workers)
			}
			continue
		}
		if got != inc {
			if gotEvals := edit(got); gotEvals != evals {
				t.Errorf("workers=%d: recomputed %v nets, serial %v", tc.workers, gotEvals, evals)
			}
		}
		requireSameState(t, got.Result(), inc.Result(), fmt.Sprintf("workers=%d, against the serial session", tc.workers))
		requireSameState(t, got.Result(), want, fmt.Sprintf("workers=%d, against a pruned full run", tc.workers))
	}

	// The pruned incremental result stays within the certified budget
	// of an exact incremental-equivalent full run.
	exact := core.Analyzer{Delay: full.Delay}
	ref, err := exact.Run(c, in2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		budget := inc.Result().ConsumedBudget(n.ID)
		for v := logic.Zero; v < logic.NumValues; v++ {
			diff := math.Abs(inc.Result().Probability(n.ID, v) - ref.Probability(n.ID, v))
			if diff > budget+1e-9 {
				t.Fatalf("%s P[%v]: deviation %v exceeds consumed budget %v", n.Name, v, diff, budget)
			}
		}
	}
}

// sameTOPs reports whether two states' t.o.p. functions are equal bin
// for bin.
func sameTOPs(a, b *core.NetState) bool {
	for d := range a.TOP {
		if (a.TOP[d] == nil) != (b.TOP[d] == nil) {
			return false
		}
		for i := 0; a.TOP[d] != nil && i < a.TOP[d].Grid().N; i++ {
			if a.TOP[d].W(i) != b.TOP[d].W(i) {
				return false
			}
		}
	}
	return true
}
