package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// ksNested returns the Kolmogorov distance sup_x |A(x) − B(x)| between
// the cumulative masses of two t.o.p. functions on nested grids (a
// grid and its ×2ᵏ coarsenings: same left edge, bin widths whole
// multiples of the finer one), each bin's mass sitting at its center.
func ksNested(t *testing.T, a, b *dist.PMF) float64 {
	t.Helper()
	ga, gb := a.Grid(), b.Grid()
	fine := math.Min(ga.Dt, gb.Dt)
	fa, fb := int(math.Round(ga.Dt/fine)), int(math.Round(gb.Dt/fine))
	if ga.Lo != gb.Lo || float64(fa)*fine != ga.Dt || float64(fb)*fine != gb.Dt {
		t.Fatalf("grids (lo %g, dt %g) and (lo %g, dt %g) are not nested", ga.Lo, ga.Dt, gb.Lo, gb.Dt)
	}
	// Bin i of a grid f fine bins wide has its center at (2i+1)·f
	// half-fine-bins from Lo; walking both center sequences in order
	// visits every step of either CDF.
	i, ahi := a.Support()
	j, bhi := b.Support()
	var ca, cb, sup float64
	for i < ahi || j < bhi {
		pa, pb := math.MaxInt, math.MaxInt
		if i < ahi {
			pa = (2*i + 1) * fa
		}
		if j < bhi {
			pb = (2*j + 1) * fb
		}
		p := min(pa, pb)
		if pa == p {
			ca += a.W(i)
			i++
		}
		if pb == p {
			cb += b.W(j)
			j++
		}
		sup = math.Max(sup, math.Abs(ca-cb))
	}
	return sup
}

// TestFoldedKernelCertificate is the certificate oracle for the cells
// delay-kernel tail folding moves: every built-in profile × scenario
// (I, II) × coarsen (off, auto) at ε=1e-4 under N(1, 0.2²) delays, the
// ε=1e-4 σ=0.2 cells of golden_top.txt. At every net, both t.o.p.
// functions must lie within the net's Budget of the exact run's (ε=0,
// coarsening off) in Kolmogorov distance, the four-value probabilities
// within Budget of the exact ones, and the local spend within ε. The
// runs use GOMAXPROCS level workers, so make check's -cpu 1,2 pass
// runs the oracle on the serial and the pooled schedule.
func TestFoldedKernelCertificate(t *testing.T) {
	const eps, slack = 1e-4, 1e-9
	for _, p := range synth.Profiles() {
		c, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, scen := range []struct {
			name string
			in   map[netlist.NodeID]logic.InputStats
		}{{"I", uniform(c)}, {"II", skewed(c)}} {
			exact, err := (&Analyzer{Delay: varDelay}).Run(c, scen.in)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []CoarsenMode{CoarsenOff, CoarsenAuto} {
				a := Analyzer{Delay: varDelay, ErrorBudget: eps, Coarsen: CoarsenPolicy{Mode: mode}}
				res, err := a.Run(c, scen.in)
				if err != nil {
					t.Fatal(err)
				}
				cell := p.Name + " " + scen.name + " coarsen=" + mode.String()
				for _, n := range c.Nodes {
					st, ex := &res.State[n.ID], &exact.State[n.ID]
					if st.PrunedMass > eps+slack {
						t.Fatalf("%s %s: local spend %g exceeds ε", cell, n.Name, st.PrunedMass)
					}
					for v := range st.P {
						if d := math.Abs(st.P[v] - ex.P[v]); d > st.Budget+slack {
							t.Fatalf("%s %s: P[%d] deviates %g > Budget %g", cell, n.Name, v, d, st.Budget)
						}
					}
					for d := range st.TOP {
						if ks := ksNested(t, st.TOP[d], ex.TOP[d]); ks > st.Budget+slack {
							t.Fatalf("%s %s: t.o.p.[%d] Kolmogorov distance %g > Budget %g", cell, n.Name, d, ks, st.Budget)
						}
					}
				}
			}
		}
	}
}

// TestFoldedKernelChargedNotDeducted pins the accounting of one
// folded convolution on a buffer: the displaced mass δ·m of each
// direction (δ the kernel's folded share at ε/8, m the launch t.o.p.'s
// mass) is charged to PrunedMass and Budget but not taken out of the
// probabilities, which lose only the truncated tails, and the stored
// t.o.p. keeps the mass its probability reports.
func TestFoldedKernelChargedNotDeducted(t *testing.T) {
	const eps = 1e-3
	c := parse(t, "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n", "buf")
	d := dist.Normal{Mu: 1, Sigma: 0.6}
	a := Analyzer{Workers: 1, Delay: func(*netlist.Node) dist.Normal { return d }, ErrorBudget: eps}
	res, err := a.Run(c, uniform(c))
	if err != nil {
		t.Fatal(err)
	}
	_, share := dist.NewKernelCache().FromNormal(nil, res.Grid, d, eps*kernelTailShare)
	if share <= 0 {
		t.Fatalf("the σ=0.6 kernel folded nothing at tail %g", eps*kernelTailShare)
	}
	an, _ := c.Node("a")
	yn, _ := c.Node("y")
	in, st := &res.State[an.ID], &res.State[yn.ID]
	moved := 0.0
	deducted := 0.0
	for dir, v := range [2]logic.Value{logic.Rise, logic.Fall} {
		moved += share * in.TOP[dir].Mass()
		deducted += in.P[v] - st.P[v]
		if m := st.TOP[dir].Mass(); math.Abs(m-st.P[v]) > 1e-12 {
			t.Errorf("t.o.p.[%d] holds %g, its probability says %g", dir, m, st.P[v])
		}
	}
	if got := st.PrunedMass - deducted; math.Abs(got-moved) > 1e-15 {
		t.Errorf("spend beyond the probability deduction is %g, want the displaced mass %g", got, moved)
	}
	if want := st.PrunedMass + in.Budget; st.Budget != want {
		t.Errorf("Budget %g, want local spend + fanin Budget = %g", st.Budget, want)
	}
	if st.PrunedMass > eps {
		t.Errorf("local spend %g exceeds ε", st.PrunedMass)
	}
}
