package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestMixtureMatchesSubsetEnumeration: the O(k·n) product-form
// mixtures equal the literal O(2^k) subset enumeration of Eq. 11.
func TestMixtureMatchesSubsetEnumeration(t *testing.T) {
	g := NewGrid(-3, 3, 0.25)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(4)
		in := make([]SwitchInput, k)
		for i := range in {
			p := randomPMF(g, rng)
			stay := rng.Float64() * (1 - p.Mass())
			in[i] = SwitchInput{Stay: stay, TOP: p}
		}
		for _, max := range []bool{true, false} {
			fast := Mixture(g, in, max)
			ref := SubsetMixture(nil, g, in, max)
			for i := 0; i < g.N; i++ {
				if math.Abs(fast.W(i)-ref.W(i)) > 1e-9 {
					t.Fatalf("trial %d max=%v bin %d: fast %v vs ref %v",
						trial, max, i, fast.W(i), ref.W(i))
				}
			}
		}
	}
}

// TestMixtureTotalMass: total output mass equals
// Π(Stay_i + mass_i) − Π Stay_i, the paper's Eq. 10 form.
func TestMixtureTotalMass(t *testing.T) {
	g := NewGrid(-3, 3, 0.25)
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		k := 1 + rng.Intn(5)
		in := make([]SwitchInput, k)
		all, none := 1.0, 1.0
		for i := range in {
			p := randomPMF(g, rng)
			stay := rng.Float64() * (1 - p.Mass())
			in[i] = SwitchInput{Stay: stay, TOP: p}
			all *= stay + p.Mass()
			none *= stay
		}
		want := all - none
		return math.Abs(MaxMixture(g, in).Mass()-want) < 1e-9 &&
			math.Abs(MinMixture(g, in).Mass()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMixtureSingleInput: with one input the mixture is just its
// t.o.p., regardless of max/min.
func TestMixtureSingleInput(t *testing.T) {
	g := NewGrid(-3, 3, 0.25)
	rng := rand.New(rand.NewSource(7))
	p := randomPMF(g, rng)
	in := []SwitchInput{{Stay: 0.3, TOP: p}}
	for _, max := range []bool{true, false} {
		out := Mixture(g, in, max)
		for i := 0; i < g.N; i++ {
			if math.Abs(out.W(i)-p.W(i)) > 1e-12 {
				t.Fatalf("max=%v bin %d: %v vs %v", max, i, out.W(i), p.W(i))
			}
		}
	}
}

// TestMixturePaperFig4Setup reproduces the Figure 4 configuration:
// a 2-input AND with both inputs at 0.9 probability of being/ending
// one, arrival times same mean but sigma 1 vs 2. The WEIGHTED SUM
// result stays symmetric (zero skew) while the plain MAX does not.
func TestMixturePaperFig4Setup(t *testing.T) {
	g := NewGrid(-10, 10, 1.0/16)
	// Decompose 0.9 "signal probability" as 0.8 constant one + 0.1
	// rising for each input.
	a := FromNormal(g, Normal{0, 1}).Scale(0.1)
	b := FromNormal(g, Normal{0, 2}).Scale(0.1)
	in := []SwitchInput{{Stay: 0.8, TOP: a}, {Stay: 0.8, TOP: b}}
	ws := MaxMixture(g, in)
	// Near-symmetry: the only asymmetric contribution is the
	// both-switching subset at weight 0.1·0.1, so the mean shift
	// stays an order of magnitude below the plain MAX's and the
	// skew is small.
	approx(t, "weighted-sum mean", ws.Mean(), 0, 0.1)
	if skew := pmfSkew(ws); math.Abs(skew) > 0.15 {
		t.Errorf("weighted-sum skewness = %v, want ~0", skew)
	}
	// The pure Eq. 8 two-value weighted sum (no multi-switch MAX
	// term) is exactly symmetric: zero mean, zero skew.
	pure := NewPMF(g)
	pure.AccumWeighted(a, 0.9).AccumWeighted(b, 0.9)
	approx(t, "pure weighted-sum mean", pure.Mean(), 0, 1e-9)
	if skew := pmfSkew(pure); math.Abs(skew) > 1e-9 {
		t.Errorf("pure weighted-sum skewness = %v, want 0", skew)
	}
	// Plain MAX of the two normalized arrivals is right-skewed with
	// a positive mean.
	mx := MaxPMF(a.Clone().Scale(10), b.Clone().Scale(10))
	if mx.Mean() < 0.4 {
		t.Errorf("MAX mean = %v, want clearly positive", mx.Mean())
	}
	if pmfSkew(mx) < 0.1 {
		t.Errorf("MAX skewness = %v, want clearly positive", pmfSkew(mx))
	}
}

// TestMixtureEmptyAndZeroMass: degenerate inputs.
func TestMixtureDegenerate(t *testing.T) {
	g := NewGrid(0, 1, 0.25)
	if m := MaxMixture(g, nil).Mass(); m != 0 {
		t.Errorf("empty mixture mass = %v", m)
	}
	in := []SwitchInput{{Stay: 1, TOP: NewPMF(g)}}
	if m := MaxMixture(g, in).Mass(); m != 0 {
		t.Errorf("never-switching mixture mass = %v", m)
	}
	if m := MinMixture(g, in).Mass(); m != 0 {
		t.Errorf("never-switching min mixture mass = %v", m)
	}
}

// TestMixtureTwoDeltas: hand-computed two-input example with point
// masses. Input 1 switches at t=1 w.p. 0.5, stays w.p. 0.5; input 2
// switches at t=2 w.p. 0.4, stays w.p. 0.6.
func TestMixtureTwoDeltas(t *testing.T) {
	g := NewGrid(0, 4, 1)
	d1 := Delta(g, 1).Scale(0.5)
	d2 := Delta(g, 2).Scale(0.4)
	in := []SwitchInput{{Stay: 0.5, TOP: d1}, {Stay: 0.6, TOP: d2}}
	mx := MaxMixture(g, in)
	// subsets: {1}: 0.5·0.6 @1; {2}: 0.5·0.4 @2; {1,2}: 0.5·0.4 @max=2.
	approx(t, "max @1", mx.W(1), 0.30, 1e-12)
	approx(t, "max @2", mx.W(2), 0.20+0.20, 1e-12)
	mn := MinMixture(g, in)
	// {1}: 0.30 @1; {2}: 0.20 @2; {1,2}: 0.20 @min=1.
	approx(t, "min @1", mn.W(1), 0.50, 1e-12)
	approx(t, "min @2", mn.W(2), 0.20, 1e-12)
}

func pmfSkew(p *PMF) float64 {
	mass := p.Mass()
	if mass == 0 {
		return 0
	}
	mu := p.Mean()
	s := p.Sigma()
	if s == 0 {
		return 0
	}
	m3 := 0.0
	for i := 0; i < p.Grid().N; i++ {
		d := p.Grid().X(i) - mu
		m3 += p.W(i) * d * d * d
	}
	return m3 / mass / (s * s * s)
}

// TestMixtureKernelRegimes pins the fused mixture kernel to the
// bin-by-bin recurrence (refMixture), bit for bit in every bin, in the
// support bounds and in the cached mass, for k = 1…9 inputs (so one,
// two and three groups of lanes) and both ops. Input windows are laid
// out disjoint, nested, sharing an edge, one bin wide or empty, with
// Stay 0 among the stays, over union widths from 1 to 700 bins (past
// the segment length laneBins). Inputs carry interior zero bins, and
// disjoint windows leave gaps, so neighbouring products are often
// equal and the difference must be +0, not −0. The tallies at the end
// fail the test if a regime went unexercised.
func TestMixtureKernelRegimes(t *testing.T) {
	g := TimingGrid(40, 0, 1) // 896 bins
	rng := rand.New(rand.NewSource(20261019))
	slab := NewSlab(1024)
	type window struct{ a, b int }
	widths := []int{1, 2, 16, 128, laneBins, laneBins + 1, 700}
	tally := map[string]int{}
	for draw := 0; draw < 2000; draw++ {
		k := 1 + draw%9
		// Union width: log-uniform in [1, 700], or one of the edges.
		w := int(math.Exp(rng.Float64() * math.Log(700)))
		if draw%5 == 0 {
			w = widths[rng.Intn(len(widths))]
		}
		w = min(max(w, 1), 700)
		base := rng.Intn(g.N - w + 1)
		wins := make([]window, k)
		for i := range wins {
			a := rng.Intn(w)
			win := window{a, a + 1 + rng.Intn(w-a)}
			if i > 0 {
				p := wins[i-1]
				switch rng.Intn(7) {
				case 0: // nested in the previous window
					if p.a < p.b {
						a := p.a + rng.Intn(p.b-p.a)
						win = window{a, a + 1 + rng.Intn(p.b-a)}
					}
				case 1: // starts where the previous one ends
					if p.b < w {
						win = window{p.b, p.b + 1 + rng.Intn(w-p.b)}
					}
				case 2: // same start as the previous one
					if p.a < p.b {
						win = window{p.a, p.a + 1 + rng.Intn(w-p.a)}
					}
				case 3: // one bin
					win = window{a, a + 1}
				case 4: // empty
					win = window{}
				}
			}
			wins[i] = win
		}
		in := make([]SwitchInput, k)
		for i, win := range wins {
			top := NewPMF(g)
			if win.a < win.b {
				top = bandPMF(g, rng, base+win.a, base+win.b)
				if win.b-win.a > 2 && rng.Intn(3) == 0 {
					// A run of interior zeros.
					z := win.a + 1 + rng.Intn(win.b-win.a-2)
					for j := z; j < min(z+1+rng.Intn(8), win.b-1); j++ {
						top.SetBin(base+j, 0)
					}
				}
				top.Scale(rng.Float64() / top.Mass())
			}
			if draw%2 == 0 {
				top = slab.Store(top)
			}
			stay := float64(rng.Intn(4)) * 0.25 * (1 - top.Mass())
			in[i] = SwitchInput{Stay: stay, TOP: top}
			if stay == 0 {
				tally["stay 0"]++
			}
		}
		for i, x := range wins {
			if x.a == x.b {
				tally["empty window"]++
				continue
			}
			if x.b-x.a == 1 {
				tally["one-bin window"]++
			}
			for _, y := range wins[i+1:] {
				switch {
				case y.a == y.b:
				case x.b < y.a || y.b < x.a:
					tally["disjoint windows"]++
				case x.b == y.a || y.b == x.a || x.a == y.a || x.b == y.b:
					tally["windows sharing an edge"]++
				case (x.a < y.a && y.b < x.b) || (y.a < x.a && x.b < y.b):
					tally["nested windows"]++
				}
			}
		}
		lo, hi := mixtureSupport(g, in)
		tally[widthRegime(hi-lo)]++
		for _, max := range []bool{true, false} {
			want := refMixture(g, in, max)
			got := mixtureInto(nil, NewPMF(g), in, max)
			for i := 0; i < g.N; i++ {
				if math.Float64bits(got.W(i)) != math.Float64bits(want.W(i)) {
					t.Fatalf("draw %d k=%d max=%v: bin %d = %v (%#x), bin-by-bin %v (%#x)",
						draw, k, max, i, got.W(i), math.Float64bits(got.W(i)), want.W(i), math.Float64bits(want.W(i)))
				}
				if lo <= i && i < hi && want.W(i) == 0 {
					tally["equal products"]++
				}
			}
			if glo, ghi := got.Support(); glo != want.lo || ghi != want.hi {
				t.Fatalf("draw %d k=%d max=%v: support [%d,%d), bin-by-bin [%d,%d)", draw, k, max, glo, ghi, want.lo, want.hi)
			}
			if math.Float64bits(got.Mass()) != math.Float64bits(sum(want.bins())) {
				t.Fatalf("draw %d k=%d max=%v: cached mass %v, sum %v", draw, k, max, got.Mass(), sum(want.bins()))
			}
			tally[fmt.Sprintf("k=%d max=%v", k, max)]++
		}
	}
	want := []string{"stay 0", "empty window", "one-bin window", "disjoint windows",
		"windows sharing an edge", "nested windows", "equal products"}
	for _, w := range []int{1, 2, 17, 129, laneBins + 1, 513} {
		want = append(want, widthRegime(w))
	}
	for k := 1; k <= 9; k++ {
		want = append(want, fmt.Sprintf("k=%d max=true", k), fmt.Sprintf("k=%d max=false", k))
	}
	for _, r := range want {
		if tally[r] == 0 {
			t.Errorf("regime %q never exercised", r)
		}
	}
	t.Logf("tallies: %v", tally)
}

// widthRegime names the union-width bucket of w bins: one bin, up to a
// few lanes' worth, up to one segment (laneBins), and past it.
func widthRegime(w int) string {
	for _, hi := range []int{1, 16, 128, laneBins, 512} {
		if w <= hi {
			return fmt.Sprintf("union width <= %d", hi)
		}
	}
	return "union width > 512"
}
