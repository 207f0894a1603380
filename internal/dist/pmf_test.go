package dist

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func testGrid() Grid { return NewGrid(-8, 8, 1.0/16) }

func TestGridBasics(t *testing.T) {
	g := NewGrid(-2, 2, 0.5)
	if g.N != 8 {
		t.Fatalf("N = %d, want 8", g.N)
	}
	approx(t, "Hi", g.Hi(), 2, 1e-12)
	approx(t, "X(0)", g.X(0), -1.75, 1e-12)
	approx(t, "Edge(8)", g.Edge(8), 2, 1e-12)
	if g.Index(-100) != 0 || g.Index(100) != 7 {
		t.Error("Index does not clamp")
	}
	if g.Index(-1.8) != 0 || g.Index(1.9) != 7 || g.Index(0.1) != 4 {
		t.Error("Index wrong")
	}
	if g != NewGrid(-2, 2, 0.5) || g == NewGrid(-2, 2, 0.25) {
		t.Error("== wrong")
	}
}

// TestGridIsItsGeometry: a grid holds its geometry and nothing else,
// so == is grid identity and no grid value can carry a run's metrics
// registry into the PMFs built on it.
func TestGridIsItsGeometry(t *testing.T) {
	typ := reflect.TypeOf(Grid{})
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if want := []string{"Lo", "Dt", "N"}; !reflect.DeepEqual(fields, want) {
		t.Fatalf("Grid fields %v, want %v", fields, want)
	}
}

func TestGridInvalid(t *testing.T) {
	for _, f := range []func(){
		func() { NewGrid(0, 1, 0) },
		func() { NewGrid(0, 1, -1) },
		func() { NewGrid(1, 0, 0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid grid accepted")
				}
			}()
			f()
		}()
	}
}

func TestTimingGrid(t *testing.T) {
	g := TimingGrid(10, 0, 1)
	if g.Lo != -8 || math.Abs(g.Hi()-18) > 1e-9 {
		t.Errorf("TimingGrid = [%v, %v]", g.Lo, g.Hi())
	}
	// Unit delay is an exact number of bins.
	if r := 1.0 / g.Dt; r != math.Trunc(r) {
		t.Errorf("unit delay is %v bins", r)
	}
	// Deterministic launches still get padding.
	g0 := TimingGrid(5, 0, 0)
	if g0.Lo > -4+1e-9 && g0.Hi() < 9-1e-9 {
		t.Errorf("zero-sigma grid too tight: [%v, %v]", g0.Lo, g0.Hi())
	}
}

func TestFromNormalMassAndMoments(t *testing.T) {
	g := testGrid()
	p := FromNormal(g, Normal{0.5, 1.2})
	approx(t, "mass", p.Mass(), 1, 1e-12)
	approx(t, "mean", p.Mean(), 0.5, 1e-3)
	approx(t, "sigma", p.Sigma(), 1.2, 2e-3)
}

func TestFromNormalTailFolding(t *testing.T) {
	// A distribution centered far outside the grid folds into the
	// edge bin with mass exactly 1.
	g := NewGrid(0, 1, 0.25)
	p := FromNormal(g, Normal{-50, 1})
	approx(t, "mass", p.Mass(), 1, 1e-12)
	approx(t, "left bin", p.W(0), 1, 1e-9)
	p = FromNormal(g, Normal{50, 1})
	approx(t, "right bin", p.W(g.N-1), 1, 1e-9)
}

func TestDelta(t *testing.T) {
	g := testGrid()
	p := Delta(g, 1.0)
	approx(t, "mass", p.Mass(), 1, 0)
	approx(t, "mean", p.Mean(), 1.0, g.Dt)
	approx(t, "sigma", p.Sigma(), 0, 1e-12)
}

func TestShiftExactBins(t *testing.T) {
	g := testGrid()
	p := FromNormal(g, Normal{0, 1})
	q := p.Shift(1) // exactly 16 bins
	approx(t, "mass", q.Mass(), 1, 1e-12)
	approx(t, "mean", q.Mean(), p.Mean()+1, 1e-9)
	approx(t, "sigma", q.Sigma(), p.Sigma(), 1e-9)
}

func TestShiftFractional(t *testing.T) {
	g := testGrid()
	p := Delta(g, 0)
	q := p.Shift(g.Dt / 4) // quarter-bin: splits 3/4, 1/4
	approx(t, "mass", q.Mass(), 1, 1e-12)
	approx(t, "mean", q.Mean(), p.Mean()+g.Dt/4, 1e-9)
	// Negative shift.
	r := p.Shift(-1.5)
	approx(t, "neg mass", r.Mass(), 1, 1e-12)
	approx(t, "neg mean", r.Mean(), p.Mean()-1.5, 1e-9)
}

func TestShiftClampsAtEdges(t *testing.T) {
	g := NewGrid(0, 1, 0.25)
	p := Delta(g, 0.9)
	q := p.Shift(10)
	approx(t, "mass", q.Mass(), 1, 1e-12)
	if q.W(g.N-1) != 1 {
		t.Error("shifted mass not clamped to last bin")
	}
}

func TestConvolveMatchesNormalSum(t *testing.T) {
	g := testGrid()
	a := FromNormal(g, Normal{-1, 0.8})
	b := FromNormal(g, Normal{1.5, 0.6})
	c := a.Convolve(b)
	approx(t, "mass", c.Mass(), 1, 1e-9)
	approx(t, "mean", c.Mean(), 0.5, 2e-3)
	approx(t, "sigma", c.Sigma(), math.Hypot(0.8, 0.6), 5e-3)
}

func TestConvolveWithDelta(t *testing.T) {
	// Convolving with a point mass is a shift by the delta's bin
	// center (up to the half-bin smear of the discretization).
	g := testGrid()
	a := FromNormal(g, Normal{0, 1})
	x := g.X(g.Index(2))
	c := a.Convolve(Delta(g, 2))
	approx(t, "mass", c.Mass(), 1, 1e-9)
	approx(t, "mean", c.Mean(), a.Mean()+x, g.Dt)
	approx(t, "sigma", c.Sigma(), a.Sigma(), g.Dt)
}

func TestMaxPMFMatchesClark(t *testing.T) {
	g := testGrid()
	a := FromNormal(g, Normal{0, 1})
	b := FromNormal(g, Normal{0.5, 1.5})
	m := MaxPMF(a, b)
	want := MaxNormal(Normal{0, 1}, Normal{0.5, 1.5}, 0)
	approx(t, "mass", m.Mass(), 1, 1e-9)
	approx(t, "mean", m.Mean(), want.Mu, 5e-3)
	approx(t, "sigma", m.Sigma(), want.Sigma, 1e-2)
}

func TestMinPMFMatchesClark(t *testing.T) {
	g := testGrid()
	a := FromNormal(g, Normal{0, 1})
	b := FromNormal(g, Normal{0.5, 1.5})
	m := MinPMF(a, b)
	want := MinNormal(Normal{0, 1}, Normal{0.5, 1.5}, 0)
	approx(t, "mass", m.Mass(), 1, 1e-9)
	approx(t, "mean", m.Mean(), want.Mu, 5e-3)
	approx(t, "sigma", m.Sigma(), want.Sigma, 1e-2)
}

// TestMaxMinPartitionIdentity: for independent sub-distributions
// with masses mA and mB, pdf(max) + pdf(min) = mB·pdf(A) + mA·pdf(B)
// bin by bin (for unit masses this is the classical
// max+min = A+B identity).
func TestMaxMinPartitionIdentity(t *testing.T) {
	g := NewGrid(0, 4, 0.5)
	rng := rand.New(rand.NewSource(3))
	a, b := randomPMF(g, rng), randomPMF(g, rng)
	ma, mb := a.Mass(), b.Mass()
	mx, mn := MaxPMF(a, b), MinPMF(a, b)
	for i := 0; i < g.N; i++ {
		if math.Abs(mx.W(i)+mn.W(i)-mb*a.W(i)-ma*b.W(i)) > 1e-12 {
			t.Fatalf("partition identity fails at bin %d", i)
		}
	}
}

// TestMaxPMFExactOnAtoms: two two-point distributions computed by
// hand. A: 0.6@1, 0.4@3; B: 0.5@2, 0.5@3.
func TestMaxPMFExactOnAtoms(t *testing.T) {
	g := NewGrid(0, 4, 1) // bins centered at 0.5,1.5,2.5,3.5
	a, b := NewPMF(g), NewPMF(g)
	a.SetBin(1, 0.6)
	a.SetBin(3, 0.4)
	b.SetBin(2, 0.5)
	b.SetBin(3, 0.5)
	m := MaxPMF(a, b)
	// max=bin1: impossible (B ≥ bin2). max=bin2: A@1·B@2 = 0.3.
	// max=bin3: rest = 0.7.
	approx(t, "bin1", m.W(1), 0, 1e-15)
	approx(t, "bin2", m.W(2), 0.3, 1e-15)
	approx(t, "bin3", m.W(3), 0.7, 1e-15)
	mn := MinPMF(a, b)
	// min=bin1: 0.6. min=bin2: A@3·B@2 = 0.2. min=bin3: 0.2.
	approx(t, "min bin1", mn.W(1), 0.6, 1e-15)
	approx(t, "min bin2", mn.W(2), 0.2, 1e-15)
	approx(t, "min bin3", mn.W(3), 0.2, 1e-15)
}

func TestScaleNormalizeAccum(t *testing.T) {
	g := testGrid()
	p := FromNormal(g, Normal{0, 1}).Scale(0.25)
	approx(t, "scaled mass", p.Mass(), 0.25, 1e-12)
	m := p.Normalize()
	approx(t, "returned prior mass", m, 0.25, 1e-12)
	approx(t, "normalized mass", p.Mass(), 1, 1e-12)

	z := NewPMF(g)
	if z.Normalize() != 0 {
		t.Error("zero PMF Normalize returned nonzero")
	}
	acc := NewPMF(g)
	acc.AccumWeighted(p, 0.5).AccumWeighted(p, 0.25)
	approx(t, "accum mass", acc.Mass(), 0.75, 1e-12)
}

func TestMeanVarZeroMass(t *testing.T) {
	g := testGrid()
	z := NewPMF(g)
	if z.Mean() != 0 || z.Var() != 0 || z.Sigma() != 0 {
		t.Error("zero-mass moments nonzero")
	}
}

func TestCDFAtAndQuantile(t *testing.T) {
	g := NewGrid(0, 10, 1)
	p := NewPMF(g)
	p.SetBin(2, 0.5)
	p.SetBin(7, 0.5) // atoms at 2.5 and 7.5
	approx(t, "CDFAt(3)", p.CDFAt(3), 0.5, 1e-15)
	approx(t, "CDFAt(8)", p.CDFAt(8), 1, 1e-15)
	approx(t, "Quantile(0.5)", p.Quantile(0.5), 2.5, 1e-12)
	approx(t, "Quantile(0.9)", p.Quantile(0.9), 7.5, 1e-12)
	approx(t, "Quantile(1)", p.Quantile(1), 7.5, 1e-12)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantile(0) accepted")
			}
		}()
		p.Quantile(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantile of zero mass accepted")
			}
		}()
		NewPMF(g).Quantile(0.5)
	}()
}

func TestGridMismatchPanics(t *testing.T) {
	a := NewPMF(NewGrid(0, 1, 0.5))
	b := NewPMF(NewGrid(0, 1, 0.25))
	for name, f := range map[string]func(){
		"Convolve": func() { a.Convolve(b) },
		"MaxPMF":   func() { MaxPMF(a, b) },
		"MinPMF":   func() { MinPMF(a, b) },
		"Accum":    func() { a.AccumWeighted(b, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s across grids did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestQuickMassConservation: Shift and Convolve preserve total mass
// for arbitrary random PMFs.
func TestQuickMassConservation(t *testing.T) {
	g := NewGrid(-2, 2, 0.25)
	rng := rand.New(rand.NewSource(9))
	f := func(shift float64) bool {
		p := randomPMF(g, rng)
		q := randomPMF(g, rng)
		s := clamp(shift, -5, 5)
		m1 := p.Shift(s).Mass()
		m2 := p.Convolve(q).Mass()
		return math.Abs(m1-p.Mass()) < 1e-9 && math.Abs(m2-p.Mass()*q.Mass()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickMaxStochasticDominance: CDF of max is below both operand
// CDFs (the max is stochastically larger).
func TestQuickMaxStochasticDominance(t *testing.T) {
	g := NewGrid(-2, 2, 0.25)
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		a := randomPMF(g, rng)
		b := randomPMF(g, rng)
		a.Normalize()
		b.Normalize()
		m := MaxPMF(a, b)
		ca, cm := 0.0, 0.0
		for i := 0; i < g.N; i++ {
			ca += a.W(i)
			cm += m.W(i)
			if cm > ca+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPMFNormalRoundTrip(t *testing.T) {
	g := testGrid()
	p := FromNormal(g, Normal{1, 0.7})
	n := p.Normal()
	approx(t, "Mu", n.Mu, 1, 1e-3)
	approx(t, "Sigma", n.Sigma, 0.7, 2e-3)
}

func randomPMF(g Grid, rng *rand.Rand) *PMF {
	p := NewPMF(g)
	for i := 0; i < g.N; i++ {
		if rng.Float64() < 0.3 {
			p.SetBin(i, rng.Float64())
		}
	}
	if p.Mass() == 0 {
		p.SetBin(0, 1)
	}
	p.Scale(1 / p.Mass())
	p.Scale(0.1 + 0.9*rng.Float64())
	return p
}

func TestSkewness(t *testing.T) {
	g := testGrid()
	// Symmetric distribution: zero skew.
	sym := FromNormal(g, Normal{Mu: 0, Sigma: 1})
	approx(t, "normal skew", sym.Skewness(), 0, 1e-6)
	// Max of two equal normals is right-skewed.
	mx := MaxPMF(sym, sym.Clone())
	if mx.Skewness() <= 0.05 {
		t.Errorf("max skew = %v, want positive", mx.Skewness())
	}
	// Mirrored distribution has mirrored skew.
	mn := MinPMF(sym, sym.Clone())
	approx(t, "min skew", mn.Skewness(), -mx.Skewness(), 1e-6)
	// Degenerate cases.
	if NewPMF(g).Skewness() != 0 {
		t.Error("zero-mass skew nonzero")
	}
	if Delta(g, 0).Skewness() != 0 {
		t.Error("point-mass skew nonzero")
	}
	// Scaling does not change the conditional skew.
	scaled := mx.Clone().Scale(0.3)
	approx(t, "scaled skew", scaled.Skewness(), mx.Skewness(), 1e-9)
}
