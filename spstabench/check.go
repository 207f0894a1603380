package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/synth"
)

// digest hashes a result's values in net order: the four-value
// probabilities, the pruning spend and certificate, and both t.o.p.
// functions as grid geometry plus their non-zero bins. The support
// bounds are trimmed to the outermost non-zero bins first, so a change
// that only tightens support tracking keeps the digest. It is exact:
// within one run, every result of a circuit must repeat it.
func digest(res *core.Result) string {
	h := sha256.New()
	var b []byte
	f := func(v float64) {
		if v == 0 {
			v = 0 // one zero: -0 and +0 hash alike
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for i := range res.State {
		st := &res.State[i]
		b = b[:0]
		for _, p := range st.P {
			f(p)
		}
		f(st.PrunedMass)
		f(st.Budget)
		for _, top := range st.TOP {
			if top == nil {
				b = append(b, 'n')
				continue
			}
			g := top.Grid()
			f(g.Lo)
			f(g.Dt)
			lo, hi := top.Support()
			for lo < hi && top.W(lo) == 0 {
				lo++
			}
			for hi > lo && top.W(hi-1) == 0 {
				hi--
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(g.N))
			b = binary.LittleEndian.AppendUint64(b, uint64(lo))
			b = binary.LittleEndian.AppendUint64(b, uint64(hi))
			for j := lo; j < hi; j++ {
				f(top.W(j))
			}
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sketch is a digest of a result that tolerates floating-point
// reordering: two projections of every net's four-value probabilities
// and t.o.p. bins onto pseudo-random weights in [0.5, 1.5). A bin's
// weight is keyed by its net, direction and center time, not by its
// index, so a change of grid origin or support bookkeeping keeps the
// sketch. Summation-order differences move each value by about 1e-16,
// and the sketch by far less than sketchTol; any one value that moves
// by more than 2·sketchTol moves it past sketchTol.
type sketch [2]float64

const sketchTol = 1e-7

func resultSketch(res *core.Result) sketch {
	var s sketch
	add := func(net int, kind, key int64, v float64) {
		h := mix(uint64(net)<<40 ^ uint64(kind)<<32 ^ uint64(key))
		for c := range s {
			h = mix(h)
			s[c] += (0.5 + float64(h>>11)/(1<<53)) * v
		}
	}
	for i := range res.State {
		st := &res.State[i]
		for v, p := range st.P {
			add(i, int64(v), 0, p)
		}
		for d, top := range st.TOP {
			if top == nil {
				continue
			}
			g := top.Grid()
			lo, hi := top.Support()
			for j := lo; j < hi; j++ {
				if w := top.W(j); w != 0 {
					center := g.Lo + (float64(j)+0.5)*g.Dt
					add(i, int64(8+d), int64(math.Round(center*1024)), w)
				}
			}
		}
	}
	return s
}

// mix is the SplitMix64 finalizer.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// deviation is the largest component difference of two sketches.
func (s sketch) deviation(o sketch) float64 {
	d := 0.0
	for c := range s {
		d = max(d, math.Abs(s[c]-o[c]))
	}
	return d
}

// goldenText holds the engine-unit result sketches recorded for circuit
// seeds 0..2047 (benchmark seeds 0..255), one "seed s0 s1" line each,
// written from this directory by
//
//	go run . -record-golden 256 > golden_unit.txt
//
//go:embed golden_unit.txt
var goldenText string

var goldens = sync.OnceValue(func() map[int64]sketch {
	m := map[int64]sketch{}
	for _, line := range strings.Split(goldenText, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		seed, err0 := strconv.ParseInt(f[0], 10, 64)
		a, err1 := strconv.ParseFloat(f[1], 64)
		b, err2 := strconv.ParseFloat(f[2], 64)
		if err0 == nil && err1 == nil && err2 == nil {
			m[seed] = sketch{a, b}
		}
	}
	return m
})

// recordGoldens prints the engine-unit sketches of every circuit of
// benchmark seeds 0..n-1.
func recordGoldens(w io.Writer, n int) error {
	for seed := int64(0); seed < int64(n)*poolSize; seed++ {
		c, err := synth.Generate(s5378(seed))
		if err != nil {
			return fmt.Errorf("circuit seed %d: %w", seed, err)
		}
		res, err := unitSetting.analyzer(nil).Run(c, experiments.Inputs(c, experiments.ScenarioI))
		if err != nil {
			return fmt.Errorf("circuit seed %d: %w", seed, err)
		}
		s := resultSketch(res)
		if _, err := fmt.Fprintf(w, "%d %.17g %.17g\n", seed, s[0], s[1]); err != nil {
			return err
		}
	}
	return nil
}

// verifyGolden checks an engine-unit result against the sketch recorded
// for its circuit, and every net's four-value probabilities against
// summing to 1. A circuit without a recorded sketch is checked on the
// invariant alone; the report counts both kinds.
func verifyGolden(rep *report, ec *engineCircuit, res *core.Result) error {
	if want, ok := goldens()[ec.seed]; !ok {
		rep.env.GoldenMissing++
	} else if dev := resultSketch(res).deviation(want); dev > sketchTol {
		return fmt.Errorf("result sketch deviates %g from the golden recorded for the circuit (tolerance %g)", dev, sketchTol)
	} else {
		rep.env.GoldenMatched++
	}
	return probabilitiesSumToOne(res)
}

func probabilitiesSumToOne(res *core.Result) error {
	for i := range res.State {
		p := res.State[i].P
		if s := p[0] + p[1] + p[2] + p[3]; math.Abs(s-1) > slack {
			return fmt.Errorf("net %s: four-value probabilities sum to %v", res.C.Nodes[i].Name, s)
		}
	}
	return nil
}

// verifyReference checks an engine-variational result against an exact
// reference analysis (ε=0, one grid) computed here, outside the timed
// passes and set-up: at every net the four-value probabilities and the
// Kolmogorov distance of both t.o.p. functions must stay within the
// net's certified Budget. It also records the pool's largest
// certificate.
func verifyReference(rep *report, ec *engineCircuit, res *core.Result) error {
	rep.set("max_budget", max(rep.values["max_budget"], res.MaxConsumedBudget()))
	rep.set("core.max_budget", rep.values["max_budget"])
	ref, err := referenceSetting.analyzer(nil).Run(ec.c, ec.in)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if err := withinCertificate(res, ref); err != nil {
		return err
	}
	return probabilitiesSumToOne(res)
}

// slack absorbs floating-point differences between summation orders.
const slack = 1e-9

func withinCertificate(res, ref *core.Result) error {
	bad, worst, where := 0, 0.0, ""
	for i := range res.State {
		st, rs := &res.State[i], &ref.State[i]
		excess := func(d float64, what string) {
			if d <= st.Budget+slack {
				return
			}
			bad++
			if e := d - st.Budget; e > worst {
				worst, where = e, fmt.Sprintf("net %s %s: deviation %g > budget %g", res.C.Nodes[i].Name, what, d, st.Budget)
			}
		}
		for v := range st.P {
			excess(math.Abs(st.P[v]-rs.P[v]), fmt.Sprintf("P[%d]", v))
		}
		for d := range st.TOP {
			ks, err := ksDistance(st.TOP[d], rs.TOP[d])
			if err != nil {
				return fmt.Errorf("net %s: %w", res.C.Nodes[i].Name, err)
			}
			excess(ks, fmt.Sprintf("t.o.p.[%d] Kolmogorov distance", d))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d deviations exceed their certificate; worst %s", bad, where)
	}
	return nil
}

// ksDistance returns the Kolmogorov distance sup_x |A(x) − B(x)|
// between the cumulative masses of two t.o.p. functions. The grids must
// share their left edge, with bin widths whole multiples of the finer
// one, as a grid and its re-binned coarsenings do.
func ksDistance(a, b *dist.PMF) (float64, error) {
	ga, gb := a.Grid(), b.Grid()
	fine := math.Min(ga.Dt, gb.Dt)
	fa, fb := math.Round(ga.Dt/fine), math.Round(gb.Dt/fine)
	if ga.Lo != gb.Lo || math.Abs(fa*fine-ga.Dt) > 1e-9*fine || math.Abs(fb*fine-gb.Dt) > 1e-9*fine {
		return 0, fmt.Errorf("grids (lo %g, dt %g) and (lo %g, dt %g) are not nested", ga.Lo, ga.Dt, gb.Lo, gb.Dt)
	}
	// Bin i of a grid whose width is f fine bins has its center (where
	// its cumulative mass steps) at (2i+1)·f half-fine-bins from Lo.
	// Walking both center sequences in order visits every step.
	ka, kb := int(fa), int(fb)
	i, ahi := a.Support()
	j, bhi := b.Support()
	var ca, cb, sup float64
	for i < ahi || j < bhi {
		pa, pb := math.MaxInt, math.MaxInt
		if i < ahi {
			pa = (2*i + 1) * ka
		}
		if j < bhi {
			pb = (2*j + 1) * kb
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
		if d := math.Abs(ca - cb); d > sup {
			sup = d
		}
	}
	return sup, nil
}
