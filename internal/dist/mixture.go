package dist

import (
	"sort"

	"repro/internal/obs"
)

// SwitchInput describes one gate input for the WEIGHTED SUM mixture
// of Eq. 11: the input either holds the gate's non-controlling
// constant value (probability Stay) or switches at a random time
// whose unnormalized distribution is TOP (a transition temporal
// occurrence probability function whose total mass is the input's
// switching probability). Stay + TOP.Mass() need not be 1: the
// remaining probability covers input behaviours that produce no
// output transition and therefore contribute nothing here.
type SwitchInput struct {
	Stay float64
	TOP  *PMF
}

// MaxMixture evaluates the paper's Eq. 11 for OpMax gates in
// O(k·n) instead of the paper's O(2^k):
//
//	φ(y) = Σ_{∅≠S⊆inputs} (Π_{i∈S} t.o.p._i)(Π_{i∉S} Stay_i) · pdf(MAX_{i∈S})
//
// using the identity Π_i (Stay_i + C_i[k]) = Σ_S Π_{i∈S} C_i^S[k]
// Π_{i∉S} Stay_i, where C_i is the running cumulative of TOP_i: the
// product is the sub-distribution function of the whole mixture
// (plus the constant empty-set term Π Stay_i, which is removed).
// The result is the unnormalized output t.o.p. before gate delay. It
// records no metrics.
func MaxMixture(g Grid, in []SwitchInput) *PMF {
	return MaxMixtureInto(nil, NewPMF(g), in)
}

// MaxMixtureInto is MaxMixture writing into dst (cleared first) and
// charging the mixture to m (nil records nothing). dst must not alias
// any input TOP. Only the union of the input supports is visited:
// below it every cumulative is zero, so H[k] = H[-1]; above it every
// cumulative is the full mass, so H is constant — both tails
// contribute exactly zero bins. dst's mass is summed in the same pass
// and cached.
func MaxMixtureInto(m *obs.Metrics, dst *PMF, in []SwitchInput) *PMF {
	return mixtureInto(m, dst, in, true)
}

// MinMixture is the OpMin counterpart of MaxMixture:
//
//	φ(y) = Σ_{∅≠S} (Π_{i∈S} t.o.p._i)(Π_{i∉S} Stay_i) · pdf(MIN_{i∈S})
//
// computed from survival-function products Π_i (Stay_i + (mass_i −
// C_i[k])). It records no metrics.
func MinMixture(g Grid, in []SwitchInput) *PMF {
	return MinMixtureInto(nil, NewPMF(g), in)
}

// MinMixtureInto is MinMixture writing into dst (cleared first) and
// charging the mixture to m (nil records nothing). dst must not alias
// any input TOP.
func MinMixtureInto(m *obs.Metrics, dst *PMF, in []SwitchInput) *PMF {
	return mixtureInto(m, dst, in, false)
}

// mixtureInto evaluates the max (or min) mixture into dst over the
// union of the input supports.
func mixtureInto(m *obs.Metrics, dst *PMF, in []SwitchInput, max bool) *PMF {
	dst.clear()
	if len(in) == 0 {
		return dst
	}
	lo, hi := mixtureSupport(dst.grid, in)
	recordMixture(m, len(in), lo, hi)
	first, last, mass := mixtureBins(dst.w, 0, in, max, lo, hi)
	if first <= last {
		dst.lo, dst.hi = first, last+1
	}
	dst.mass, dst.massOK = mass, true
	return dst
}

// mixtureSupport returns the union of the inputs' supports; lo >= hi
// when every input is empty.
func mixtureSupport(g Grid, in []SwitchInput) (lo, hi int) {
	lo, hi = g.N, 0
	for _, s := range in {
		if s.TOP.lo < s.TOP.hi {
			if s.TOP.lo < lo {
				lo = s.TOP.lo
			}
			if s.TOP.hi > hi {
				hi = s.TOP.hi
			}
		}
	}
	return lo, hi
}

// recordMixture charges one k-input mixture over [lo, hi) to m.
func recordMixture(m *obs.Metrics, k, lo, hi int) {
	if m != nil {
		m.MixtureEvals.Add(k, 1)
		if hi > lo {
			m.CostMixtureOps.Add(int64(k) * int64(hi-lo))
		}
	}
}

// mixtureBins runs the max (or min) mixture recurrence over bins
// [lo, hi), writing bin k to out[k-base] — every bin, zeros included —
// and returns the first and last non-zero bins (first > last when
// there is none) and the left-to-right sum of the written bins.
//
// The recurrence is a running product per bin over the inputs in
// order — H[k] = Π_i f_i[k] with f_i[k] = Stay_i + C_i[k] for max and
// Stay_i + (mass_i − C_i[k]) for min, where C_i is input i's running
// cumulative — and bin k is H[k] − H[k−1] (max) or H[k−1] − H[k]
// (min), with H[−1] the product at C = 0.
//
// The kernel is one bin loop per group of up to four inputs (lanes),
// which carries the group's cumulatives side by side so that their add
// chains overlap. A group's product starts from the product of the
// groups before it, which they leave in out (the first group starts
// from 1, and 1·f = f), and the last group also takes the differences
// and the mass. Every bin therefore multiplies its factors in input
// order from the first, and each cumulative is the same left-to-right
// sum over its input's window, so every bin is bit-identical to the
// bin-by-bin evaluation. The loop runs over segments of [lo, hi) split
// at the group's window edges: within a segment each lane reads either
// its input's bins or zeros (outside its window C_i is constant, and
// C + 0 = C), so the loop tests no support. A padding lane, which only
// a single-input group needs, has Stay 1 and no bins: its factor is
// exactly 1. The first and last non-zero bins are found afterwards by
// scanning in from both ends, which reads only the zero bins at the
// ends.
func mixtureBins(out []float64, base int, in []SwitchInput, max bool, lo, hi int) (first, last int, mass float64) {
	if lo >= hi {
		return 0, -1, 0
	}
	out = out[lo-base : hi-base]
	prev := 1.0 // H[-1]
	var ls mixLanes
	for g := 0; g < len(in); g += len(ls) {
		grp := in[g:min(g+len(ls), len(in))]
		for i, s := range grp {
			l := &ls[i]
			l.stay, l.src, l.a, l.b = s.Stay, s.TOP.bins(), 0, 0
			if max {
				prev *= l.stay
			} else {
				l.m = s.TOP.Mass()
				prev *= l.stay + l.m
			}
			if l.src != nil {
				l.a, l.b = s.TOP.lo-lo, s.TOP.hi-lo
			}
		}
		n := len(grp)
		if n == 1 {
			ls[1], n = mixLane{stay: 1}, 2
		}
		head, final := g == 0, g+len(ls) >= len(in)
		switch {
		case !final && max:
			maxProducts(out, head, &ls)
		case !final:
			minProducts(out, head, &ls)
		case max && n == 2:
			mass = maxDiffs2(out, head, &ls, prev)
		case max && n == 3:
			mass = maxDiffs3(out, head, &ls, prev)
		case max:
			mass = maxDiffs4(out, head, &ls, prev)
		case n == 2:
			mass = minDiffs2(out, head, &ls, prev)
		case n == 3:
			mass = minDiffs3(out, head, &ls, prev)
		default:
			mass = minDiffs4(out, head, &ls, prev)
		}
	}
	first, last = hi, lo-1
	for t, v := range out {
		if v != 0 {
			first = lo + t
			break
		}
	}
	for t := len(out) - 1; t >= first-lo; t-- {
		if out[t] != 0 {
			last = lo + t
			break
		}
	}
	return first, last, mass
}

// laneBins bounds a segment: the length of the zero and one rows a
// segment reads.
const laneBins = 256

var (
	zeroBins [laneBins]float64
	oneBins  = func() (r [laneBins]float64) {
		for i := range r {
			r[i] = 1
		}
		return r
	}()
)

// mixLane is one input of a mixture loop: its window's bins, the
// window [a, b) in bins from the union's lo, its Stay and its mass
// (min only), and what it reads in the current segment.
type mixLane struct {
	src, cur []float64
	a, b     int
	stay, m  float64
}

// mixLanes are the inputs one mixture loop carries.
type mixLanes [4]mixLane

// segment points lanes [0, n) at what they read from bin t — their
// window's bins from t, or zeros — and returns the end of the segment
// that starts at t: the next window edge, at most laneBins bins on and
// at most end.
func (ls *mixLanes) segment(n, t, end int) int {
	end = min(end, t+laneBins)
	for i := range ls[:n] {
		l := &ls[i]
		switch {
		case t < l.a:
			end = min(end, l.a)
			l.cur = zeroBins[:]
		case t < l.b:
			end = min(end, l.b)
			l.cur = l.src[t-l.a:]
		default:
			l.cur = zeroBins[:]
		}
	}
	return end
}

// factors returns the row a group's product starts from over out[t:end]:
// the earlier groups' product in out, or ones for the head group.
func factors(out []float64, head bool, t, end int) []float64 {
	if head {
		return oneBins[:end-t]
	}
	return out[t:end]
}

// The bin loops below run one group of lanes over every segment of
// out. Each lane adds its bin to its cumulative, and the product
// starts from the earlier groups' product (factors) and takes the
// lanes' factors in order. maxProducts and minProducts leave a full
// group's product in out; the Diffs loops, one per lane count, write
// the last group's differences from prev on and return their sum. A
// product that meets a difference is rounded by an explicit
// conversion, so it is never contracted into a fused multiply-add.

func maxProducts(out []float64, head bool, ls *mixLanes) {
	s0, s1, s2, s3 := ls[0].stay, ls[1].stay, ls[2].stay, ls[3].stay
	var c0, c1, c2, c3 float64
	for t, end := 0, 0; t < len(out); t = end {
		end = ls.segment(4, t, len(out))
		o, f := out[t:end], factors(out, head, t, end)
		f = f[:len(o)]
		x0, x1, x2, x3 := ls[0].cur[:len(o)], ls[1].cur[:len(o)], ls[2].cur[:len(o)], ls[3].cur[:len(o)]
		for j := range o {
			c0 += x0[j]
			c1 += x1[j]
			c2 += x2[j]
			c3 += x3[j]
			o[j] = f[j] * (s0 + c0) * (s1 + c1) * (s2 + c2) * (s3 + c3)
		}
	}
}

func minProducts(out []float64, head bool, ls *mixLanes) {
	s0, s1, s2, s3 := ls[0].stay, ls[1].stay, ls[2].stay, ls[3].stay
	m0, m1, m2, m3 := ls[0].m, ls[1].m, ls[2].m, ls[3].m
	var c0, c1, c2, c3 float64
	for t, end := 0, 0; t < len(out); t = end {
		end = ls.segment(4, t, len(out))
		o, f := out[t:end], factors(out, head, t, end)
		f = f[:len(o)]
		x0, x1, x2, x3 := ls[0].cur[:len(o)], ls[1].cur[:len(o)], ls[2].cur[:len(o)], ls[3].cur[:len(o)]
		for j := range o {
			c0 += x0[j]
			c1 += x1[j]
			c2 += x2[j]
			c3 += x3[j]
			o[j] = f[j] * (s0 + (m0 - c0)) * (s1 + (m1 - c1)) * (s2 + (m2 - c2)) * (s3 + (m3 - c3))
		}
	}
}

func maxDiffs2(out []float64, head bool, ls *mixLanes, prev float64) (mass float64) {
	s0, s1 := ls[0].stay, ls[1].stay
	var c0, c1 float64
	for t, end := 0, 0; t < len(out); t = end {
		end = ls.segment(2, t, len(out))
		o, f := out[t:end], factors(out, head, t, end)
		f = f[:len(o)]
		x0, x1 := ls[0].cur[:len(o)], ls[1].cur[:len(o)]
		for j := range o {
			c0 += x0[j]
			c1 += x1[j]
			h := float64(f[j] * (s0 + c0) * (s1 + c1))
			v := h - prev
			o[j] = v
			mass += v
			prev = h
		}
	}
	return mass
}

func maxDiffs3(out []float64, head bool, ls *mixLanes, prev float64) (mass float64) {
	s0, s1, s2 := ls[0].stay, ls[1].stay, ls[2].stay
	var c0, c1, c2 float64
	for t, end := 0, 0; t < len(out); t = end {
		end = ls.segment(3, t, len(out))
		o, f := out[t:end], factors(out, head, t, end)
		f = f[:len(o)]
		x0, x1, x2 := ls[0].cur[:len(o)], ls[1].cur[:len(o)], ls[2].cur[:len(o)]
		for j := range o {
			c0 += x0[j]
			c1 += x1[j]
			c2 += x2[j]
			h := float64(f[j] * (s0 + c0) * (s1 + c1) * (s2 + c2))
			v := h - prev
			o[j] = v
			mass += v
			prev = h
		}
	}
	return mass
}

func maxDiffs4(out []float64, head bool, ls *mixLanes, prev float64) (mass float64) {
	s0, s1, s2, s3 := ls[0].stay, ls[1].stay, ls[2].stay, ls[3].stay
	var c0, c1, c2, c3 float64
	for t, end := 0, 0; t < len(out); t = end {
		end = ls.segment(4, t, len(out))
		o, f := out[t:end], factors(out, head, t, end)
		f = f[:len(o)]
		x0, x1, x2, x3 := ls[0].cur[:len(o)], ls[1].cur[:len(o)], ls[2].cur[:len(o)], ls[3].cur[:len(o)]
		for j := range o {
			c0 += x0[j]
			c1 += x1[j]
			c2 += x2[j]
			c3 += x3[j]
			h := float64(f[j] * (s0 + c0) * (s1 + c1) * (s2 + c2) * (s3 + c3))
			v := h - prev
			o[j] = v
			mass += v
			prev = h
		}
	}
	return mass
}

// The min loops take prev − h, not −(h − prev): equal products give
// +0, not −0.

func minDiffs2(out []float64, head bool, ls *mixLanes, prev float64) (mass float64) {
	s0, s1 := ls[0].stay, ls[1].stay
	m0, m1 := ls[0].m, ls[1].m
	var c0, c1 float64
	for t, end := 0, 0; t < len(out); t = end {
		end = ls.segment(2, t, len(out))
		o, f := out[t:end], factors(out, head, t, end)
		f = f[:len(o)]
		x0, x1 := ls[0].cur[:len(o)], ls[1].cur[:len(o)]
		for j := range o {
			c0 += x0[j]
			c1 += x1[j]
			h := float64(f[j] * (s0 + (m0 - c0)) * (s1 + (m1 - c1)))
			v := prev - h
			o[j] = v
			mass += v
			prev = h
		}
	}
	return mass
}

func minDiffs3(out []float64, head bool, ls *mixLanes, prev float64) (mass float64) {
	s0, s1, s2 := ls[0].stay, ls[1].stay, ls[2].stay
	m0, m1, m2 := ls[0].m, ls[1].m, ls[2].m
	var c0, c1, c2 float64
	for t, end := 0, 0; t < len(out); t = end {
		end = ls.segment(3, t, len(out))
		o, f := out[t:end], factors(out, head, t, end)
		f = f[:len(o)]
		x0, x1, x2 := ls[0].cur[:len(o)], ls[1].cur[:len(o)], ls[2].cur[:len(o)]
		for j := range o {
			c0 += x0[j]
			c1 += x1[j]
			c2 += x2[j]
			h := float64(f[j] * (s0 + (m0 - c0)) * (s1 + (m1 - c1)) * (s2 + (m2 - c2)))
			v := prev - h
			o[j] = v
			mass += v
			prev = h
		}
	}
	return mass
}

func minDiffs4(out []float64, head bool, ls *mixLanes, prev float64) (mass float64) {
	s0, s1, s2, s3 := ls[0].stay, ls[1].stay, ls[2].stay, ls[3].stay
	m0, m1, m2, m3 := ls[0].m, ls[1].m, ls[2].m, ls[3].m
	var c0, c1, c2, c3 float64
	for t, end := 0, 0; t < len(out); t = end {
		end = ls.segment(4, t, len(out))
		o, f := out[t:end], factors(out, head, t, end)
		f = f[:len(o)]
		x0, x1, x2, x3 := ls[0].cur[:len(o)], ls[1].cur[:len(o)], ls[2].cur[:len(o)], ls[3].cur[:len(o)]
		for j := range o {
			c0 += x0[j]
			c1 += x1[j]
			c2 += x2[j]
			c3 += x3[j]
			h := float64(f[j] * (s0 + (m0 - c0)) * (s1 + (m1 - c1)) * (s2 + (m2 - c2)) * (s3 + (m3 - c3)))
			v := prev - h
			o[j] = v
			mass += v
			prev = h
		}
	}
	return mass
}

// Mixture dispatches to MaxMixture or MinMixture. op must not be
// OpNone-like; callers pass max=true for latest-arrival semantics.
func Mixture(g Grid, in []SwitchInput, max bool) *PMF {
	if max {
		return MaxMixture(g, in)
	}
	return MinMixture(g, in)
}

// SubsetMixture is the literal O(2^k) subset enumeration of Eq. 11,
// kept as the reference implementation for property tests against
// MaxMixture/MinMixture and for the ablation benchmarks. Its leaves and
// their MIN/MAX bin operations are charged to m (nil records nothing).
func SubsetMixture(m *obs.Metrics, g Grid, in []SwitchInput, max bool) *PMF {
	out := NewPMF(g)
	leaves := int64(0)
	var rec func(i int, weight float64, acc *PMF)
	rec = func(i int, weight float64, acc *PMF) {
		if weight == 0 {
			return
		}
		if i == len(in) {
			leaves++
			if acc != nil {
				out.AccumWeighted(acc, weight)
			}
			return
		}
		s := in[i]
		// Input i holds the non-controlling constant.
		rec(i+1, weight*s.Stay, acc)
		// Input i switches.
		mass := s.TOP.Mass()
		if mass == 0 {
			return
		}
		cond := s.TOP.Clone()
		cond.Scale(1 / mass)
		next := cond
		if acc != nil {
			next = combine(m, acc, cond, max)
		}
		rec(i+1, weight*mass, next)
	}
	rec(0, 1, nil)
	if m != nil {
		m.SubsetLeaves.Add(len(in), leaves)
		m.CostLeafOps.Add(leaves)
	}
	return out
}

// SizedMixturePruned evaluates the WEIGHTED SUM with a per-subset-size
// gate delay: each switching subset's combined arrival pdf is
// delayed by delay(|S|) before accumulation. This models the
// multiple-input switching effect (the paper's reference [2]): a
// gate whose inputs switch together is faster/slower than the
// single-switching characterization. O(2^k) like SubsetMixture, and
// charged to m the same way, delays included.
//
// eps > 0 adds ε-bounded subset branch-and-bound: inputs are ordered
// by ascending switching mass (so low-probability switch branches sit
// near the enumeration root), and any subtree whose exact remaining
// occurrence weight — weight · Π_{j≥i}(Stay_j + mass_j), maintained
// as a suffix product — fits in the remaining budget is cut whole,
// its weight spent from the budget. The second return value is the
// total occurrence weight cut; the caller folds it back into its
// four-value probability accounting so probabilities still sum to 1.
// eps <= 0 enumerates every subset in input order and cuts nothing.
func SizedMixturePruned(m *obs.Metrics, g Grid, in []SwitchInput, max bool, delay func(size int) Normal, eps float64) (*PMF, float64) {
	ord := in
	// suffix[i] is the exact total occurrence weight of the subtree
	// rooted at input i per unit of incoming weight (eps > 0 only).
	var suffix []float64
	if eps > 0 {
		idx := make([]int, len(in))
		masses := make([]float64, len(in))
		for i := range in {
			idx[i] = i
			masses[i] = in[i].TOP.Mass()
		}
		sort.SliceStable(idx, func(a, b int) bool { return masses[idx[a]] < masses[idx[b]] })
		ord = make([]SwitchInput, len(in))
		suffix = make([]float64, len(ord)+1)
		suffix[len(ord)] = 1
		for i := len(ord) - 1; i >= 0; i-- {
			ord[i] = in[idx[i]]
			suffix[i] = (ord[i].Stay + masses[idx[i]]) * suffix[i+1]
		}
	}
	out := NewPMF(g)
	budget, pruned := eps, 0.0
	leaves, cuts, cutLeaves := int64(0), int64(0), int64(0)
	var rec func(i, size int, weight float64, acc *PMF)
	rec = func(i, size int, weight float64, acc *PMF) {
		if weight == 0 {
			return
		}
		if i == len(ord) {
			leaves++
			if acc == nil {
				return
			}
			out.AccumWeighted(delayed(m, acc, delay(size)), weight)
			return
		}
		if suffix != nil {
			if sub := weight * suffix[i]; sub <= budget {
				budget -= sub
				pruned += sub
				cuts++
				cutLeaves += int64(1) << uint(len(ord)-i)
				return
			}
		}
		s := ord[i]
		rec(i+1, size, weight*s.Stay, acc)
		mass := s.TOP.Mass()
		if mass == 0 {
			return
		}
		cond := s.TOP.Clone()
		cond.Scale(1 / mass)
		next := cond
		if acc != nil {
			next = combine(m, acc, cond, max)
		}
		rec(i+1, size+1, weight*mass, next)
	}
	rec(0, 0, 1, nil)
	if m != nil {
		m.SubsetLeaves.Add(len(in), leaves)
		m.CostLeafOps.Add(leaves)
		if eps > 0 {
			m.PrunedSubtrees.Add(cuts)
			m.PrunedLeaves.Add(len(in), cutLeaves)
			m.PrunedMassFP.Add(obs.MassFP(pruned))
		}
	}
	return out, pruned
}

// combine returns the unit-mass MAX (or MIN) of two conditional
// arrival pdfs, one subset-enumeration step, charging it to m.
func combine(m *obs.Metrics, acc, cond *PMF, max bool) *PMF {
	next := NewPMF(acc.grid)
	if max {
		MaxPMFInto(m, next, acc, cond)
	} else {
		MinPMFInto(m, next, acc, cond)
	}
	next.Scale(1 / next.Mass())
	return next
}

// delayed returns acc shifted (deterministic d) or convolved with the
// discretization of d, charging it to m.
func delayed(m *obs.Metrics, acc *PMF, d Normal) *PMF {
	if d.Sigma == 0 {
		return acc.ShiftInto(m, NewPMF(acc.grid), d.Mu)
	}
	return acc.ConvolveInto(m, NewPMF(acc.grid), FromNormal(acc.grid, d))
}
