// ε-bounded adaptive pruning (DESIGN.md §11). The t.o.p. engine
// (Analyzer) accepts a per-net error budget ε (ErrorBudget); the
// analytic MomentTiming engine has none and always runs exact. A
// budget of zero is the exact path, bit-identical to the pre-pruning
// engine; a positive budget lets every net spend at most ε of
// occurrence mass on four deterministic approximations:
//
//   - subset branch-and-bound: enumeration subtrees whose exact
//     remaining occurrence weight (maintained as a suffix product
//     over the ordered fanins) fits in the remaining budget are cut
//     whole;
//   - negligible-switcher absorption: mixture inputs whose switching
//     mass fits in the budget are folded into their non-controlling
//     Stay term, shrinking both the factor count and the union
//     support the closed-form mixture kernels visit;
//   - t.o.p. tail truncation: dist.(*PMF).TruncateTail trims
//     low-mass support tails before the function is stored, so every
//     downstream kernel iterates a narrower window;
//   - delay-kernel tail folding: a variational delay convolves with a
//     kernel whose outer tails, holding at most ε/8 (kernelTailShare)
//     of its mass, are folded into its new edge bins. A convolution
//     with input mass m then displaces at most δ·m, δ being the folded
//     share, which worker.storeDelayed charges to PrunedMass and
//     Budget and takes out of that site's truncation allowance. The
//     mass is moved, not removed, so the probabilities keep it.
//
// The mass a net removes is recorded in its state (PrunedMass) and
// folded back into the four-value probabilities — monotone gates
// absorb it into the controlled-value residual bucket, parity gates
// renormalize, buffers fold a trimmed transition into its settled
// value — so probabilities still sum to 1 and the Section 3.5
// correctToExact rescaling stays valid. Budget is the cumulative
// certified deviation bound: the local bound plus every fanin's
// Budget (fanins of one gate are independent inputs of a multilinear
// form, so their bounds add; the certificate resets at launch points,
// matching the engine's per-cycle semantics).
package core

import (
	"math"

	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ssta"
)

// kernelTailShare is the share of ε a delay kernel's folded tails may
// hold: half the smallest per-direction truncation allowance (ε/4), so
// every site keeps at least ε/8 for truncating its result.
const kernelTailShare = 1.0 / 8

// bbState tracks one enumeration's branch-and-bound spending: the
// remaining local budget, the occurrence mass actually cut, and the
// cut/leaf counters flushed to obs afterwards. Budgets are per gate
// and the recursion is sequential, so pruning decisions are
// deterministic for a fixed configuration regardless of how many
// workers evaluate the level.
type bbState struct {
	budget float64
	pruned float64
	cuts   int64
	leaves int64
}

// flush publishes the enumeration's pruning counters (fanin is the
// gate's fanin count, keying the pruned-leaves histogram).
func (bb *bbState) flush(m *obs.Metrics, fanin int) {
	if m == nil || bb == nil {
		return
	}
	m.PrunedSubtrees.Add(bb.cuts)
	m.PrunedLeaves.Add(fanin, bb.leaves)
	m.PrunedMassFP.Add(obs.MassFP(bb.pruned))
}

// pow4 returns 4^n saturating well past any parity fanin cap.
func pow4(n int) int64 {
	if n > 30 {
		n = 30
	}
	return int64(1) << uint(2*n)
}

// absorbNegligible implements negligible-switcher absorption on one
// mixture input slice: inputs ordered by ascending switching mass are
// greedily folded into their Stay term (Stay += mass, TOP replaced by
// the shared empty PMF) while the cumulative absorbed mass fits in
// budget. The WEIGHTED SUM identity keeps the absorbed input's factor
// (Stay + mass) constant, so only subsets containing it — total
// occurrence weight at most its switching mass — are misplaced.
// masses[i] is input i's switching mass (the fanin's transition
// probability, which the engines keep equal to its t.o.p. mass, so no
// support scan is needed here). Returns the absorbed mass.
func absorbNegligible(in []dist.SwitchInput, masses []float64, budget float64, empty *dist.PMF, m *obs.Metrics) float64 {
	if budget <= 0 || len(in) < 2 {
		return 0
	}
	var ordArr [16]int
	ord := ordArr[:0]
	if len(in) > len(ordArr) {
		ord = make([]int, 0, len(in))
	}
	for i := range in {
		ord = append(ord, i)
	}
	// Stable insertion sort by ascending mass: fanins are few, and it
	// allocates nothing.
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && masses[ord[j]] < masses[ord[j-1]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	absorbed := 0.0
	for _, i := range ord {
		mass := masses[i]
		if absorbed+mass > budget {
			break
		}
		absorbed += mass
		in[i] = dist.SwitchInput{Stay: in[i].Stay + mass, TOP: empty}
		if m != nil {
			m.PrunedSubtrees.Add(1)
		}
	}
	if m != nil && absorbed > 0 {
		m.PrunedMassFP.Add(obs.MassFP(absorbed))
	}
	return absorbed
}

// foldTrim folds the tail mass trimmed from a net's stored t.o.p.
// functions (tr from the rise, tf from the fall, each trimmed with
// budget ε/2) into the corresponding settled value (a trimmed rise
// counts as having held 1 all cycle), accumulating the local spend and
// deviation bound. Used by the single-input paths (launch points,
// Buf/Not) whose probabilities were copied from the fanin before the
// trim.
func foldTrim(st *NetState, tr, tf float64) {
	if tr == 0 && tf == 0 {
		return
	}
	st.P[logic.Rise] = clampProb(st.P[logic.Rise] - tr)
	st.P[logic.One] = clampProb(st.P[logic.One] + tr)
	st.P[logic.Fall] = clampProb(st.P[logic.Fall] - tf)
	st.P[logic.Zero] = clampProb(st.P[logic.Zero] + tf)
	st.PrunedMass += tr + tf
	st.Budget += tr + tf
}

// parityOrder returns a parity gate's fanins reordered by ascending
// switching probability (stable, so the order depends only on the
// configuration) together with the suffix products suffix[i] =
// Π_{j≥i} Σ_v P_j[v]: the exact total occurrence weight of the
// enumeration subtree rooted at position i per unit incoming weight.
// Both slices live on the scratch stack sc.
func parityOrder(res *Result, fanin []netlist.NodeID, sc *scratch) ([]netlist.NodeID, []float64) {
	ord := append(sc.ord[:0], fanin...)
	sw := func(id netlist.NodeID) float64 {
		p := &res.State[id]
		return p.P[logic.Rise] + p.P[logic.Fall]
	}
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && sw(ord[j]) < sw(ord[j-1]); j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	if cap(sc.suffix) < len(ord)+1 {
		sc.suffix = make([]float64, len(ord)+1)
	}
	suffix := sc.suffix[:len(ord)+1]
	sc.ord = ord
	suffix[len(ord)] = 1
	for i := len(ord) - 1; i >= 0; i-- {
		p := &res.State[ord[i]]
		total := p.P[logic.Zero] + p.P[logic.One] + p.P[logic.Rise] + p.P[logic.Fall]
		suffix[i] = total * suffix[i+1]
	}
	return ord, suffix
}

// renormParity rescales a parity net's four probabilities and both
// t.o.p. functions back to total mass 1 after branch-and-bound cuts
// and tail trims removed mass from the enumeration (parity gates have
// no residual bucket to fold into), recording the removed mass and
// the renormalization's deviation bound.
func renormParity(st *NetState) {
	total := st.P[logic.Zero] + st.P[logic.One] + st.P[logic.Rise] + st.P[logic.Fall]
	if total <= 0 || total >= 1 {
		return
	}
	m := 1 - total
	scale := 1 / total
	for v := range st.P {
		st.P[v] *= scale
	}
	st.TOP[ssta.DirRise].Scale(scale)
	st.TOP[ssta.DirFall].Scale(scale)
	st.PrunedMass += m
	st.Budget += renormBound(m)
}

// renormBound converts a removed-mass total m into the local
// contribution to the certified deviation bound when the remaining
// probabilities are renormalized by 1/(1−m): each value moves by at
// most m (the removed contributions) plus m/(1−m) (the rescaling).
func renormBound(m float64) float64 {
	if m <= 0 {
		return 0
	}
	if m >= 0.5 {
		return 1
	}
	return m + m/(1-m)
}

// PrunedMass returns the occurrence mass ε-bounded pruning removed at
// net id (0 on exact runs).
func (r *Result) PrunedMass(id netlist.NodeID) float64 { return r.State[id].PrunedMass }

// ConsumedBudget returns net id's cumulative certified deviation
// bound: the local pruning spend plus every combinational fanin's
// consumed budget (0 on exact runs). Four-value probabilities of a
// pruned run deviate from the exact ε=0 run by at most this bound.
func (r *Result) ConsumedBudget(id netlist.NodeID) float64 { return r.State[id].Budget }

// TotalPrunedMass sums the locally pruned mass over every net.
func (r *Result) TotalPrunedMass() float64 {
	s := 0.0
	for i := range r.State {
		s += r.State[i].PrunedMass
	}
	return s
}

// MaxConsumedBudget returns the worst per-net consumed budget — the
// run's certified worst-case four-value probability deviation.
func (r *Result) MaxConsumedBudget() float64 {
	b := 0.0
	for i := range r.State {
		if r.State[i].Budget > b {
			b = r.State[i].Budget
		}
	}
	return b
}

// DeviationBounds returns the certified worst-case deviation of net
// id versus the exact ε=0 analysis: the four-value probability bound
// D = ConsumedBudget(id), and the direction-d conditional arrival
// mean and sigma bounds derived from it (DESIGN.md §11): with grid
// span S and pruned transition mass m̂,
//
//	|Δμ| ≤ 2·D·S / max(m̂−D, 0)    |Δσ| ≤ √(3·D·S²/max(m̂−D, 0) + Δμ²)
//
// both capped at S (a conditional statistic cannot leave the grid).
func (r *Result) DeviationBounds(id netlist.NodeID, d ssta.Dir) (prob, mean, sigma float64) {
	D := r.State[id].Budget
	span := r.Grid.Hi() - r.Grid.Lo
	return deviationBounds(D, r.State[id].TOP[d].Mass(), span)
}

func deviationBounds(D, mass, span float64) (prob, mean, sigma float64) {
	prob = D
	if prob > 1 {
		prob = 1
	}
	if D <= 0 {
		return prob, 0, 0
	}
	denom := mass - D
	if denom <= 0 {
		return prob, span, span
	}
	mean = 2 * D * span / denom
	if mean > span {
		mean = span
	}
	sigma = math.Sqrt(3*D*span*span/denom + mean*mean)
	if sigma > span {
		sigma = span
	}
	return prob, mean, sigma
}
