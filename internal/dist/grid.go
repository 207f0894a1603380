package dist

import (
	"fmt"

	"repro/internal/obs"
)

// Grid is a uniform time grid shared by all discretized
// distributions of one analysis. Bin i covers
// [Lo + i·Dt, Lo + (i+1)·Dt) and is represented by its center.
//
// Every binary PMF operation requires both operands to live on the
// same grid; mixing grids is a programming error and panics. Grid
// identity is its geometry (Lo, Dt, N) — the metrics handle a grid
// may carry does not participate in Equal or the cross-grid checks.
type Grid struct {
	Lo float64 // left edge of bin 0
	Dt float64 // bin width
	N  int     // number of bins

	// met is the observability registry of the analysis this grid
	// belongs to; nil disables instrumentation. The kernels in this
	// package have no config struct, so the scoped-metrics handle
	// rides on the grid value they already receive — one plain field
	// load per kernel call, free on the disabled path.
	met *obs.Metrics
}

// NewGrid builds a grid covering [lo, hi] with bin width dt.
func NewGrid(lo, hi, dt float64) Grid {
	if dt <= 0 || hi <= lo {
		panic(fmt.Sprintf("dist: invalid grid [%v,%v] dt=%v", lo, hi, dt))
	}
	n := int((hi-lo)/dt + 0.5)
	if n < 1 {
		n = 1
	}
	return Grid{Lo: lo, Dt: dt, N: n}
}

// TimingGrid returns the grid used by the timing analyzers for a
// circuit of the given unit-delay depth with N(mu, sigma)
// launch-point arrivals: [mu−8σ, depth+mu+8σ] with 16 bins per unit
// delay, so unit gate delays shift by an exact number of bins.
func TimingGrid(depth int, mu, sigma float64) Grid {
	pad := 8 * sigma
	if pad < 4 {
		pad = 4
	}
	return NewGrid(mu-pad, float64(depth)+mu+pad, 1.0/16)
}

// Hi returns the right edge of the last bin.
func (g Grid) Hi() float64 { return g.Lo + float64(g.N)*g.Dt }

// X returns the center of bin i.
func (g Grid) X(i int) float64 { return g.Lo + (float64(i)+0.5)*g.Dt }

// Edge returns the left edge of bin i (Edge(N) is the right edge of
// the grid).
func (g Grid) Edge(i int) float64 { return g.Lo + float64(i)*g.Dt }

// Index returns the bin containing x, clamped to [0, N-1].
func (g Grid) Index(x float64) int {
	i := int((x - g.Lo) / g.Dt)
	if i < 0 {
		return 0
	}
	if i >= g.N {
		return g.N - 1
	}
	return i
}

// WithMetrics returns a copy of the grid carrying the metrics
// registry (nil detaches). Analyzers attach their scope's registry
// before building PMFs so every kernel call site records into it.
func (g Grid) WithMetrics(m *obs.Metrics) Grid {
	g.met = m
	return g
}

// Metrics returns the registry the grid carries, or nil when
// instrumentation is disabled.
func (g Grid) Metrics() *obs.Metrics { return g.met }

// Coarsen returns the factor×-coarser grid sharing the same left
// edge: bin width Dt·factor and ceil(N/factor) bins, so every fine
// bin i maps wholly into coarse bin i/factor. The metrics handle
// carries over. The multi-resolution scheduler walks
// TimingGrid resolutions down through Coarsen(2)/Coarsen(4) as
// supports widen with depth (DESIGN.md §15).
func (g Grid) Coarsen(factor int) Grid {
	if factor < 1 {
		panic(fmt.Sprintf("dist: Coarsen factor %d < 1", factor))
	}
	g.N = (g.N + factor - 1) / factor
	g.Dt *= float64(factor)
	return g
}

// Equal reports whether two grids have identical geometry. The
// metrics handle is ignored: a caller-built bare grid and the same
// grid tagged by an analyzer are the same grid.
func (g Grid) Equal(o Grid) bool { return g.Lo == o.Lo && g.Dt == o.Dt && g.N == o.N }

func (g Grid) check(o Grid, op string) {
	if !g.Equal(o) {
		panic(fmt.Sprintf("dist: %s across different grids: [%v,%v) dt=%v n=%d vs [%v,%v) dt=%v n=%d",
			op, g.Lo, g.Hi(), g.Dt, g.N, o.Lo, o.Hi(), o.Dt, o.N))
	}
}
