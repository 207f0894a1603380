package experiments

import (
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/report"
	"repro/internal/ssta"
	"repro/internal/symbolic"
)

// AblationRow compares every timing abstraction in the repository on
// one circuit's critical endpoint (rise direction, scenario I):
// discretized SPSTA, analytic (Clark) SPSTA, symbolic canonical
// SPSTA, exact-probability SPSTA, the SSTA baseline, and Monte
// Carlo. This extends the paper's evaluation with the
// accuracy/efficiency tradeoff Sections 3.4–3.6 describe
// qualitatively.
type AblationRow struct {
	Case string

	MCMu, MCSigma             float64
	DiscreteMu, DiscreteSigma float64
	MomentMu, MomentSigma     float64
	SymbolicMu, SymbolicSigma float64
	ExactP, DiscreteP, MCP    float64
	SSTAMu, SSTASigma         float64
}

// Ablation runs the abstraction comparison for the configured
// circuits under scenario I.
func Ablation(cfg Config) ([]AblationRow, error) {
	circuits, err := cfg.circuits()
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, c := range circuits {
		in := Inputs(c, ScenarioI)
		end := c.CriticalEndpoint()

		discrete := core.Analyzer{Workers: cfg.Workers, Obs: cfg.Obs}
		dres, err := discrete.Run(c, in)
		if err != nil {
			return nil, err
		}
		analytic := core.MomentTiming{Obs: cfg.Obs}
		mres, err := analytic.Run(c, in)
		if err != nil {
			return nil, err
		}
		sres, err := symbolic.AnalyzeSPSTA(c, in, symbolic.UnitDelay(1), 1)
		if err != nil {
			return nil, err
		}
		exact := core.Analyzer{ExactProbabilities: true, Workers: cfg.Workers, Obs: cfg.Obs}
		eres, err := exact.Run(c, in)
		if err != nil {
			return nil, err
		}
		sst := ssta.Analyze(c, in, nil)
		mc, err := montecarlo.Simulate(c, in, montecarlo.Config{Runs: cfg.runs(), Seed: cfg.Seed, Workers: cfg.Workers, Obs: cfg.Obs})
		if err != nil {
			return nil, err
		}

		row := AblationRow{Case: c.Name}
		row.DiscreteMu, row.DiscreteSigma, row.DiscreteP = dres.Arrival(end, ssta.DirRise)
		ma, _ := mres.Arrival(end, ssta.DirRise)
		row.MomentMu, row.MomentSigma = ma.Mu, ma.Sigma
		sa, _ := sres.At(end, ssta.DirRise)
		row.SymbolicMu, row.SymbolicSigma = sa.Mean(), sa.Sigma()
		row.ExactP = eres.Probability(end, logic.Rise)
		s := sst.At(end, ssta.DirRise)
		row.SSTAMu, row.SSTASigma = s.Mu, s.Sigma
		m := mc.Arrival(end, ssta.DirRise)
		row.MCMu, row.MCSigma = m.Mean(), m.Sigma()
		row.MCP = mc.P(end, logic.Rise)
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteAblation renders the abstraction comparison.
func WriteAblation(w io.Writer, rows []AblationRow) error {
	t := report.Table{
		Title: "Abstraction ablation: critical-endpoint rise arrival, scenario I",
		Headers: []string{"test", "MC mu", "sig",
			"disc mu", "sig", "mom mu", "sig", "sym mu", "sig",
			"SSTA mu", "sig", "P disc", "P exact", "P MC"},
	}
	for _, r := range rows {
		t.Add(r.Case, report.F(r.MCMu), report.F(r.MCSigma),
			report.F(r.DiscreteMu), report.F(r.DiscreteSigma),
			report.F(r.MomentMu), report.F(r.MomentSigma),
			report.F(r.SymbolicMu), report.F(r.SymbolicSigma),
			report.F(r.SSTAMu), report.F(r.SSTASigma),
			report.F3(r.DiscreteP), report.F3(r.ExactP), report.F3(r.MCP))
	}
	return t.Render(w)
}

// AblationAgreement summarizes how closely the three SPSTA timing
// abstractions agree pairwise (max |Δmu| over rows) — they implement
// the same mixture algebra at different fidelities, so large gaps
// indicate a representation artifact.
func AblationAgreement(rows []AblationRow) (discVsMom, discVsSym float64) {
	for _, r := range rows {
		if d := math.Abs(r.DiscreteMu - r.MomentMu); d > discVsMom {
			discVsMom = d
		}
		if d := math.Abs(r.DiscreteMu - r.SymbolicMu); d > discVsSym {
			discVsSym = d
		}
	}
	return discVsMom, discVsSym
}
