package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/ssta"
)

// SweepPoint is one input-activity operating point: launch points
// toggle with probability rho (split evenly between rise and fall,
// the remainder evenly between the constants).
type SweepPoint struct {
	Rho float64

	SPSTAMu, SPSTASigma float64
	SSTAMu, SSTASigma   float64
	MCMu, MCSigma       float64
	// TransitionP is SPSTA's occurrence probability of the observed
	// transition at the endpoint.
	TransitionP float64
}

// Sweep demonstrates the paper's thesis directly: the critical
// endpoint's arrival statistics as a function of the inputs'
// toggling activity. SPSTA and Monte Carlo move together as activity
// changes; SSTA is constant, because it ignores input statistics
// entirely (Section 3.7, advantage 2).
func Sweep(circuit string, rhos []float64, cfg Config) ([]SweepPoint, error) {
	cs, err := Config{Circuits: []string{circuit}}.circuits()
	if err != nil {
		return nil, err
	}
	c := cs[0]
	end := c.CriticalEndpoint()
	if len(rhos) == 0 {
		rhos = []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}
	}
	var out []SweepPoint
	for _, rho := range rhos {
		if rho <= 0 || rho > 1 {
			return nil, fmt.Errorf("experiments: sweep rho %v out of (0,1]", rho)
		}
		st := logic.InputStats{
			P: [logic.NumValues]float64{
				logic.Zero: (1 - rho) / 2,
				logic.One:  (1 - rho) / 2,
				logic.Rise: rho / 2,
				logic.Fall: rho / 2,
			},
			Mu: 0, Sigma: 1,
		}
		in := make(map[netlist.NodeID]logic.InputStats)
		for _, id := range c.LaunchPoints() {
			in[id] = st
		}
		a := core.Analyzer{Workers: cfg.Workers, Obs: cfg.Obs}
		sp, err := a.Run(c, in)
		if err != nil {
			return nil, err
		}
		sst := ssta.Analyze(c, in, nil)
		mc, err := montecarlo.Simulate(c, in, montecarlo.Config{Runs: cfg.runs(), Seed: cfg.Seed, Workers: cfg.Workers, Obs: cfg.Obs})
		if err != nil {
			return nil, err
		}
		p := SweepPoint{Rho: rho}
		p.SPSTAMu, p.SPSTASigma, p.TransitionP = sp.Arrival(end, ssta.DirRise)
		s := sst.At(end, ssta.DirRise)
		p.SSTAMu, p.SSTASigma = s.Mu, s.Sigma
		m := mc.Arrival(end, ssta.DirRise)
		p.MCMu, p.MCSigma = m.Mean(), m.Sigma()
		out = append(out, p)
	}
	return out, nil
}

// WriteSweep renders the activity sweep.
func WriteSweep(w io.Writer, circuit string, pts []SweepPoint) error {
	t := report.Table{
		Title: fmt.Sprintf("Input-activity sweep on %s: critical-endpoint rise arrival vs toggling rate",
			circuit),
		Headers: []string{"rho", "SPSTA mu", "sigma", "P", "MC mu", "sigma", "SSTA mu", "sigma"},
	}
	for _, p := range pts {
		t.Add(report.F(p.Rho),
			report.F(p.SPSTAMu), report.F(p.SPSTASigma), report.F3(p.TransitionP),
			report.F(p.MCMu), report.F(p.MCSigma),
			report.F(p.SSTAMu), report.F(p.SSTASigma))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "SSTA columns are constant by construction: it cannot see input activity.")
	return err
}
