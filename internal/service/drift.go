// Accuracy-drift monitor: a background loop that periodically replays
// the most recent sampled request through the packed Monte Carlo
// engine and compares the SPSTA analyzer's arrival statistics against
// the simulation at the circuit's critical endpoint. The absolute
// mean and sigma deviations are exported as the drift deviation
// gauges of /metrics and the timeline, so a regression that skews the
// analytic engines away from simulation — a bad kernel, a mis-tuned
// pruning budget — shows up on a dashboard without anyone issuing
// compare requests.
package service

import (
	"time"

	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ssta"
)

func (s *Service) driftLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.DriftInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			// Each replay runs under a synthetic request identity (a
			// drift- request ID and a fresh trace ID), so drift log
			// lines correlate the same way client requests do.
			did, tid := newDriftID(), obs.NewTraceID()
			if err := s.runDriftCheck(did, tid); err != nil {
				s.log.Error("drift check failed",
					"request_id", did, "trace_id", tid, "error", err.Error())
			}
		}
	}
}

func newDriftID() string { return "drift-" + newRequestID()[len("req-"):] }

// RunDriftCheck performs one drift replay synchronously: it re-runs
// the most recent sampled request's circuit through the SPSTA
// analyzer the request was served with (its coarsening included) and
// the packed Monte Carlo engine and updates the deviation gauges. A no-op when no request has been sampled yet.
// The ticker loop runs the same replay; tests may call it directly.
func (s *Service) RunDriftCheck() error {
	return s.runDriftCheck(newDriftID(), obs.NewTraceID())
}

func (s *Service) runDriftCheck(did, tid string) error {
	s.mu.Lock()
	req := s.sampled
	s.mu.Unlock()
	if req == nil {
		return nil
	}
	c, _, err := s.resolveSource(req.Circuit, req.Bench, req.NetlistRef)
	if err != nil {
		return err
	}
	in := scenarioInputs(c, req.Scenario)
	a := req.spstaAnalyzer(nil)
	sp, err := a.Run(c, in)
	if err != nil {
		return err
	}
	ep := c.CriticalEndpoint()
	mc, err := montecarlo.Simulate(c, in, montecarlo.Config{
		Runs: s.cfg.DriftRuns, Seed: req.Seed, Workers: req.mcWorkers(),
		Delay: req.delay(), MomentNets: []netlist.NodeID{ep},
	})
	if err != nil {
		return err
	}
	var muDev, sigmaDev float64
	for _, dir := range []ssta.Dir{ssta.DirRise, ssta.DirFall} {
		am, as, _ := sp.Arrival(ep, dir)
		m := mc.Arrival(ep, dir)
		if m.N() == 0 {
			continue // endpoint never transitioned in this direction
		}
		muDev = max(muDev, abs(am-m.Mean()))
		sigmaDev = max(sigmaDev, abs(as-m.Sigma()))
	}
	s.reg.driftMeanDev.Store(muDev)
	s.reg.driftSigmaDev.Store(sigmaDev)
	s.reg.driftSamples.Add(1)
	s.log.Info("drift check",
		"request_id", did, "trace_id", tid,
		"circuit", c.Name, "endpoint", c.Nodes[ep].Name,
		"mu_dev", muDev, "sigma_dev", sigmaDev, "mc_runs", s.cfg.DriftRuns)
	return nil
}
