// Quickstart: generate a benchmark circuit, run SPSTA and the
// baselines, and print the critical-path arrival statistics — the
// smallest end-to-end tour of the public API.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A profile-matched synthetic version of ISCAS'89 s344. Real
	// .bench files load with repro.ParseBench instead.
	c, err := repro.GenerateBenchmark("s344")
	if err != nil {
		log.Fatal(err)
	}
	st := c.Stats()
	fmt.Printf("circuit %s: %d inputs, %d outputs, %d DFFs, %d gates, depth %d\n",
		st.Name, st.Inputs, st.Outputs, st.DFFs, st.Gates, st.Depth)

	// The paper's scenario I: every launch point is 0/1/r/f with
	// probability 1/4 and transitions arrive ~ N(0,1).
	in := repro.UniformInputs(c)

	// SPSTA: four-value probabilities + t.o.p. functions.
	spsta, err := repro.AnalyzeSPSTA(c, in, repro.SPSTAOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// SSTA baseline and a 10k-run Monte Carlo reference.
	sst := repro.AnalyzeSSTA(c, in, nil)
	mc, err := repro.SimulateMonteCarlo(c, in, repro.MonteCarloConfig{Runs: 10000})
	if err != nil {
		log.Fatal(err)
	}

	end := c.CriticalEndpoint()
	path := c.CriticalPath()
	fmt.Printf("\ncritical endpoint: %s (level %d), path length %d\n",
		c.Nodes[end].Name, c.Nodes[end].Level, len(path))
	fmt.Print("path:")
	for _, id := range path {
		fmt.Printf(" %s", c.Nodes[id].Name)
	}
	fmt.Println()

	fmt.Printf("\n%-28s %10s %10s %10s\n", "rising arrival at endpoint", "mean", "sigma", "P(rise)")
	mean, sigma, prob := spsta.Arrival(end, repro.DirRise)
	fmt.Printf("%-28s %10.3f %10.3f %10.3f\n", "SPSTA", mean, sigma, prob)
	s := sst.At(end, repro.DirRise)
	fmt.Printf("%-28s %10.3f %10.3f %10s\n", "SSTA", s.Mu, s.Sigma, "n/a")
	m := mc.Arrival(end, repro.DirRise)
	fmt.Printf("%-28s %10.3f %10.3f %10.3f\n", "Monte Carlo (10k)", m.Mean(), m.Sigma(), mc.P(end, repro.Rise))

	// Four-value signal probabilities at the endpoint.
	fmt.Printf("\nendpoint value probabilities (SPSTA): 0=%.3f 1=%.3f r=%.3f f=%.3f\n",
		spsta.Probability(end, repro.Zero), spsta.Probability(end, repro.One),
		spsta.Probability(end, repro.Rise), spsta.Probability(end, repro.Fall))
	fmt.Printf("signal probability (time-averaged one): SPSTA %.3f, Monte Carlo %.3f\n",
		spsta.SignalProbability(end), mc.SignalProbability(end))
}
