// Probabilistic power estimation (the Section 2.2 substrate): signal
// probabilities under independence vs. exact BDD evaluation,
// transition densities, a dynamic power estimate, and the SPSTA
// toggling rates that refine them — validated against Monte Carlo.
package main

import (
	"fmt"
	"log"
	"math"

	"repro"
)

func main() {
	c, err := repro.GenerateBenchmark("s298")
	if err != nil {
		log.Fatal(err)
	}
	in := repro.UniformInputs(c)

	// Launch-point one-probabilities and toggling rates.
	inputP := make(map[repro.NodeID]float64)
	inputRho := make(map[repro.NodeID]float64)
	for _, id := range c.LaunchPoints() {
		st := in[id]
		inputP[id] = st.SignalProbability()
		inputRho[id] = st.TogglingRate()
	}

	// 1. Topological signal probabilities (independence).
	indep := repro.SignalProbabilities(c, inputP)

	// 2. Exact BDD-based probabilities (Section 3.5): correlations
	// from reconvergent fanout included.
	exact, err := repro.ExactSignalProbabilities(c, inputP, 0)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Monte Carlo reference.
	mc, err := repro.SimulateMonteCarlo(c, in, repro.MonteCarloConfig{Runs: 30000, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}

	// 4. SPSTA four-value probabilities give toggling rates.
	spsta, err := repro.AnalyzeSPSTA(c, in, repro.SPSTAOptions{})
	if err != nil {
		log.Fatal(err)
	}

	var maxIndepErr, maxExactErr, sumRhoErr float64
	worst := ""
	for _, n := range c.Nodes {
		mcP := mc.SignalProbability(n.ID)
		if e := math.Abs(indep[n.ID] - mcP); e > maxIndepErr {
			maxIndepErr = e
			worst = n.Name
		}
		if e := math.Abs(exact[n.ID] - mcP); e > maxExactErr {
			maxExactErr = e
		}
		sumRhoErr += math.Abs(spsta.TogglingRate(n.ID) - mc.TogglingRate(n.ID))
	}
	fmt.Printf("circuit %s: %d nets\n\n", c.Name, len(c.Nodes))
	fmt.Printf("signal probability vs Monte Carlo (max abs error):\n")
	fmt.Printf("  independence assumption: %.4f (worst at %s)\n", maxIndepErr, worst)
	fmt.Printf("  exact BDD evaluation:    %.4f (sampling noise only)\n\n", maxExactErr)
	fmt.Printf("SPSTA toggling-rate mean abs error vs MC: %.4f\n\n",
		sumRhoErr/float64(len(c.Nodes)))

	// Transition densities and dynamic power.
	rho := repro.TransitionDensities(c, inputP, inputRho)
	const vdd, freq = 1.1, 1e9
	fmt.Printf("dynamic power (Najm densities, Vdd=%.1fV, f=1GHz, unit caps): %.3e\n",
		vdd, repro.DynamicPower(c, rho, vdd, freq))

	// The same estimate from SPSTA's per-net toggling rates, which
	// also account for glitch-filtered four-value propagation.
	spstaRho := make([]float64, len(c.Nodes))
	for _, n := range c.Nodes {
		spstaRho[n.ID] = spsta.TogglingRate(n.ID)
	}
	fmt.Printf("dynamic power (SPSTA toggling rates):                        %.3e\n",
		repro.DynamicPower(c, spstaRho, vdd, freq))

	mcRho := make([]float64, len(c.Nodes))
	for _, n := range c.Nodes {
		mcRho[n.ID] = mc.TogglingRate(n.ID)
	}
	fmt.Printf("dynamic power (Monte Carlo toggling rates):                  %.3e\n",
		repro.DynamicPower(c, mcRho, vdd, freq))

	// Toggle-moment correlations (Eq. 13): the activity of a net
	// and its deepest fanout are strongly correlated.
	tm := repro.AnalyzeToggleMoments(c, in)
	end := c.CriticalEndpoint()
	path := c.CriticalPath()
	if len(path) >= 2 {
		first := path[0]
		fmt.Printf("\ntoggling correlation along the critical path (%s → %s): %.3f\n",
			c.Nodes[first].Name, c.Nodes[end].Name, tm.Corr(first, end))
	}
}
