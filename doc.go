// Package repro is a reproduction of Bao Liu, "Signal Probability
// Based Statistical Timing Analysis" (DATE 2008): SPSTA, a
// statistical timing analyzer that propagates four-value signal
// probabilities and signal transition temporal occurrence
// probability (t.o.p.) functions through a gate-level netlist,
// replacing SSTA's input-oblivious MAX operation with a signal
// probability weighted sum over switching-input subsets.
//
// The package is a facade over the implementation packages:
//
//   - SPSTA itself (discretized, analytic/Clark, and symbolic
//     canonical-form abstractions),
//   - the SSTA and STA baselines,
//   - a four-value logic Monte Carlo reference simulator,
//   - probabilistic power estimation (signal probabilities,
//     BDD-exact probabilities, transition densities),
//   - ISCAS'89 bench-format I/O and profile-matched synthetic
//     benchmark generation,
//   - the harness that regenerates the paper's Tables 2 and 3 and
//     Figures 1 through 4.
//
// # Quick start
//
//	c, err := repro.GenerateBenchmark("s344")
//	...
//	in := repro.UniformInputs(c) // paper scenario I
//	res, err := repro.AnalyzeSPSTA(c, in, repro.SPSTAOptions{})
//	...
//	end := c.CriticalEndpoint()
//	mean, sigma, prob := res.Arrival(end, repro.DirRise)
//
// See examples/ for runnable programs and cmd/experiments for the
// full evaluation harness.
package repro
