// Timing yield under input statistics: sweep the clock period and
// compute the probability that every endpoint has settled, using
// SPSTA's t.o.p. functions (the transition occurrence probabilities
// SSTA cannot provide — advantage 5 in Section 3.7), validated
// against Monte Carlo.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	c, err := repro.GenerateBenchmark("s386")
	if err != nil {
		log.Fatal(err)
	}
	// Scenario II: mostly-quiet inputs (2% rise / 8% fall). Yield
	// under realistic activity is far better than worst-case STA
	// suggests — exactly the pessimism the paper targets.
	in := repro.SkewedInputs(c)

	spsta, err := repro.AnalyzeSPSTA(c, in, repro.SPSTAOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sta := repro.AnalyzeSTA(c, in, nil, 3)
	mc, err := repro.SimulateMonteCarlo(c, in, repro.MonteCarloConfig{Runs: 20000, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

	endpoints := c.Endpoints()

	// SPSTA yield at clock period T: an endpoint violates if it
	// transitions after T; endpoints are treated as independent
	// (the analyzer's standing assumption).
	spstaYield := func(T float64) float64 {
		y := 1.0
		for _, id := range endpoints {
			late := 0.0
			for _, d := range []repro.Dir{repro.DirRise, repro.DirFall} {
				top := spsta.TOP(id, d)
				late += top.Mass() - top.CDFAt(T)
			}
			if late < 0 {
				late = 0
			}
			y *= 1 - late
		}
		return y
	}

	// STA's worst-case "yield": 0 below the latest bound, 1 above.
	staWorst := 0.0
	for _, id := range endpoints {
		for _, d := range []repro.Dir{repro.DirRise, repro.DirFall} {
			if hi := sta.At(id, d).Hi; hi > staWorst {
				staWorst = hi
			}
		}
	}

	// Monte Carlo yield estimated from the per-endpoint arrival
	// samples is approximated here by large-sample normal tails per
	// endpoint; an exact joint estimate would re-simulate, which
	// cmd/experiments does for Table 2.
	mcYield := func(T float64) float64 {
		y := 1.0
		for _, id := range endpoints {
			for _, d := range []repro.Dir{repro.DirRise, repro.DirFall} {
				m := mc.Arrival(id, d)
				if m.N() == 0 {
					continue
				}
				p := mc.P(id, repro.Rise)
				if d == repro.DirFall {
					p = mc.P(id, repro.Fall)
				}
				tail := 1 - repro.Normal{Mu: m.Mean(), Sigma: m.Sigma()}.CDF(T)
				y *= 1 - p*tail
			}
		}
		return y
	}

	fmt.Printf("circuit %s, scenario II, %d endpoints\n", c.Name, len(endpoints))
	fmt.Printf("STA worst-case bound (yield jumps 0 to 1): T = %.2f\n\n", staWorst)
	fmt.Printf("%6s  %12s  %14s\n", "T", "SPSTA yield", "MC-based yield")
	for _, T := range []float64{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12} {
		fmt.Printf("%6.1f  %12.4f  %14.4f\n", T, spstaYield(T), mcYield(T))
	}
	fmt.Println("\nSTA demands the worst-case bound; SPSTA shows the clock can be")
	fmt.Println("tightened well below it at a quantified, input-aware risk.")
}
