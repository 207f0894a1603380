// Crosstalk aggressor alignment — the paper's motivating example
// (Section 1): "the probability for two signals to arrive at about
// the same time to activate the crosstalk coupling effect cannot be
// accurately estimated in SSTA, it can only be assumed". This
// program computes that probability from SPSTA's t.o.p. functions
// for victim/aggressor pairs on a benchmark circuit and quantifies
// the pessimism of the always-aligned worst-case assumption.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	c, err := repro.GenerateBenchmark("s382")
	if err != nil {
		log.Fatal(err)
	}
	in := repro.UniformInputs(c)
	spsta, err := repro.AnalyzeSPSTA(c, in, repro.SPSTAOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Couple each endpoint (victim) with a same-level neighbour
	// (aggressor) — a stand-in for adjacent routing.
	endpoints := c.Endpoints()
	var couplings []repro.Coupling
	for _, v := range endpoints {
		lvl := c.Nodes[v].Level
		for _, n := range c.Nodes {
			if n.ID != v && n.Level == lvl && n.Type.Combinational() {
				couplings = append(couplings, repro.Coupling{
					Victim:    v,
					Aggressor: n.ID,
					Window:    0.5,
					Slowdown:  1.0,
					Speedup:   0.5,
				})
				break
			}
		}
		if len(couplings) >= 6 {
			break
		}
	}

	fmt.Printf("circuit %s: %d victim/aggressor pairs, window ±0.5, slowdown 1.0\n\n", c.Name, len(couplings))
	fmt.Printf("%-8s %-9s %4s  %8s %8s %10s %10s %10s\n",
		"victim", "aggressor", "dir", "P(opp)", "P(same)", "base mu", "actual mu", "worst mu")
	totalPess := 0.0
	rows := 0
	for _, cp := range couplings {
		for _, d := range []repro.Dir{repro.DirRise, repro.DirFall} {
			a, err := repro.AnalyzeCrosstalk(spsta, cp, d)
			if err != nil {
				log.Fatal(err)
			}
			if a.Adjusted.Mass() < 0.001 {
				continue
			}
			fmt.Printf("%-8s %-9s %4s  %8.3f %8.3f %10.3f %10.3f %10.3f\n",
				c.Nodes[cp.Victim].Name, c.Nodes[cp.Aggressor].Name, d,
				a.POpposite, a.PSame, a.BaseMean, a.AdjustedMean, a.WorstCaseMean)
			totalPess += a.Pessimism()
			rows++
		}
	}
	if rows > 0 {
		fmt.Printf("\nmean worst-case pessimism across pairs: %.3f delay units\n", totalPess/float64(rows))
	}
	fmt.Println("\nSSTA must take the 'worst mu' column (alignment assumed);")
	fmt.Println("SPSTA weights the slowdown by the actual alignment probability.")
}
