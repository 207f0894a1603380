// Criticality and waveforms: rank endpoints by the probability of
// being the last to settle (path-based signoff's timing criticality,
// Section 1) from SPSTA's t.o.p. functions, compare with Monte
// Carlo, and print the probability waveform of the most critical
// endpoint — the time-resolved view probabilistic waveform
// simulation (the paper's reference [15]) provides.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"repro"
)

func main() {
	c, err := repro.GenerateBenchmark("s349")
	if err != nil {
		log.Fatal(err)
	}
	in := repro.UniformInputs(c)

	spsta, err := repro.AnalyzeSPSTA(c, in, repro.SPSTAOptions{})
	if err != nil {
		log.Fatal(err)
	}
	mc, err := repro.SimulateMonteCarlo(c, in, repro.MonteCarloConfig{
		Runs:             30000,
		Seed:             11,
		CountCriticality: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	endpoints := c.Endpoints()
	crit := spsta.Criticalities(endpoints)

	type row struct {
		id    repro.NodeID
		spsta float64
		mc    float64
	}
	rows := make([]row, len(endpoints))
	for i, id := range endpoints {
		rows[i] = row{id, crit[i], mc.Criticality(id)}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].spsta > rows[j].spsta })

	fmt.Printf("circuit %s: %d endpoints, scenario I\n\n", c.Name, len(endpoints))
	fmt.Printf("%-8s %5s %16s %16s\n", "endpoint", "level", "SPSTA crit.", "MC crit.")
	for _, r := range rows[:min(8, len(rows))] {
		n := c.Nodes[r.id]
		fmt.Printf("%-8s %5d %16.4f %16.4f\n", n.Name, n.Level, r.spsta, r.mc)
	}

	top := rows[0].id
	fmt.Printf("\nprobability waveform of %s (P(one) over time):\n", c.Nodes[top].Name)
	xs, ys := spsta.Waveform(top)
	// Downsample to a readable sparkline.
	const cols = 64
	step := len(xs) / cols
	if step < 1 {
		step = 1
	}
	var b strings.Builder
	glyphs := []rune(" .:-=+*#%@")
	for i := 0; i < len(xs); i += step {
		g := int(ys[i] * float64(len(glyphs)-1))
		b.WriteRune(glyphs[g])
	}
	fmt.Printf("[%s]\n", b.String())
	fmt.Printf(" t: %.1f%sto %.1f\n", xs[0], strings.Repeat(" ", cols-12), xs[len(xs)-1])
	for _, t := range []float64{-2, 0, 2, 4, 6, 8, 10} {
		fmt.Printf("  P(one at t=%5.1f) = %.4f\n", t, spsta.WaveformAt(top, t))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
