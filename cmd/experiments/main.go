// Command experiments regenerates the paper's evaluation: Table 2
// (arrival statistics under scenarios I and II), Table 3 (runtimes)
// and Figures 1–4.
//
// Usage:
//
//	experiments                  # everything
//	experiments -run table2      # one artifact: table2, table3,
//	                             # fig1, fig2, fig3, fig4, summary
//	experiments -runs 2000       # faster Monte Carlo
//	experiments -circuits s208,s298
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	what := flag.String("run", "all", "artifact: all, table2, table3, fig1, fig2, fig3, fig4, summary, ablation, sweep")
	runs := flag.Int("runs", 10000, "Monte Carlo run count")
	seed := flag.Int64("seed", 1, "Monte Carlo seed; Monte Carlo output is deterministic for a fixed (-seed, -workers) pair")
	workers := flag.Int("workers", 0, "worker goroutines for the SPSTA level-parallel schedule (0 = GOMAXPROCS) and the Monte Carlo shard count (0 = one shard, so output does not depend on the host); SPSTA results are identical for any worker count")
	circuits := flag.String("circuits", "", "comma-separated circuit subset (default: all nine)")
	epsilon := flag.Float64("epsilon", 0, "SPSTA per-net adaptive-pruning error budget (0 = exact); reported probabilities deviate from exact by at most the consumed budget")
	coarsen := flag.String("coarsen", "off", "SPSTA depth-adaptive grid coarsening: off or auto (re-bin 2x whenever a level's widest support exceeds 96 bins; the re-binning deviation is folded into the consumed budget; DESIGN.md \u00a715)")
	metricsOut := flag.String("metrics", "", "write an aggregated engine-metrics snapshot of every run as JSON to this file (- for stdout)")
	flag.Parse()

	cmode, err := core.ParseCoarsenMode(*coarsen)
	if err != nil {
		return err
	}
	cfg := experiments.Config{MCRuns: *runs, Seed: *seed, Workers: *workers, Epsilon: *epsilon,
		Coarsen: core.CoarsenPolicy{Mode: cmode}}
	if *circuits != "" {
		cfg.Circuits = strings.Split(*circuits, ",")
	}
	if *metricsOut != "" {
		cfg.Obs = obs.NewScope()
	}
	out := os.Stdout

	needTables := *what == "all" || *what == "table2" || *what == "table3" || *what == "summary"
	var analysesI, analysesII []experiments.Analysis
	if needTables {
		if analysesI, err = experiments.RunAll(cfg, experiments.ScenarioI); err != nil {
			return err
		}
		if analysesII, err = experiments.RunAll(cfg, experiments.ScenarioII); err != nil {
			return err
		}
	}

	section := func(f func() error) error {
		if err := f(); err != nil {
			return err
		}
		fmt.Fprintln(out)
		return nil
	}

	if *what == "all" || *what == "table2" {
		rowsI := experiments.Table2Rows(analysesI)
		rowsII := experiments.Table2Rows(analysesII)
		if err := section(func() error { return experiments.WriteTable2(out, experiments.ScenarioI, rowsI) }); err != nil {
			return err
		}
		if err := section(func() error { return experiments.WriteTable2(out, experiments.ScenarioII, rowsII) }); err != nil {
			return err
		}
	}
	if *what == "all" || *what == "summary" {
		rows := append(experiments.Table2Rows(analysesI), experiments.Table2Rows(analysesII)...)
		if err := section(func() error { return experiments.WriteSummary(out, experiments.Summarize(rows)) }); err != nil {
			return err
		}
	}
	if *what == "all" || *what == "table3" {
		// Table 3 from scenario I runs, as in the paper.
		if err := section(func() error {
			return experiments.WriteTable3(out, cfg.MCRuns, experiments.Table3Rows(analysesI))
		}); err != nil {
			return err
		}
	}
	if *what == "all" || *what == "fig1" {
		if err := section(func() error { return experiments.Fig1(out, cfg, experiments.ScenarioI) }); err != nil {
			return err
		}
	}
	if *what == "all" || *what == "fig2" {
		if err := section(func() error { return experiments.Fig2(out) }); err != nil {
			return err
		}
	}
	if *what == "all" || *what == "fig3" {
		if err := section(func() error { return experiments.Fig3(out) }); err != nil {
			return err
		}
	}
	if *what == "all" || *what == "fig4" {
		if err := section(func() error { return experiments.Fig4(out) }); err != nil {
			return err
		}
	}
	if *what == "all" || *what == "sweep" {
		if err := section(func() error {
			pts, err := experiments.Sweep("s344", nil, cfg)
			if err != nil {
				return err
			}
			return experiments.WriteSweep(out, "s344", pts)
		}); err != nil {
			return err
		}
	}
	if *what == "all" || *what == "ablation" {
		if err := section(func() error {
			rows, err := experiments.Ablation(cfg)
			if err != nil {
				return err
			}
			return experiments.WriteAblation(out, rows)
		}); err != nil {
			return err
		}
	}
	switch *what {
	case "all", "table2", "table3", "summary", "fig1", "fig2", "fig3", "fig4", "ablation", "sweep":
		return writeMetrics(cfg.Obs, *metricsOut)
	}
	return fmt.Errorf("unknown artifact %q", *what)
}

// writeMetrics dumps the harness scope's aggregated snapshot — every
// analyzer and Monte Carlo run of this invocation — as indented JSON.
func writeMetrics(scope *obs.Scope, path string) error {
	if path == "" {
		return nil
	}
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(scope.Snapshot())
}
