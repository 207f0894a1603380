package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/ssta"
)

func TestScenarioStats(t *testing.T) {
	if ScenarioI.String() != "I" || ScenarioII.String() != "II" {
		t.Error("Scenario.String wrong")
	}
	if ScenarioI.Stats().SignalProbability() != 0.5 {
		t.Error("scenario I signal probability wrong")
	}
	s := ScenarioII.Stats()
	if s.TogglingRate() != 0.1 {
		t.Error("scenario II toggling rate wrong")
	}
}

func TestConfigCircuits(t *testing.T) {
	cs, err := Config{}.circuits()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 9 {
		t.Errorf("default circuits = %d, want 9", len(cs))
	}
	cs, err = Config{Circuits: []string{"s298"}}.circuits()
	if err != nil || len(cs) != 1 || cs[0].Name != "s298" {
		t.Errorf("restricted circuits = %v, %v", cs, err)
	}
	if _, err := (Config{Circuits: []string{"bogus"}}).circuits(); err == nil {
		t.Error("unknown circuit accepted")
	}
}

func smallCfg() Config {
	return Config{MCRuns: 2000, Seed: 2, Circuits: []string{"s208", "s298"}}
}

func TestRunAllAndTable2(t *testing.T) {
	analyses, err := RunAll(smallCfg(), ScenarioI)
	if err != nil {
		t.Fatal(err)
	}
	if len(analyses) != 2 {
		t.Fatalf("analyses = %d", len(analyses))
	}
	rows := Table2Rows(analyses)
	if len(rows) != 4 { // 2 circuits × 2 directions
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// Layout: all rise rows first, then fall rows (paper layout).
	if rows[0].Dir != ssta.DirRise || rows[3].Dir != ssta.DirFall {
		t.Error("row ordering wrong")
	}
	for _, r := range rows {
		if r.SPSTAMu <= 0 || r.SSTAMu <= 0 {
			t.Errorf("%s %v: non-positive means %v/%v", r.Case, r.Dir, r.SPSTAMu, r.SSTAMu)
		}
		if r.SPSTAP < 0 || r.SPSTAP > 1 || r.MCP < 0 || r.MCP > 1 {
			t.Errorf("%s %v: probability out of range", r.Case, r.Dir)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable2(&buf, ScenarioI, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "s208") || !strings.Contains(out, "SPSTA") {
		t.Errorf("table output malformed:\n%s", out)
	}
}

// TestShapeClaims checks the paper's qualitative claims on the small
// configuration: SPSTA sigma closer to MC than SSTA sigma on
// average, SSTA sigma collapsed below MC, and SPSTA P close to MC P.
func TestShapeClaims(t *testing.T) {
	analyses, err := RunAll(Config{MCRuns: 4000, Seed: 3, Circuits: []string{"s208", "s298", "s344"}}, ScenarioI)
	if err != nil {
		t.Fatal(err)
	}
	rows := Table2Rows(analyses)
	s := Summarize(rows)
	if s.SPSTASigmaErr >= s.SSTASigmaErr {
		t.Errorf("SPSTA sigma error %.3f not better than SSTA %.3f",
			s.SPSTASigmaErr, s.SSTASigmaErr)
	}
	if s.SPSTAMuErr > 0.25 {
		t.Errorf("SPSTA mean error %.3f too large", s.SPSTAMuErr)
	}
	// SSTA sigma is below MC sigma in every usable row (observation
	// 3); rows whose endpoint practically never transitions have no
	// MC arrival sample and are skipped.
	below, usable := 0, 0
	for _, r := range rows {
		if r.MCSigma <= 0.05 {
			continue
		}
		usable++
		if r.SSTASigma < r.MCSigma {
			below++
		}
	}
	if usable == 0 {
		t.Fatal("no usable rows with MC transition samples")
	}
	if below < usable {
		t.Errorf("SSTA sigma below MC in only %d/%d usable rows", below, usable)
	}
	var buf bytes.Buffer
	if err := WriteSummary(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "arrival sigma") {
		t.Error("summary output malformed")
	}
}

func TestTable3(t *testing.T) {
	analyses, err := RunAll(smallCfg(), ScenarioI)
	if err != nil {
		t.Fatal(err)
	}
	rows := Table3Rows(analyses)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MonteCarlo <= r.SSTA {
			t.Errorf("%s: MC %v not slower than SSTA %v", r.Case, r.MonteCarlo, r.SSTA)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable3(&buf, 2000, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MC/SPSTA") {
		t.Error("table 3 output malformed")
	}
}

func TestFigures(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1(&buf, Config{MCRuns: 2000, Seed: 4}, ScenarioI); err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	if !strings.Contains(buf.String(), "STA bounds") {
		t.Error("Fig1 output malformed")
	}
	buf.Reset()
	if err := Fig2(&buf); err != nil {
		t.Fatalf("Fig2: %v", err)
	}
	if !strings.Contains(buf.String(), "SUM") {
		t.Error("Fig2 output malformed")
	}
	buf.Reset()
	if err := Fig3(&buf); err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	if !strings.Contains(buf.String(), "0.250") {
		t.Errorf("Fig3 output missing AND probability:\n%s", buf.String())
	}
	buf.Reset()
	if err := Fig4(&buf); err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "WEIGHTED SUM") {
		t.Error("Fig4 output malformed")
	}
}

func TestAblation(t *testing.T) {
	rows, err := Ablation(Config{MCRuns: 3000, Seed: 6, Circuits: []string{"s298", "s344"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The three SPSTA abstractions agree on the mixture means.
	dm, ds := AblationAgreement(rows)
	if dm > 0.5 {
		t.Errorf("discrete vs moments max gap = %v", dm)
	}
	if ds > 0.5 {
		t.Errorf("discrete vs symbolic max gap = %v", ds)
	}
	for _, r := range rows {
		// Exact probability stays a probability and near the
		// independence value on these circuits.
		if r.ExactP < 0 || r.ExactP > 1 {
			t.Errorf("%s: exact P = %v", r.Case, r.ExactP)
		}
	}
	var buf bytes.Buffer
	if err := WriteAblation(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Abstraction ablation") {
		t.Error("ablation table malformed")
	}
}

func TestSweep(t *testing.T) {
	pts, err := Sweep("s298", []float64{0.1, 0.5, 0.9}, Config{MCRuns: 4000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// SSTA is flat across activity; SPSTA's transition probability
	// grows with activity.
	for i := 1; i < len(pts); i++ {
		if pts[i].SSTAMu != pts[0].SSTAMu || pts[i].SSTASigma != pts[0].SSTASigma {
			t.Error("SSTA not constant across the sweep")
		}
		if pts[i].TransitionP < pts[i-1].TransitionP {
			t.Errorf("transition probability not monotone: %v", pts)
		}
	}
	// Invalid rho rejected.
	if _, err := Sweep("s298", []float64{0}, Config{MCRuns: 100}); err == nil {
		t.Error("rho 0 accepted")
	}
	var buf bytes.Buffer
	if err := WriteSweep(&buf, "s298", pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cannot see input activity") {
		t.Error("sweep output malformed")
	}
}

// TestWorkersShardMonteCarlo: Sweep and Ablation honour Config.Workers
// for their Monte Carlo runs. A sharded simulation records one
// "mc shard" span per worker in the scope's tracer; an unsharded one
// records none.
func TestWorkersShardMonteCarlo(t *testing.T) {
	cases := []struct {
		name string
		run  func(Config) error
	}{
		{"sweep", func(cfg Config) error { _, err := Sweep("s298", []float64{0.5}, cfg); return err }},
		{"ablation", func(cfg Config) error { _, err := Ablation(cfg); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scope := &obs.Scope{Metrics: obs.NewMetrics(), Tracer: obs.NewCoarseTracer()}
			cfg := Config{MCRuns: 300, Seed: 2, Workers: 3, Circuits: []string{"s298"}, Obs: scope}
			if err := tc.run(cfg); err != nil {
				t.Fatal(err)
			}
			shards := 0
			var walk func([]*obs.SpanNode)
			walk = func(nodes []*obs.SpanNode) {
				for _, n := range nodes {
					if n.Cat == "montecarlo" && strings.HasPrefix(n.Name, "mc shard ") {
						shards++
					}
					walk(n.Children)
				}
			}
			walk(scope.Tracer.Tree().Roots)
			if shards != 3 {
				t.Errorf("%d Monte Carlo shard spans, want 3 (one simulation, Workers 3)", shards)
			}
		})
	}
}
