package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/netlist"
	"repro/internal/synth"
)

func opBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	ops, err := servedOps(seed, 500)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, o := range ops {
		b.WriteString(o.class + " " + o.circuit + " " + o.path + " ")
		b.Write(o.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// poolDigest digests the circuits of a benchmark seed's engine pool.
func poolDigest(t *testing.T, seed int64) string {
	t.Helper()
	var ds []string
	for k := 0; k < poolSize; k++ {
		c, err := synth.Generate(s5378(poolSeed(seed, k)))
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, netlist.Digest(c, nil))
	}
	return strings.Join(ds, " ")
}

// TestSeedFixesInputs: one seed gives a byte-identical operation
// sequence and the same circuits; another seed changes both, and no
// circuit appears twice in two pools.
func TestSeedFixesInputs(t *testing.T) {
	if !bytes.Equal(opBytes(t, 7), opBytes(t, 7)) {
		t.Error("seed 7 gave two different operation sequences")
	}
	if bytes.Equal(opBytes(t, 7), opBytes(t, 8)) {
		t.Error("seeds 7 and 8 gave the same operation sequence")
	}
	if poolDigest(t, 7) != poolDigest(t, 7) {
		t.Error("seed 7 gave two different circuit pools")
	}
	a, b := strings.Fields(poolDigest(t, 7)), strings.Fields(poolDigest(t, 8))
	seen := map[string]bool{}
	for _, d := range append(a, b...) {
		if seen[d] {
			t.Error("two circuits of seeds 7 and 8 are the same")
		}
		seen[d] = true
	}
}

// TestMixedClassCounts: every group of ten serve-mixed requests, for
// every seed, is four hits, four deltas and two cold runs.
func TestMixedClassCounts(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		ops, err := servedOps(seed, 500)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < len(ops); g += 10 {
			n := map[string]int{}
			for _, o := range ops[g : g+10] {
				n[o.class]++
			}
			if n["hot"] != 4 || n["delta"] != 4 || n["cold"] != 2 {
				t.Fatalf("seed %d, requests %d-%d: class counts %v, want 4/4/2", seed, g, g+9, n)
			}
		}
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if v, n := percentile(xs, c.p); v != c.want || n != len(xs) {
			t.Errorf("p%g = (%g, %d), want (%g, %d)", c.p, v, n, c.want, len(xs))
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if v, n := percentile(nil, 50); v != 0 || n != 0 {
		t.Errorf("empty input: (%g, %d), want (0, 0)", v, n)
	}
	// Two classes an order of magnitude apart: the class percentile is
	// the geometric mean of the per-class medians, not a value on the
	// boundary between them.
	ys := []float64{1, 100, 1, 100, 1, 100}
	class := []string{"a", "b", "a", "b", "a", "b"}
	if v, n := classPercentile(ys, class, 50); math.Abs(v-10) > 1e-12 || n != 6 {
		t.Errorf("class p50 = (%g, %d), want (10, 6)", v, n)
	}
	// Twenty blocks' worth of samples, one block of them slow: the
	// median over blocks ignores it.
	zs := make([]float64, 200)
	for i := range zs {
		zs[i] = 2
		if i < 20 {
			zs[i] = 50
		}
	}
	if v, n := blockPercentile[int](zs, nil, 90); v != 2 || n != 200 {
		t.Errorf("block p90 = (%g, %d), want (2, 200)", v, n)
	}
	if r := blockRate(zs); r != 500 {
		t.Errorf("block rate of 2 ms operations = %g/s, want 500/s", r)
	}
	done := make([]time.Duration, 100)
	for i := range done {
		done[i] = time.Duration(i) * 10 * time.Millisecond
	}
	if r := windowRate(done, time.Second); r != 100 {
		t.Errorf("window rate of one completion per 10 ms = %g/s, want 100/s", r)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func declaredNames() map[string]bool {
	names := map[string]bool{"error_rate": true}
	for _, m := range endToEnd {
		names[m.Name] = true
	}
	for _, m := range perLayer {
		names[m.Name] = true
	}
	for _, m := range reportOnly {
		names[m.name] = true
	}
	return names
}

func TestMetricNames(t *testing.T) {
	n := len(endToEnd) + len(perLayer) + len(reportOnly) + 1
	names := declaredNames()
	if len(names) != n {
		t.Errorf("%d metrics declared but %d distinct names", n, len(names))
	}
	for name := range names {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
	}
}

// TestManifestUpToDate: the checked-in BENCHMARK.json is the one the
// tables generate.
func TestManifestUpToDate(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Error("BENCHMARK.json is stale; regenerate it with: go run . -write-manifest ../BENCHMARK.json")
	}
}

// TestManifestContract: BENCHMARK.json stays within the limits its
// readers enforce.
func TestManifestContract(t *testing.T) {
	b := manifestJSON()
	if len(b) > 64<<10 {
		t.Errorf("manifest is %d bytes", len(b))
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	name := func(n string) {
		if !metricName.MatchString(n) || names[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		names[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	largest, setup := 0.0, 0.0
	for _, m := range endToEnd {
		name(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q, bound %g", m.Name, m.Unit, m.Bound)
		}
		largest = max(largest, m.Bound)
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = m.Bound
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s bound %g, largest bound %g", setup, largest)
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

// TestExactCountsRepeat runs short traced runs twice and requires every
// count marked exact to repeat, every output check to pass, and every
// emitted metric to be a declared one.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engines and a server")
	}
	names := declaredNames()
	for _, c := range []struct {
		workload string
		ops      int
	}{{"engine-unit", poolSize + 2}, {"engine-variational", poolSize + 2}, {"serve-mixed", 40}} {
		w, ok := lookupWorkload(c.workload)
		if !ok {
			t.Fatalf("no workload %s", c.workload)
		}
		var runs [2]*report
		for i := range runs {
			rep, err := w.run(runConfig{workload: w.Name, seed: 3, ops: c.ops, traced: true})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if rep.check.failed != 0 {
				t.Fatalf("%s: %d failed checks: %v", w.Name, rep.check.failed, rep.check.first)
			}
			for name := range rep.values {
				if !names[name] {
					t.Errorf("%s emitted undeclared metric %q", w.Name, name)
				}
			}
			runs[i] = rep
		}
		for _, m := range perLayer {
			if m.exact && runs[0].values[m.Name] != runs[1].values[m.Name] {
				t.Errorf("%s %s: %v then %v", w.Name, m.Name, runs[0].values[m.Name], runs[1].values[m.Name])
			}
		}
	}
}

// TestFailedCheckFailsRun: one failed check makes the result incorrect.
func TestFailedCheckFailsRun(t *testing.T) {
	rep := newReport(runConfig{workload: "engine-unit", seed: 1, ops: 1}, 1)
	rep.check.record(nil)
	rep.check.record(os.ErrInvalid)
	var out, errOut bytes.Buffer
	if rep.print(&out, &errOut) {
		t.Fatal("print reported success with a failed check")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}
}

// TestKSDistanceOfRebinned: re-binning moves a PMF's cumulative mass by
// at most the bound Rebin returns, and a PMF is at distance 0 from
// itself.
func TestKSDistanceOfRebinned(t *testing.T) {
	g := dist.NewGrid(0, 8, 1.0/16)
	p := dist.FromNormal(g, dist.Normal{Mu: 4, Sigma: 0.7})
	if d, err := ksDistance(p, p); err != nil || d != 0 {
		t.Fatalf("distance to itself: %v, %v", d, err)
	}
	for _, f := range []int{2, 4} {
		q := p.Clone()
		bound := q.Rebin(g.Coarsen(f), f)
		d, err := ksDistance(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 || d > bound+1e-12 {
			t.Errorf("factor %d: distance %v, want in (0, %v]", f, d, bound)
		}
	}
	if _, err := ksDistance(p, dist.FromNormal(dist.NewGrid(0.5, 8, 1.0/16), dist.Normal{Mu: 4, Sigma: 1})); err == nil {
		t.Error("grids with different left edges compared without error")
	}
	if math.IsNaN(geomean(1, 4)) || geomean(1, 4) != 2 {
		t.Errorf("geomean(1, 4) = %v", geomean(1, 4))
	}
}

// TestGoldenSketch: the recorded golden of circuit seed 0 matches a
// fresh analysis; the sketch ignores a floating-point-sized change and
// catches a change of one probability by 1e-6.
func TestGoldenSketch(t *testing.T) {
	if n := len(goldens()); n != 256*poolSize {
		t.Fatalf("%d goldens recorded, want %d", n, 256*poolSize)
	}
	c, err := synth.Generate(s5378(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := unitSetting.analyzer(nil).Run(c, experiments.Inputs(c, experiments.ScenarioI))
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(runConfig{workload: "engine-unit"}, 1)
	ec := &engineCircuit{seed: 0, c: c}
	if err := verifyGolden(rep, ec, res); err != nil || rep.env.GoldenMatched != 1 {
		t.Fatalf("fresh analysis: %v (matched %d)", err, rep.env.GoldenMatched)
	}
	// Move mass between two values of one net, so the probabilities
	// still sum to 1 and only the sketch can notice.
	p := &res.State[len(res.State)/2].P
	p[0], p[1] = p[0]+1e-13, p[1]-1e-13
	if err := verifyGolden(rep, ec, res); err != nil {
		t.Errorf("a 1e-13 change failed the check: %v", err)
	}
	p[0], p[1] = p[0]+1e-6, p[1]-1e-6
	if err := verifyGolden(rep, ec, res); err == nil {
		t.Error("a 1e-6 change passed the check")
	}
}

// TestNoRetiredKnobs: the benchmark stays off the knobs slated for
// deletion (the scheduler and precision selectors, the facade
// variants), so removing them never requires editing the benchmark.
func TestNoRetiredKnobs(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, knob := range []string{"Batched", "Precision", "AnalyzeSPSTA", `"batched"`, `"precision"`} {
			if bytes.Contains(b, []byte(knob)) {
				t.Errorf("%s mentions %s", f, knob)
			}
		}
	}
}
