package montecarlo

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/ssta"
)

var update = flag.Bool("update", false, "rewrite the golden Monte Carlo digests in testdata from the current engine")

const (
	goldenMCFile       = "testdata/golden_mc.txt"
	goldenMCEventsFile = "testdata/golden_mc_events.txt"
)

// goldenProbeTimes are the probe times of the events digest: the
// launch instant, inside the launch spread, and two, four and 7.5
// gate delays in.
var goldenProbeTimes = []float64{0, 0.5, 2, 4, 7.5}

// goldenMCDigest hashes a result in net order: the four occurrence
// counts, the criticality count, then per direction the moment
// accumulator's N and the float64 bits of its mean, variance,
// skewness and kurtosis.
func goldenMCDigest(res *Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	for i := range res.Stats {
		s := &res.Stats[i]
		for _, n := range s.Count {
			put(uint64(n))
		}
		put(uint64(s.Critical))
		for _, m := range []*dist.Moments{&s.Rise, &s.Fall} {
			put(uint64(m.N()))
			putF(m.Mean())
			putF(m.Var())
			putF(m.Skewness())
			putF(m.Kurtosis())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenMCEventsDigest hashes a result's per-run event counts in net
// order: the glitch count, then the probe counts at goldenProbeTimes.
func goldenMCEventsDigest(res *Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(n int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(n))
		h.Write(b[:])
	}
	for i := range res.Stats {
		s := &res.Stats[i]
		put(s.Glitches)
		for _, n := range s.OneAt {
			put(n)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenMCLines simulates s208, s386 and s1196 (scenario I) under
// unit delays, σ=0.2 delays and a multiple-input-switching model,
// each at Workers 1 and 3 with criticality counting on, and returns
// one "cell digest" line per run. 999 runs leave a partial trailing
// block (999 = 15·64 + 39) and odd shard boundaries. events turns on
// glitch counting and the goldenProbeTimes probes and digests those
// counts instead (goldenMCEventsDigest).
func goldenMCLines(t *testing.T, run engine, events bool) []string {
	t.Helper()
	models := []struct {
		name  string
		delay ssta.DelayModel
		mis   ssta.MISModel
	}{
		{"unit", nil, nil},
		{"sigma=0.2", func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} }, nil},
		{"mis", nil, func(_ *netlist.Node, k int) dist.Normal {
			return dist.Normal{Mu: 1 + 0.25*float64(k-1), Sigma: 0.1}
		}},
	}
	var lines []string
	for _, name := range []string{"s208", "s386", "s1196"} {
		c := genCircuit(t, name)
		inputs := scenarioInputs(c, logic.UniformStats)
		for _, m := range models {
			for _, workers := range []int{1, 3} {
				cfg := Config{Runs: 999, Seed: 17, Workers: workers, Delay: m.delay, MIS: m.mis,
					CountCriticality: true}
				digest := goldenMCDigest
				if events {
					cfg.CountGlitches, cfg.ProbeTimes = true, goldenProbeTimes
					digest = goldenMCEventsDigest
				}
				res, err := simulate(c, inputs, cfg, run)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%s delay=%s workers=%d %s",
					name, m.name, workers, digest(res)))
			}
		}
	}
	return lines
}

// TestGoldenMC pins the Monte Carlo engine and the scalar reference to
// a recorded reference: for every cell above, a SHA-256 over every
// net's counts and moment bits must match testdata/golden_mc.txt, for
// both alike. Packed-versus-scalar tests cannot catch a change that
// moves both the same way; this one can.
// Regenerate only for an intended numeric change:
//
//	go test ./internal/montecarlo -run TestGoldenMC -update
func TestGoldenMC(t *testing.T) {
	checkGolden(t, goldenMCFile, false)
}

// TestGoldenMCEvents is TestGoldenMC for the glitch and probe counts:
// the same cells with CountGlitches and goldenProbeTimes on, digested
// by goldenMCEventsDigest against testdata/golden_mc_events.txt. The
// digests were recorded from the scalar reference, so the packed
// engine's probe and glitch passes are checked against an independent
// implementation.
func TestGoldenMCEvents(t *testing.T) {
	checkGolden(t, goldenMCEventsFile, true)
}

// checkGolden compares both engines' goldenMCLines against file,
// rewriting it from the packed engine first under -update.
func checkGolden(t *testing.T, file string, events bool) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; Go may fuse multiply-adds on %s, which changes the low bits", runtime.GOARCH)
	}
	if *update {
		got := goldenMCLines(t, simulatePacked, events)
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(file)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, en := range engines {
		t.Run(en.name, func(t *testing.T) {
			got := goldenMCLines(t, en.run, events)
			if len(got) != len(want) {
				t.Fatalf("%d cells, golden file has %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("cell %d:\n got  %s\n want %s", i, got[i], want[i])
				}
			}
		})
	}
}
