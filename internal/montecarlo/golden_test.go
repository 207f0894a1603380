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

var update = flag.Bool("update", false, "rewrite testdata/golden_mc.txt from the current engine")

const goldenMCFile = "testdata/golden_mc.txt"

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

// goldenMCLines simulates s208, s386 and s1196 (scenario I) under
// unit delays, σ=0.2 delays and a multiple-input-switching model,
// each at Workers 1 and 3 with criticality counting on, and returns
// one "cell digest" line per run. 999 runs leave a partial trailing
// block (999 = 15·64 + 39) and odd shard boundaries.
func goldenMCLines(t *testing.T, packed bool) []string {
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
					CountCriticality: true, Packed: packed}
				res, err := Simulate(c, inputs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%s delay=%s workers=%d %s",
					name, m.name, workers, goldenMCDigest(res)))
			}
		}
	}
	return lines
}

// TestGoldenMC pins both Monte Carlo engines to a recorded reference:
// for every cell above, a SHA-256 over every net's counts and moment
// bits must match testdata/golden_mc.txt, for the packed and the
// scalar engine alike. Packed-versus-scalar tests cannot catch a
// change that moves both engines the same way; this one can.
// Regenerate only for an intended numeric change:
//
//	go test ./internal/montecarlo -run TestGoldenMC -update
func TestGoldenMC(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; Go may fuse multiply-adds on %s, which changes the low bits", runtime.GOARCH)
	}
	if *update {
		got := goldenMCLines(t, true)
		if err := os.MkdirAll(filepath.Dir(goldenMCFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenMCFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenMCFile)
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
	for _, packed := range []bool{true, false} {
		engine := "scalar"
		if packed {
			engine = "packed"
		}
		t.Run(engine, func(t *testing.T) {
			got := goldenMCLines(t, packed)
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
