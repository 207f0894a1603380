package core

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

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_top.txt from the current engine")

const goldenTOPFile = "testdata/golden_top.txt"

// goldenDigest hashes a result's float64 bits in net order: the four
// probabilities, PrunedMass, Budget, then per direction the result
// grid, the support bounds and every bin inside the support (bins
// outside it are zero by the PMF invariant).
func goldenDigest(res *Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	putF := func(v float64) { put(math.Float64bits(v)) }
	putF(res.Grid.Lo)
	putF(res.Grid.Dt)
	put(uint64(res.Grid.N))
	for i := range res.State {
		st := &res.State[i]
		for _, p := range st.P {
			putF(p)
		}
		putF(st.PrunedMass)
		putF(st.Budget)
		for _, p := range st.TOP {
			lo, hi := p.Support()
			put(uint64(lo))
			put(uint64(hi))
			for k := lo; k < hi; k++ {
				putF(p.W(k))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenTOPLines runs the default analyzer (Workers 1) over every
// built-in profile × scenario (I uniform, II skewed) × ε ∈ {0, 1e-4}
// × σ ∈ {0, 0.2} × coarsen ∈ {off, fixed, auto} and returns one
// "cell digest" line per run.
func goldenTOPLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, p := range synth.Profiles() {
		c, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, scen := range []struct {
			name string
			in   map[netlist.NodeID]logic.InputStats
		}{{"I", uniform(c)}, {"II", skewed(c)}} {
			for _, eps := range []float64{0, 1e-4} {
				for _, sigma := range []float64{0, 0.2} {
					var delay ssta.DelayModel
					if sigma > 0 {
						delay = varDelay
					}
					for _, mode := range []CoarsenMode{CoarsenOff, CoarsenFixed, CoarsenAuto} {
						a := Analyzer{Workers: 1, Delay: delay, ErrorBudget: eps, Coarsen: CoarsenPolicy{Mode: mode}}
						res, err := a.Run(c, scen.in)
						if err != nil {
							t.Fatal(err)
						}
						lines = append(lines, fmt.Sprintf("%s %s eps=%g sigma=%g coarsen=%s %s",
							p.Name, scen.name, eps, sigma, mode, goldenDigest(res)))
					}
				}
			}
		}
	}
	return lines
}

// TestGoldenTOP pins the float64 SPSTA engine to a recorded
// reference: for every cell of the grid above, a SHA-256 over the
// bits of every net's probabilities, certificates, support bounds and
// t.o.p. bins must match testdata/golden_top.txt. Engine-vs-engine
// equivalence tests cannot catch a change that moves every mode the
// same way; this one can. Regenerate only for an intended numeric
// change:
//
//	go test ./internal/core -run TestGoldenTOP -update
func TestGoldenTOP(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; Go may fuse multiply-adds on %s, which changes the low bits", runtime.GOARCH)
	}
	got := goldenTOPLines(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenTOPFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTOPFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenTOPFile)
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
	if len(got) != len(want) {
		t.Fatalf("%d cells, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
