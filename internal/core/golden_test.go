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

	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/ssta"
	"repro/internal/synth"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current engines")

const (
	goldenTOPFile    = "testdata/golden_top.txt"
	goldenMomentFile = "testdata/golden_moment.txt"
)

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
// × σ ∈ {0, 0.2} × coarsen ∈ {off, auto}, then the MIS cells
// (goldenMISLines), and returns one "cell digest" line per run.
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
					for _, mode := range []CoarsenMode{CoarsenOff, CoarsenAuto} {
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
	return append(lines, goldenMISLines(t)...)
}

// goldenMISLines pins the multiple-input-switching path, whose subset
// enumeration the default cells never reach: misModel's per-size
// delays (σ=0) and the same means at σ=0.2, over three profiles at
// scenario I × ε ∈ {0, 1e-4}.
func goldenMISLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range []string{"s208", "s344", "s1196"} {
		p, _ := synth.ProfileByName(name)
		c, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		in := uniform(c)
		for _, eps := range []float64{0, 1e-4} {
			for _, sigma := range []float64{0, 0.2} {
				mis := func(n *netlist.Node, k int) dist.Normal {
					d := misModel(n, k)
					d.Sigma = sigma
					return d
				}
				a := Analyzer{Workers: 1, MIS: mis, ErrorBudget: eps}
				res, err := a.Run(c, in)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%s I eps=%g sigma=%g mis %s",
					name, eps, sigma, goldenDigest(res)))
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
	skipUnlessAMD64(t)
	checkGolden(t, goldenTOPFile, goldenTOPLines(t))
}

// momentDigest hashes an analytic result's float64 bits in net order:
// the four probabilities, then the rise and fall conditional arrival
// mean and sigma.
func momentDigest(res *MomentResult) string {
	h := sha256.New()
	var b [8]byte
	putF := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for i := range res.State {
		st := &res.State[i]
		for _, p := range st.P {
			putF(p)
		}
		for _, a := range st.Arr {
			putF(a.Mu)
			putF(a.Sigma)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenMomentLines runs the analytic engine over every built-in
// profile × scenario (I uniform, II skewed) × σ ∈ {0, 0.2} and
// returns one "cell digest" line per run.
func goldenMomentLines(t *testing.T) []string {
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
			for _, sigma := range []float64{0, 0.2} {
				var delay ssta.DelayModel
				if sigma > 0 {
					delay = varDelay
				}
				res, err := (&MomentTiming{Delay: delay}).Run(c, scen.in)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%s %s sigma=%g %s", p.Name, scen.name, sigma, momentDigest(res)))
			}
		}
	}
	return lines
}

// TestGoldenMoment pins the analytic moment engine to a recorded
// reference the same way TestGoldenTOP pins the t.o.p. engine: per
// cell, a SHA-256 over every net's probabilities and conditional
// arrival moments must match testdata/golden_moment.txt. Regenerate
// only for an intended numeric change:
//
//	go test ./internal/core -run TestGoldenMoment -update
func TestGoldenMoment(t *testing.T) {
	skipUnlessAMD64(t)
	checkGolden(t, goldenMomentFile, goldenMomentLines(t))
}

func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; Go may fuse multiply-adds on %s, which changes the low bits", runtime.GOARCH)
	}
}

// checkGolden compares got line by line with the golden file, or
// rewrites the file under -update.
func checkGolden(t *testing.T, file string, got []string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
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
	if len(got) != len(want) {
		t.Fatalf("%d cells, %s has %d", len(got), file, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
