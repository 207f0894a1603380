package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/synth"
)

// storageConfigs are the two engine settings of the storage tests: unit
// delays (every monotone gate takes the fused mixture store), and
// σ=0.2 with ε=1e-4 and auto coarsening (convolution outputs through
// scratch, tail trims, re-binned rows).
func storageConfigs() map[string]Analyzer {
	sigma := func(*netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: 0.2} }
	return map[string]Analyzer{
		"unit": {},
		"var":  {Delay: sigma, ErrorBudget: 1e-4, Coarsen: CoarsenPolicy{Mode: CoarsenAuto}},
	}
}

// TestWorkerScratchZeroAfterEveryNode checks the scratch-stack
// invariant: after every node, on every worker, the stack is empty and
// every PMF it holds is all-zero, so the next node takes clean
// intermediates. Parity gates (per-leaf marks) and MIS (enumerated
// delays) are covered through the s1196 and s386 synthetics.
func TestWorkerScratchZeroAfterEveryNode(t *testing.T) {
	var checked atomic.Int64
	nodeDone = func(w *worker) {
		checked.Add(1)
		if w.scr.n != 0 {
			t.Errorf("scratch stack height %d after a node", w.scr.n)
		}
		for i, p := range w.scr.pmfs {
			if lo, hi := p.Support(); lo != hi {
				t.Errorf("scratch PMF %d keeps support [%d,%d)", i, lo, hi)
			}
			for b := 0; b < p.Grid().N; b++ {
				if p.W(b) != 0 {
					t.Errorf("scratch PMF %d bin %d = %v after a node", i, b, p.W(b))
					return
				}
			}
		}
	}
	defer func() { nodeDone = nil }()
	configs := storageConfigs()
	mis := configs["unit"]
	mis.MIS = func(_ *netlist.Node, k int) dist.Normal { return dist.Normal{Mu: 1 - 0.1*float64(k-1), Sigma: 0.1} }
	configs["mis"] = mis
	for _, name := range []string{"s386", "s1196"} {
		p, _ := synth.ProfileByName(name)
		c, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		in := uniform(c)
		for cfg, a := range configs {
			for _, workers := range []int{1, 2} {
				a.Workers = workers
				before := checked.Load()
				if _, err := a.Run(c, in); err != nil {
					t.Fatalf("%s %s workers %d: %v", name, cfg, workers, err)
				}
				if got := checked.Load() - before; got != int64(len(c.Nodes)) {
					t.Fatalf("%s %s workers %d: checked %d nodes, want %d", name, cfg, workers, got, len(c.Nodes))
				}
			}
		}
	}
}

// TestUpdateKeepsScratch checks that Update keeps its per-worker
// scratch stacks on the Result: the next Update, under another scope,
// takes the same grid-sized PMFs, and an Update with another worker
// count builds new ones.
func TestUpdateKeepsScratch(t *testing.T) {
	p, _ := synth.ProfileByName("s386")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in := uniform(c)
	a := storageConfigs()["var"]
	a.Coarsen = CoarsenPolicy{}
	res, err := a.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	var seed netlist.NodeID = -1
	for _, n := range c.Nodes {
		if n.Type.Combinational() {
			seed = n.ID
			break
		}
	}
	update := func(workers int, scope *obs.Scope) *dist.PMF {
		a.Workers, a.Obs = workers, scope
		if _, err := a.Update(res, in, seed); err != nil {
			t.Fatal(err)
		}
		if len(res.scratch) != workers || len(res.scratch[0].pmfs) == 0 {
			t.Fatalf("workers %d: Update left %d scratch stacks", workers, len(res.scratch))
		}
		return res.scratch[0].pmfs[0]
	}
	first := update(1, nil)
	if update(1, obs.NewScope()) != first {
		t.Error("a second Update rebuilt the scratch stack")
	}
	if update(2, nil) == first {
		t.Error("an Update with another worker count kept the old stacks")
	}
}

// storedBytes returns the bytes of the stored t.o.p. rows of res: each
// is frozen to its support.
func storedBytes(res *Result) int64 {
	var b int64
	for i := range res.State {
		for _, p := range res.State[i].TOP {
			lo, hi := p.Support()
			b += int64(hi-lo) * 8
		}
	}
	return b
}

// TestRunAllocations pins the allocation profile of Analyzer.Run: gate
// evaluation allocates nothing, so a circuit with twice the gates at
// the same depth costs no more allocations beyond the slab's
// geometrically growing chunks (a handful per worker), and the bytes
// allocated stay within the stored supports plus the slab's growth
// slack and a fixed per-run overhead.
func TestRunAllocations(t *testing.T) {
	circuits := make([]*netlist.Circuit, 2)
	for i, gates := range []int{500, 1000} {
		c, err := synth.Generate(synth.Profile{Name: "alloc", Inputs: 24, Outputs: 16, DFFs: 24, Gates: gates, Depth: 14, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if c.Depth() != 14 {
			t.Fatalf("%d-gate circuit has depth %d, want 14", gates, c.Depth())
		}
		circuits[i] = c
	}
	for cfg, a := range storageConfigs() {
		for _, workers := range []int{1, 2} {
			a.Workers = workers
			var allocs [2]float64
			for i, c := range circuits {
				in := uniform(c)
				var res *Result
				run := func() {
					var err error
					if res, err = a.Run(c, in); err != nil {
						t.Fatal(err)
					}
				}
				allocs[i] = testing.AllocsPerRun(5, run)
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				run()
				runtime.ReadMemStats(&m1)
				bytes := int64(m1.TotalAlloc - m0.TotalAlloc)
				stored := storedBytes(res)
				// Fixed overhead: the state array, the per-worker scratch
				// stacks and minimum slab chunks, the scheduler and
				// kernel cache.
				fixed := int64(len(c.Nodes))*int64(360) + int64(workers)*int64(runChunk+16)*int64(res.Grid.N)*8 + 1<<20
				if limit := stored + stored/4 + fixed; bytes > limit {
					t.Errorf("%s workers %d, %d nets: allocated %d bytes, want <= %d (stored %d + slack %d + fixed %d)",
						cfg, workers, len(c.Nodes), bytes, limit, stored, stored/4, fixed)
				}
				t.Logf("%s workers %d, %d nets: %.0f allocs, %d bytes, %d stored", cfg, workers, len(c.Nodes), allocs[i], bytes, stored)
			}
			// Twice the gates: at most a few more slab chunks per worker.
			if extra := allocs[1] - allocs[0]; extra > float64(4+4*workers) {
				t.Errorf("%s workers %d: %v allocations with twice the gates vs %v: %v more",
					cfg, workers, allocs[1], allocs[0], extra)
			}
			if allocs[1] > float64(200+100*workers) {
				t.Errorf("%s workers %d: %v allocations per run; gate evaluation should allocate nothing", cfg, workers, allocs[1])
			}
		}
	}
}

// TestStoredRowsFrozen checks that every stored t.o.p. of a run is
// frozen: its cached mass is the left-to-right sum of its support.
func TestStoredRowsFrozen(t *testing.T) {
	p, _ := synth.ProfileByName("s1196")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in := uniform(c)
	for cfg, a := range storageConfigs() {
		res, err := a.Run(c, in)
		if err != nil {
			t.Fatal(err)
		}
		for id := range res.State {
			for d, top := range res.State[id].TOP {
				lo, hi := top.Support()
				s := 0.0
				for i := lo; i < hi; i++ {
					s += top.W(i)
				}
				if m := top.Mass(); m != s {
					t.Fatalf("%s net %d dir %d: Mass %v, support sum %v", cfg, id, d, m, s)
				}
			}
		}
	}
}
