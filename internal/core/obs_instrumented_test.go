package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ssta"
	"repro/internal/synth"
)

// TestInstrumentedParallelMatchesSerial asserts that the
// observability layer is purely observational: a parallel Run with
// metrics AND tracing enabled is bin-for-bin bit-identical to an
// uninstrumented serial run. Run with -race to also check that the
// instrumentation's shared state (atomic counters, tracer buffer)
// introduces no races into the level schedule.
func TestInstrumentedParallelMatchesSerial(t *testing.T) {
	c, err := synth.Generate(mustProfile(t, "s349"))
	if err != nil {
		t.Fatal(err)
	}
	in := uniform(c)

	serial := Analyzer{Workers: 1}
	rs, err := serial.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}

	scope := obs.NewTracedScope()
	tr := scope.Tracer

	parallel := Analyzer{Workers: 4, Obs: scope}
	rp, err := parallel.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	for id := range rs.State {
		compareNetState(t, c, netlist.NodeID(id), &rs.State[id], &rp.State[id])
	}

	snap := scope.Snapshot()
	if snap.KernelCache.Hits == 0 {
		t.Error("instrumented run recorded no kernel-cache hits")
	}
	if snap.Gates != int64(len(c.Nodes)) {
		t.Errorf("metrics count %d gates, circuit has %d nodes", snap.Gates, len(c.Nodes))
	}
	if gs, _ := scheduleSpans(tr); gs != len(c.Nodes) {
		t.Errorf("%d gate spans, circuit has %d nodes", gs, len(c.Nodes))
	}
	if tr.Len() == 0 {
		t.Error("tracer recorded no spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace document has no events")
	}

	// A traced coarsened run re-bins at level boundaries inside the
	// one schedule: every level still gets its own span, labelled with
	// its own index, and the results match the uninstrumented run.
	c, err = synth.Generate(mustProfile(t, "s1196"))
	if err != nil {
		t.Fatal(err)
	}
	in = uniform(c)
	coarsened := Analyzer{Workers: 1, Delay: varDelay, ErrorBudget: 1e-4, Coarsen: autoPolicy()}
	rs, err = coarsened.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	scope = &obs.Scope{Metrics: obs.NewMetrics(), Tracer: obs.NewCoarseTracer()}
	coarsened.Workers, coarsened.Obs = 4, scope
	rp, err = coarsened.Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	for id := range rs.State {
		compareNetState(t, c, netlist.NodeID(id), &rs.State[id], &rp.State[id])
	}
	if scope.Snapshot().Grid.RebinLevels < 1 {
		t.Fatal("traced run never coarsened")
	}
	seen := map[string]int{}
	var walk func([]*obs.SpanNode)
	walk = func(ns []*obs.SpanNode) {
		for _, n := range ns {
			if n.Cat == "level" {
				seen[n.Name]++
			}
			walk(n.Children)
		}
	}
	walk(scope.Tracer.Tree().Roots)
	levels := len(c.Levelize())
	if len(seen) != levels {
		t.Fatalf("%d distinct level span names for %d levels: %v", len(seen), levels, seen)
	}
	for li := 0; li < levels; li++ {
		if name := "L" + strconv.Itoa(li); seen[name] != 1 {
			t.Errorf("level span %s recorded %d times, want once", name, seen[name])
		}
	}
}

func mustProfile(t *testing.T, name string) synth.Profile {
	t.Helper()
	p, ok := synth.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	return p
}

// TestParallelErrorMidLevelInstrumented places failing gates in the
// middle of a level that also contains succeeding gates: workers keep
// draining the level after the failure, and the reported error must
// deterministically be the first one in level order — with metrics
// and tracing enabled, across repeats, under -race.
func TestParallelErrorMidLevelInstrumented(t *testing.T) {
	// Level 1 holds, in level order: g1 (ok), g2 (fails: parity fanin
	// 4 > cap 3), g3 (fails), then filler gates (ok) up to the width
	// Workers=4 dispatches. The error must always be g2's.
	const width = dispatchWidth * 4
	src := "INPUT(a)\nINPUT(b)\n" +
		"OUTPUT(g1)\nOUTPUT(g2)\nOUTPUT(g3)\n" +
		"g1 = AND(a, b)\n" +
		"g2 = XOR(a, b, a, b)\n" +
		"g3 = XOR(b, a, b, a)\n" +
		fillerGates(3, width)
	c := parse(t, src, "mid-level-fail")
	in := uniform(c)

	a := Analyzer{MaxParityFanin: 3, Workers: 1}
	_, errSerial := a.Run(c, in)
	if errSerial == nil {
		t.Fatal("expected parity-cap error")
	}
	if !strings.Contains(errSerial.Error(), "g2") {
		t.Fatalf("serial error %q does not name g2, the first failing gate in level order", errSerial)
	}

	scope := obs.NewTracedScope()
	tr := scope.Tracer

	a.Workers = 4
	a.Obs = scope
	for i := 0; i < 8; i++ {
		_, errPar := a.Run(c, in)
		if errPar == nil || errPar.Error() != errSerial.Error() {
			t.Fatalf("repeat %d: parallel error %q != serial %q", i, errPar, errSerial)
		}
	}
	// Every gate of the failing level ran every repeat: each chunk holds
	// one gate, and every chunk runs, so the error choice cannot depend
	// on worker timing. A gate span is recorded only for a gate that ran.
	// 8 parallel repeats × (2 inputs + width gates).
	want := 8 * (2 + width)
	if gs, _ := scheduleSpans(tr); gs != want {
		t.Errorf("%d gate spans, want %d (every gate of the failing level must run)", gs, want)
	}
	if got := scope.Snapshot().Gates; got != int64(want) {
		t.Errorf("metrics count %d gates, want %d", got, want)
	}
}

// TestInstrumentedGatesMatchSpans checks the registry's one schedule
// counter against the spans, the schedule's one clock: Gates is the
// number of nodes a Run evaluates, and the count Update returns; the
// level spans' gates args sum to the same number under either tracer,
// and a fine tracer records one gate span per evaluated node. It holds
// at Workers 1 (every level inline) and 4 (wide levels on the pool).
func TestInstrumentedGatesMatchSpans(t *testing.T) {
	c, err := synth.Generate(mustProfile(t, "s1196"))
	if err != nil {
		t.Fatal(err)
	}
	in := uniform(c)
	var seed netlist.NodeID = -1
	for _, n := range c.Nodes {
		if n.Type.Combinational() && n.Level == 2 {
			seed = n.ID
			break
		}
	}
	if seed < 0 {
		t.Fatal("no level-2 gate")
	}
	for _, workers := range []int{1, 4} {
		for _, fine := range []bool{false, true} {
			tracer := obs.NewCoarseTracer
			if fine {
				tracer = obs.NewTracer
			}
			check := func(op string, scope *obs.Scope, evaluated int) {
				t.Helper()
				gates, levelGates := scheduleSpans(scope.Tracer)
				if got := scope.Snapshot().Gates; got != int64(evaluated) {
					t.Errorf("w=%d fine=%v %s: metrics count %d gates, %d evaluated", workers, fine, op, got, evaluated)
				}
				if levelGates != evaluated {
					t.Errorf("w=%d fine=%v %s: level spans sum to %d gates, %d evaluated", workers, fine, op, levelGates, evaluated)
				}
				wantSpans := 0
				if fine {
					wantSpans = evaluated
				}
				if gates != wantSpans {
					t.Errorf("w=%d fine=%v %s: %d gate spans, want %d", workers, fine, op, gates, wantSpans)
				}
			}
			scope := &obs.Scope{Metrics: obs.NewMetrics(), Tracer: tracer()}
			a := Analyzer{Workers: workers, Obs: scope}
			res, err := a.Run(c, in)
			if err != nil {
				t.Fatal(err)
			}
			check("Run", scope, len(c.Nodes))

			scope = &obs.Scope{Metrics: obs.NewMetrics(), Tracer: tracer()}
			a.Obs = scope
			a.Delay = func(n *netlist.Node) dist.Normal {
				if n.ID == seed {
					return dist.Normal{Mu: 2.5}
				}
				return ssta.UnitDelay(n)
			}
			n, err := a.Update(res, in, seed)
			if err != nil {
				t.Fatal(err)
			}
			if n <= 1 {
				t.Fatalf("w=%d: Update recomputed %d nets; the edit must reach the seed's fanout", workers, n)
			}
			check("Update", scope, n)
		}
	}
}

// scheduleSpans returns the number of gate spans in tr and the sum of
// its level spans' gates args.
func scheduleSpans(tr *obs.Tracer) (gates, levelGates int) {
	var walk func([]*obs.SpanNode)
	walk = func(ns []*obs.SpanNode) {
		for _, n := range ns {
			switch n.Cat {
			case "gate":
				gates++
			case "level":
				levelGates += n.Args["gates"].(int)
			}
			walk(n.Children)
		}
	}
	walk(tr.Tree().Roots)
	return gates, levelGates
}

// TestInstrumentedMomentTimingMatchesSerial is the MomentTiming
// analog of the bit-identical instrumentation contract: an
// instrumented run matches a plain one.
func TestInstrumentedMomentTimingMatchesSerial(t *testing.T) {
	c, err := synth.Generate(mustProfile(t, "s298"))
	if err != nil {
		t.Fatal(err)
	}
	in := uniform(c)

	rs, err := (&MomentTiming{}).Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := (&MomentTiming{Obs: obs.NewScope()}).Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	for id := range rs.State {
		s, p := &rs.State[id], &rp.State[id]
		for v := range s.P {
			if math.Float64bits(s.P[v]) != math.Float64bits(p.P[v]) {
				t.Fatalf("%s: P[%d]: %v vs %v", c.Nodes[id].Name, v, s.P[v], p.P[v])
			}
		}
		for d := range s.Arr {
			if s.Arr[d] != p.Arr[d] {
				t.Fatalf("%s: Arr[%d]: %+v vs %+v", c.Nodes[id].Name, d, s.Arr[d], p.Arr[d])
			}
		}
	}
}
