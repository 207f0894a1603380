package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/incr"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ssta"
	"repro/internal/synth"
)

func postDelta(t *testing.T, url string, req *DeltaRequest) (*http.Response, *DeltaResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, b := post(t, url+"/v1/delta", string(bytes.TrimSpace(body)))
	var dr DeltaResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, &dr); err != nil {
			t.Fatalf("bad delta response: %v\n%s", err, b)
		}
	}
	return resp, &dr, b
}

// overrideModel layers a delta edit set's gate-delay overrides on the
// request's base model, reproducing what the server's incremental
// session computes with a plain full analysis.
func overrideModel(sigma float64, over map[netlist.NodeID]dist.Normal) ssta.DelayModel {
	base := delayModel(sigma)
	if base == nil {
		base = ssta.UnitDelay
	}
	return func(n *netlist.Node) dist.Normal {
		if d, ok := over[n.ID]; ok {
			return d
		}
		return base(n)
	}
}

// deltaRefInputs applies the edit set's launch-point overrides to the
// scenario inputs.
func deltaRefInputs(c *netlist.Circuit, scenario string, over map[netlist.NodeID]logic.InputStats) map[netlist.NodeID]logic.InputStats {
	scen := experiments.ScenarioI
	if scenario == "II" {
		scen = experiments.ScenarioII
	}
	in := experiments.Inputs(c, scen)
	for id, st := range over {
		in[id] = st
	}
	return in
}

// TestDeltaMatchesFullAnalysis is the delta-vs-full equivalence
// property: for every benchmark circuit and both scenarios, a random
// sequence of growing/shrinking edit sets served through /v1/delta
// must match a from-scratch full analysis with the same overrides —
// bit-identically at ε = 0 (the JSON float encoding round-trips
// float64 exactly), and within the combined pruning certificates at
// ε > 0. The final step reverts every edit and must land back on the
// base analysis.
func TestDeltaMatchesFullAnalysis(t *testing.T) {
	svc := New(Config{MaxConcurrent: 4, SessionCacheSize: 64})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, p := range synth.Profiles() {
		c, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		var gates []*netlist.Node
		for i := range c.Nodes {
			if c.Nodes[i].Type.Combinational() {
				gates = append(gates, c.Nodes[i])
			}
		}
		launches := c.LaunchPoints()
		for _, scenario := range []string{"I", "II"} {
			sigma := 0.0
			if scenario == "II" {
				sigma = 0.15
			}
			for _, eps := range []float64{0, 1e-4} {
				rng := rand.New(rand.NewSource(int64(len(p.Name))*1000 + int64(len(scenario)) + int64(eps*1e6)))
				baseIn := deltaRefInputs(c, scenario, nil)

				// Edit-set sizes per step: grow, grow, shrink, revert.
				for step, nEdits := range []int{2, 5, 1, 0} {
					var edits []DeltaEdit
					over := make(map[netlist.NodeID]dist.Normal)
					inOver := make(map[netlist.NodeID]logic.InputStats)
					for i := 0; i < nEdits; i++ {
						if i%3 == 2 && len(launches) > 0 {
							id := launches[rng.Intn(len(launches))]
							st := baseIn[id]
							st.Mu = rng.Float64() * 2
							st.Sigma = rng.Float64() * 0.4
							edits = append(edits, DeltaEdit{
								Input: c.Nodes[id].Name,
								Mu:    st.Mu, Sigma: st.Sigma, P: st.P[:],
							})
							inOver[id] = st
						} else {
							g := gates[rng.Intn(len(gates))]
							d := dist.Normal{Mu: 0.5 + rng.Float64()*2, Sigma: rng.Float64() * 0.3}
							edits = append(edits, DeltaEdit{Gate: g.Name, Mu: d.Mu, Sigma: d.Sigma})
							over[g.ID] = d
						}
					}
					resp, dr, b := postDelta(t, srv.URL, &DeltaRequest{
						Circuit: p.Name, Scenario: scenario,
						Epsilon: eps, Sigma: sigma, Edits: edits,
					})
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s/%s ε=%g step %d: %d %s", p.Name, scenario, eps, step, resp.StatusCode, b)
					}
					wantSession := "warm"
					if step == 0 {
						wantSession = "cold"
					}
					if dr.Session != wantSession {
						t.Fatalf("%s/%s ε=%g step %d: session %q, want %q", p.Name, scenario, eps, step, dr.Session, wantSession)
					}

					ref, err := (&core.Analyzer{
						ErrorBudget: eps,
						Delay:       overrideModel(sigma, over),
					}).Run(c, deltaRefInputs(c, scenario, inOver))
					if err != nil {
						t.Fatal(err)
					}
					want := spstaEndpoints(ref, c)
					if len(dr.Engine.Endpoints) != len(want) {
						t.Fatalf("%s/%s ε=%g step %d: %d endpoints, want %d",
							p.Name, scenario, eps, step, len(dr.Engine.Endpoints), len(want))
					}
					bound := 0.0
					if eps > 0 {
						// Two independently-pruned runs each certify
						// their own deviation from exact.
						bound = dr.Engine.MaxBudget + ref.MaxConsumedBudget() + 1e-12
					}
					for i, w := range want {
						g := dr.Engine.Endpoints[i]
						if g.Net != w.Net {
							t.Fatalf("%s/%s step %d: endpoint %d is %q, want %q", p.Name, scenario, step, i, g.Net, w.Net)
						}
						if eps == 0 {
							if g != w {
								t.Fatalf("%s/%s ε=0 step %d %s: delta %+v\nfull %+v", p.Name, scenario, step, w.Net, g, w)
							}
							continue
						}
						for _, d := range []float64{
							abs(g.P0 - w.P0), abs(g.P1 - w.P1),
							abs(g.Rise.P - w.Rise.P), abs(g.Fall.P - w.Fall.P),
						} {
							if d > bound {
								t.Fatalf("%s/%s ε=%g step %d %s: probability deviates by %g, certificate %g",
									p.Name, scenario, eps, step, w.Net, d, bound)
							}
						}
					}

					// Replaying the same edit set must be free: the
					// session already has every override applied.
					resp2, dr2, b2 := postDelta(t, srv.URL, &DeltaRequest{
						Circuit: p.Name, Scenario: scenario,
						Epsilon: eps, Sigma: sigma, Edits: edits,
					})
					if resp2.StatusCode != http.StatusOK {
						t.Fatalf("replay: %d %s", resp2.StatusCode, b2)
					}
					if dr2.NetsRecomputed != 0 {
						t.Fatalf("%s/%s ε=%g step %d replay recomputed %d nets, want 0",
							p.Name, scenario, eps, step, dr2.NetsRecomputed)
					}
				}
			}
		}
	}
}

// TestDeltaSSTAEngine checks the Gaussian-baseline delta engine the
// same way: bit-identical to a full ssta.Analyze with the overrides
// applied.
func TestDeltaSSTAEngine(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	p, _ := synth.ProfileByName("s344")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var gate *netlist.Node
	for i := range c.Nodes {
		if c.Nodes[i].Type.Combinational() {
			gate = c.Nodes[i]
			break
		}
	}
	over := map[netlist.NodeID]dist.Normal{gate.ID: {Mu: 2.5, Sigma: 0.2}}
	resp, dr, b := postDelta(t, srv.URL, &DeltaRequest{
		Circuit: "s344", Engine: "ssta", Sigma: 0.1,
		Edits: []DeltaEdit{{Gate: gate.Name, Mu: 2.5, Sigma: 0.2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: %d %s", resp.StatusCode, b)
	}
	if dr.Engine.Engine != "ssta" {
		t.Fatalf("engine %q, want ssta", dr.Engine.Engine)
	}
	ref := ssta.Analyze(c, deltaRefInputs(c, "I", nil), overrideModel(0.1, over))
	for i, ep := range c.Endpoints() {
		g := dr.Engine.Endpoints[i]
		r, f := ref.At(ep, ssta.DirRise), ref.At(ep, ssta.DirFall)
		if g.Rise.Mu != r.Mu || g.Rise.Sigma != r.Sigma || g.Fall.Mu != f.Mu || g.Fall.Sigma != f.Sigma {
			t.Fatalf("%s: delta (%v,%v)/(%v,%v), full (%v,%v)/(%v,%v)", g.Net,
				g.Rise.Mu, g.Rise.Sigma, g.Fall.Mu, g.Fall.Sigma, r.Mu, r.Sigma, f.Mu, f.Sigma)
		}
	}
}

// TestDeltaValidation exercises the delta decoder's error paths.
func TestDeltaValidation(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{"circuit":"s208","bench":"x"}`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"circuit":"s208","engine":"mc"}`, http.StatusBadRequest},
		{`{"circuit":"s208","engine":"ssta","epsilon":0.1}`, http.StatusBadRequest},
		{`{"circuit":"s208","edits":[{"gate":"g","input":"i","mu":1,"sigma":0}]}`, http.StatusBadRequest},
		{`{"circuit":"s208","edits":[{"gate":"no-such-net","mu":1,"sigma":0}]}`, http.StatusBadRequest},
		{`{"circuit":"s208","edits":[{"input":"no-such-net","mu":1,"sigma":0}]}`, http.StatusBadRequest},
		{`{"netlist_ref":"0000000000000000000000000000000000000000000000000000000000000000"}`, http.StatusNotFound},
	} {
		resp, b := post(t, srv.URL+"/v1/delta", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.body, resp.StatusCode, tc.status, b)
		}
	}
}

// TestDeltaSessionInvalidation: evicting a netlist from the registry
// must drop the delta sessions built on it, and a later delta request
// for the same circuit re-registers and re-hydrates.
func TestDeltaSessionInvalidation(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2, RegistrySize: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	_, dr, _ := postDelta(t, srv.URL, &DeltaRequest{Circuit: "s208"})
	if dr.Session != "cold" {
		t.Fatalf("first delta session %q, want cold", dr.Session)
	}
	_, dr, _ = postDelta(t, srv.URL, &DeltaRequest{Circuit: "s208"})
	if dr.Session != "warm" {
		t.Fatalf("second delta session %q, want warm", dr.Session)
	}
	// Registering another netlist evicts s208 (capacity 1) and must
	// invalidate its session.
	if resp, b := post(t, srv.URL+"/v1/analyze", `{"circuit":"s298"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, b)
	}
	if n := svc.sessions.len(); n != 0 {
		t.Fatalf("%d sessions survived the registry eviction, want 0", n)
	}
	_, dr, _ = postDelta(t, srv.URL, &DeltaRequest{Circuit: "s208"})
	if dr.Session != "cold" {
		t.Fatalf("post-eviction delta session %q, want cold", dr.Session)
	}
}

// TestDeltaPanicDropsSession injects a panic into a warm session's
// recomputation — the result's grid is swapped for one of a different
// geometry, so the cone update panics on the mismatched bins — and
// requires the request to fail with a 500 without leaving the
// session locked: the next delta on the same key re-hydrates a fresh
// session and succeeds.
func TestDeltaPanicDropsSession(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	req := &DeltaRequest{Circuit: "s208", Scenario: "I", Engine: "spsta", Sigma: 0.2}
	resp, dr, b := postDelta(t, srv.URL, req)
	if resp.StatusCode != http.StatusOK || dr.Session != "cold" {
		t.Fatalf("hydrating delta: %d %s", resp.StatusCode, b)
	}
	sess := svc.sessions.getOrCreate(req.sessionKey(dr.NetlistDigest), dr.NetlistDigest)
	sess.mu.Lock()
	var gate string
	for _, n := range sess.sp.Circuit().Nodes {
		if n.Type.Combinational() {
			gate = n.Name
		}
	}
	sess.sp.Result().Grid = dist.NewGrid(0, 1, 0.5)
	sess.mu.Unlock()

	// A request stuck behind a leaked session lock times out here
	// instead of hanging the suite.
	client := srv.Client()
	client.Timeout = 30 * time.Second
	edit := func() (int, DeltaResponse) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(srv.URL+"/v1/delta", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("delta on the session's key: %v", err)
		}
		defer resp.Body.Close()
		var dr DeltaResponse
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, dr
	}
	req.Edits = []DeltaEdit{{Gate: gate, Mu: 1.5, Sigma: 0.1}}
	if code, _ := edit(); code != http.StatusInternalServerError {
		t.Fatalf("poisoned delta: status %d, want 500", code)
	}
	code, after := edit()
	if code != http.StatusOK || after.Session != "cold" || after.Edits != 1 {
		t.Fatalf("delta after the panic: status %d, session %q, %d edits; want 200 from a re-hydrated (cold) session with 1 edit",
			code, after.Session, after.Edits)
	}
}

// TestDeltaWarmCostMatchesFreshSession: a warm /v1/delta response
// reports the cost of its own edits, wherever the session was
// hydrated. Each warm step's cost_units must equal what the same edit
// adds to the scope of a session built outside the service and kept in
// that one scope throughout, where no work can fall into another
// request's registry.
func TestDeltaWarmCostMatchesFreshSession(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2, SessionCacheSize: 8})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const sigma, eps = 0.2, 1e-4
	p, _ := synth.ProfileByName("s1196")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// An inverter or buffer convolves its fanin's stored t.o.p. with
	// the edited delay kernel directly, with no scratch mixture between
	// them; a monotone gate goes through its mixture.
	var gates [2]*netlist.Node
	for _, n := range c.Nodes {
		switch {
		case len(n.Fanout) == 0:
		case gates[0] == nil && (n.Type == logic.Not || n.Type == logic.Buf):
			gates[0] = n
		case gates[1] == nil && n.Type.Monotone():
			gates[1] = n
		}
	}
	if gates[0] == nil || gates[1] == nil {
		t.Fatal("s1196 lacks an inverter or a monotone gate with fanout")
	}
	d1, d2 := dist.Normal{Mu: 2.5, Sigma: 0.3}, dist.Normal{Mu: 0.8, Sigma: 0.1}
	scope := obs.NewScope()
	ref, err := incr.NewSPSTA(core.Analyzer{ErrorBudget: eps, Delay: delayModel(sigma), Obs: scope}, c, deltaRefInputs(c, "I", nil))
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		edits []DeltaEdit
		apply func() (int, error)
	}{
		{nil, nil},
		{[]DeltaEdit{{Gate: gates[0].Name, Mu: d1.Mu, Sigma: d1.Sigma}},
			func() (int, error) { return ref.SetDelay(gates[0].ID, d1) }},
		{[]DeltaEdit{{Gate: gates[0].Name, Mu: d1.Mu, Sigma: d1.Sigma}, {Gate: gates[1].Name, Mu: d2.Mu, Sigma: d2.Sigma}},
			func() (int, error) { return ref.SetDelay(gates[1].ID, d2) }},
		{[]DeltaEdit{{Gate: gates[1].Name, Mu: d2.Mu, Sigma: d2.Sigma}},
			func() (int, error) { return ref.ClearDelay(gates[0].ID) }},
	}
	for i, st := range steps {
		resp, dr, b := postDelta(t, srv.URL, &DeltaRequest{
			Circuit: "s1196", Scenario: "I", Epsilon: eps, Sigma: sigma, Edits: st.edits,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: %d %s", i, resp.StatusCode, b)
		}
		if st.apply == nil {
			if dr.Session != "cold" {
				t.Fatalf("step %d: session %q, want cold", i, dr.Session)
			}
			continue
		}
		if dr.Session != "warm" {
			t.Fatalf("step %d: session %q, want warm", i, dr.Session)
		}
		before := scope.M().CostUnits()
		evals, err := st.apply()
		if err != nil {
			t.Fatal(err)
		}
		if dr.NetsRecomputed != evals {
			t.Fatalf("step %d: %d nets recomputed, the reference session %d", i, dr.NetsRecomputed, evals)
		}
		if want := scope.M().CostUnits() - before; dr.CostUnits != want || dr.Engine.CostUnits != want {
			t.Errorf("step %d: cost_units %d (engine %d), a fresh session's count of the same edit %d",
				i, dr.CostUnits, dr.Engine.CostUnits, want)
		}
	}
}

// TestDeltaSSTARevertRestores: the ssta engine follows
// DeltaResponse's revert rule too. A request that drops the previous
// request's single edit restores the saved pre-edit state, reports
// no nets recomputed, and answers the base analysis bit for bit.
func TestDeltaSSTARevertRestores(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	p, _ := synth.ProfileByName("s344")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var gate *netlist.Node
	for _, n := range c.Nodes {
		if n.Type.Combinational() && len(n.Fanout) > 0 {
			gate = n
			break
		}
	}
	req := &DeltaRequest{Circuit: "s344", Engine: "ssta", Sigma: 0.1}
	for i, edits := range [][]DeltaEdit{nil, {{Gate: gate.Name, Mu: 2.5, Sigma: 0.2}}, nil} {
		req.Edits = edits
		resp, dr, b := postDelta(t, srv.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: %d %s", i, resp.StatusCode, b)
		}
		switch i {
		case 1:
			if dr.NetsRecomputed == 0 {
				t.Fatal("the edit recomputed nothing")
			}
			continue
		case 2:
			if dr.Session != "warm" || dr.NetsRecomputed != 0 {
				t.Fatalf("revert: session %q, %d nets recomputed; want a warm restore of 0", dr.Session, dr.NetsRecomputed)
			}
		}
		ref := ssta.Analyze(c, deltaRefInputs(c, "I", nil), delayModel(0.1))
		for j, ep := range c.Endpoints() {
			g := dr.Engine.Endpoints[j]
			r, f := ref.At(ep, ssta.DirRise), ref.At(ep, ssta.DirFall)
			if g.Rise.Mu != r.Mu || g.Rise.Sigma != r.Sigma || g.Fall.Mu != f.Mu || g.Fall.Sigma != f.Sigma {
				t.Fatalf("step %d, %s: delta (%v,%v)/(%v,%v), base analysis (%v,%v)/(%v,%v)", i, g.Net,
					g.Rise.Mu, g.Rise.Sigma, g.Fall.Mu, g.Fall.Sigma, r.Mu, r.Sigma, f.Mu, f.Sigma)
			}
		}
	}
}

// TestDeltaGridWideningRejected: a full analysis sizes its grid by the
// widest launch sigma (at least 1), and a session keeps its hydration
// grid, so a launch edit to sigma 2 cannot match a full analysis. It
// is answered 400, naming the limit, and the session stays warm and
// unchanged; sigma 1, which keeps the grid, is served.
func TestDeltaGridWideningRejected(t *testing.T) {
	svc := New(Config{MaxConcurrent: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	p, _ := synth.ProfileByName("s208")
	c, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	launch := c.LaunchPoints()[0]
	st := deltaRefInputs(c, "I", nil)[launch]
	req := &DeltaRequest{Circuit: "s208"}
	_, base, _ := postDelta(t, srv.URL, req)
	if base.Session != "cold" {
		t.Fatalf("first delta session %q, want cold", base.Session)
	}

	req.Edits = []DeltaEdit{{Input: c.Nodes[launch].Name, Mu: st.Mu, Sigma: 2, P: st.P[:]}}
	resp, _, b := postDelta(t, srv.URL, req)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(b, []byte("widest launch sigma must stay 1")) {
		t.Fatalf("sigma 2 launch edit: %d %s; want 400 naming the limit", resp.StatusCode, b)
	}

	req.Edits = nil
	resp, after, b := postDelta(t, srv.URL, req)
	if resp.StatusCode != http.StatusOK || after.Session != "warm" || after.NetsRecomputed != 0 {
		t.Fatalf("after the rejection: %d, session %q, %d nets recomputed; want the warm base session untouched (%s)",
			resp.StatusCode, after.Session, after.NetsRecomputed, b)
	}
	for i, ep := range base.Engine.Endpoints {
		if got := after.Engine.Endpoints[i]; got.Rise != ep.Rise || got.Fall != ep.Fall {
			t.Fatalf("%s: %+v after the rejection, %+v before", ep.Net, got, ep)
		}
	}

	req.Edits = []DeltaEdit{{Input: c.Nodes[launch].Name, Mu: st.Mu, Sigma: 1, P: st.P[:]}}
	if resp, dr, b := postDelta(t, srv.URL, req); resp.StatusCode != http.StatusOK || dr.Session != "warm" {
		t.Fatalf("sigma 1 launch edit: %d %s", resp.StatusCode, b)
	}
}
