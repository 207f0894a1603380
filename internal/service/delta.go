// POST /v1/delta: incremental re-analysis against a registered
// netlist. A delta request names a base netlist (by netlist_ref,
// profile name, or inline bench) plus the complete set of gate-delay
// and launch-statistics overrides it wants relative to that base; the
// service keeps a cached incr.SPSTA / incr.SSTA session per (digest,
// scenario, engine, epsilon, sigma) and drives it to the requested
// override set with incr's Apply, which clears dropped overrides,
// applies changed ones and re-converges only the affected fanout
// cones. The API is stateless (every request carries its full edit
// set) while the expensive state, the converged analysis, lives
// server-side and is invalidated when the registry evicts the
// underlying netlist.
package service

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/incr"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ssta"
)

// DefaultSessionCacheSize is the default number of cached delta
// sessions.
const DefaultSessionCacheSize = 32

// DeltaEdit is one override in a delta request. Exactly one of Gate
// and Input names the target net. A gate edit overrides that gate's
// delay to N(mu, sigma^2); an input edit replaces that launch point's
// statistics (p is the four-value probability vector [p0, p1, pr,
// pf], mu/sigma the arrival-time parameters). When the same net is
// edited twice, the last edit wins.
type DeltaEdit struct {
	Gate  string    `json:"gate,omitempty"`
	Input string    `json:"input,omitempty"`
	Mu    float64   `json:"mu"`
	Sigma float64   `json:"sigma"`
	P     []float64 `json:"p,omitempty"`
}

// DeltaRequest is the body of /v1/delta. Edits is the complete
// desired override set relative to the base netlist — an override
// present in an earlier request but absent here is reverted — so a
// client replays its current state every time and never depends on
// which session instance serves it. An empty edit list is valid and
// returns the base analysis.
type DeltaRequest struct {
	// Exactly one of Circuit, Bench, NetlistRef selects the base
	// netlist, with the same spelling as /v1/analyze.
	Circuit    string `json:"circuit,omitempty"`
	Bench      string `json:"bench,omitempty"`
	NetlistRef string `json:"netlist_ref,omitempty"`
	// Scenario: "I" (default) or "II".
	Scenario string `json:"scenario,omitempty"`
	// Engine: "spsta" (default) or "ssta" (the Gaussian baseline).
	Engine string `json:"engine,omitempty"`
	// Epsilon is the spsta engine's pruning budget (0 = exact; delta
	// results at epsilon 0 are bit-identical to a full re-analysis).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Sigma > 0 selects variational N(1, sigma^2) base gate delays.
	Sigma float64     `json:"sigma,omitempty"`
	Edits []DeltaEdit `json:"edits"`
}

// DeltaResponse is the body of a successful /v1/delta.
type DeltaResponse struct {
	RequestID     string       `json:"request_id"`
	TraceID       string       `json:"trace_id"`
	NetlistDigest string       `json:"netlist_digest"`
	Circuit       CircuitInfo  `json:"circuit"`
	Scenario      string       `json:"scenario"`
	Engine        EngineResult `json:"engine"`
	// Edits is the number of overrides in effect after this request;
	// NetsRecomputed the node recomputations the reconciliation cost.
	// A revert of the session's latest edit restores the saved
	// pre-edit state, and the nets it restores are not counted.
	Edits          int `json:"edits"`
	NetsRecomputed int `json:"nets_recomputed"`
	// Session is "cold" when this request paid the initial full
	// analysis, "warm" when it reused a cached session.
	Session   string `json:"session"`
	CostUnits int64  `json:"cost_units"`
}

// decodeDelta parses and validates a delta request body.
func decodeDelta(r *http.Request) (*DeltaRequest, error) {
	var req DeltaRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if err := validateShared(req.Circuit, req.Bench, req.NetlistRef, &req.Scenario, req.Epsilon, req.Sigma); err != nil {
		return nil, err
	}
	switch req.Engine {
	case "":
		req.Engine = "spsta"
	case "spsta", "ssta":
	default:
		return nil, errBadRequest("unknown delta engine %q (want spsta or ssta)", req.Engine)
	}
	if req.Engine == "ssta" && req.Epsilon != 0 {
		return nil, errBadRequest("epsilon applies only to the spsta engine")
	}
	for i, e := range req.Edits {
		if (e.Gate == "") == (e.Input == "") {
			return nil, errBadRequest("edit %d: exactly one of gate or input must be set", i)
		}
		if e.Sigma < 0 {
			return nil, errBadRequest("edit %d: sigma must be >= 0", i)
		}
		if e.Gate != "" {
			if e.P != nil {
				return nil, errBadRequest("edit %d: p applies only to input edits", i)
			}
			if e.Mu < 0 {
				return nil, errBadRequest("edit %d: gate delay mu must be >= 0", i)
			}
		}
	}
	return &req, nil
}

// resolveEdits translates the request's edit list into the desired
// override maps, validating each target against the circuit.
func (req *DeltaRequest) resolveEdits(c *netlist.Circuit) (map[netlist.NodeID]dist.Normal, map[netlist.NodeID]logic.InputStats, error) {
	launch := make(map[netlist.NodeID]bool)
	for _, id := range c.LaunchPoints() {
		launch[id] = true
	}
	delay := make(map[netlist.NodeID]dist.Normal)
	input := make(map[netlist.NodeID]logic.InputStats)
	for i, e := range req.Edits {
		if e.Gate != "" {
			node, ok := c.Node(e.Gate)
			if !ok {
				return nil, nil, errBadRequest("edit %d: unknown net %q", i, e.Gate)
			}
			if !node.Type.Combinational() {
				return nil, nil, errBadRequest("edit %d: %q is not a gate (launch-point statistics are edited via input)", i, e.Gate)
			}
			delay[node.ID] = dist.Normal{Mu: e.Mu, Sigma: e.Sigma}
			continue
		}
		node, ok := c.Node(e.Input)
		if !ok {
			return nil, nil, errBadRequest("edit %d: unknown net %q", i, e.Input)
		}
		if !launch[node.ID] {
			return nil, nil, errBadRequest("edit %d: %q is not a launch point", i, e.Input)
		}
		if len(e.P) != int(logic.NumValues) {
			return nil, nil, errBadRequest("edit %d: input edits need p with %d probabilities [p0, p1, pr, pf]", i, logic.NumValues)
		}
		st := logic.InputStats{Mu: e.Mu, Sigma: e.Sigma}
		copy(st.P[:], e.P)
		if err := st.Validate(); err != nil {
			return nil, nil, errBadRequest("edit %d: %v", i, err)
		}
		input[node.ID] = st
	}
	return delay, input, nil
}

// sessionKey identifies a delta session: everything that shapes the
// converged base analysis the session holds.
func (req *DeltaRequest) sessionKey(digest string) string {
	return fmt.Sprintf("%s|%s|%s|%g|%g", digest, req.Scenario, req.Engine, req.Epsilon, req.Sigma)
}

// deltaSession is one cached incremental analysis. The outer cache
// hands out the same session to every request with the same key;
// requests serialize on mu, the first one hydrates (pays the full
// initial run), and each later one drives the session to the
// request's override set (incr's Apply, which owns the overrides in
// effect).
type deltaSession struct {
	key    string
	digest string

	mu       sync.Mutex
	hydrated bool
	sp       *incr.SPSTA
	ss       *incr.SSTA
	apply    func(map[netlist.NodeID]dist.Normal, map[netlist.NodeID]logic.InputStats) (int, error)
}

// hydrate runs the session's initial full analysis under the calling
// request's scope (a cold session's cost is attributed to the request
// that paid it).
func (sess *deltaSession) hydrate(req *DeltaRequest, c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, scope *obs.Scope) error {
	switch req.Engine {
	case "spsta":
		sp, err := incr.NewSPSTA(core.Analyzer{
			ErrorBudget: req.Epsilon,
			Delay:       delayModel(req.Sigma),
			Obs:         scope,
		}, c, in)
		if err != nil {
			return err
		}
		sess.sp, sess.apply = sp, sp.Apply
	default:
		sess.ss = incr.NewSSTA(c, in, delayModel(req.Sigma))
		sess.apply = sess.ss.Apply
	}
	sess.hydrated = true
	return nil
}

// serve runs one delta request on the session under its lock:
// hydrate a cold session (or point a warm one at the request's
// scope), apply the override set, and format the result. The unlock
// is deferred and a panic on the way (a dist invariant check inside a
// cone update, say) is recovered into the returned error, so a
// failing request never leaves the session locked. Any failure but a
// rejected override set, which changes nothing, also marks the
// session unhydrated: a request already queued on the lock
// re-hydrates instead of reusing the half-updated analysis.
func (sess *deltaSession) serve(req *DeltaRequest, c *netlist.Circuit, inputs func() map[netlist.NodeID]logic.InputStats,
	delay map[netlist.NodeID]dist.Normal, input map[netlist.NodeID]logic.InputStats, scope *obs.Scope) (cold bool, evals int, er EngineResult, err error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	defer func() {
		if p := recover(); p != nil {
			err = panicError(p)
		}
		if err != nil && !errors.Is(err, incr.ErrRejected) {
			sess.hydrated = false
		}
	}()
	cold = !sess.hydrated
	if cold {
		err = sess.hydrate(req, c, inputs(), scope)
	} else if sess.sp != nil {
		sess.sp.SetObs(scope)
	}
	if err == nil {
		evals, err = sess.apply(delay, input)
	}
	if err == nil {
		er = sess.engineResult(c)
	}
	return cold, evals, er, err
}

// engineResult formats the session's current analysis.
func (sess *deltaSession) engineResult(c *netlist.Circuit) EngineResult {
	if sess.sp != nil {
		res := sess.sp.Result()
		er := EngineResult{Engine: "spsta", Endpoints: spstaEndpoints(res, c)}
		er.PrunedMass = res.TotalPrunedMass()
		er.MaxBudget = res.MaxConsumedBudget()
		return er
	}
	er := EngineResult{Engine: "ssta"}
	res := sess.ss.Result()
	for _, ep := range c.Endpoints() {
		r, f := res.At(ep, ssta.DirRise), res.At(ep, ssta.DirFall)
		er.Endpoints = append(er.Endpoints, EndpointStat{
			Net:  c.Nodes[ep].Name,
			Rise: DirStat{Mu: r.Mu, Sigma: r.Sigma},
			Fall: DirStat{Mu: f.Mu, Sigma: f.Sigma},
		})
	}
	return er
}

// sessionCache is the LRU of delta sessions, keyed by sessionKey.
type sessionCache struct {
	mu  sync.Mutex
	lru *lru[string, *deltaSession] // size 1 each
}

func newSessionCache(max int) *sessionCache {
	if max <= 0 {
		max = DefaultSessionCacheSize
	}
	return &sessionCache{lru: newLRU[string, *deltaSession](int64(max))}
}

// getOrCreate returns the session for key, creating an unhydrated one
// (and evicting the least-recently-used beyond capacity) if needed.
// Eviction only unlinks a session from the cache — a request already
// holding the session pointer finishes on it safely and later
// requests simply pay a fresh hydration.
func (sc *sessionCache) getOrCreate(key, digest string) *deltaSession {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sess, ok := sc.lru.get(key); ok {
		return sess
	}
	sess := &deltaSession{key: key, digest: digest}
	sc.lru.put(key, sess, 1)
	return sess
}

// drop removes one session (a request failed mid-update on it).
func (sc *sessionCache) drop(key string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.lru.remove(key)
}

// invalidateDigest removes every session built on the given netlist;
// the registry calls this, outside its own lock, when it evicts the
// digest. It scans the at most SessionCacheSize sessions rather than
// keeping a second index by digest.
func (sc *sessionCache) invalidateDigest(digest string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.lru.each(func(key string, sess *deltaSession, _ int64) {
		if sess.digest == digest {
			sc.lru.remove(key)
		}
	})
}

// len returns the number of cached sessions (for tests).
func (sc *sessionCache) len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.lru.len()
}

// deltaJob is /v1/delta's decode step. Its check step resolves the
// edit targets against the circuit before admission.
func (s *Service) deltaJob(r *http.Request) (*job, error) {
	dreq, err := decodeDelta(r)
	if err != nil {
		return nil, err
	}
	var delay map[netlist.NodeID]dist.Normal
	var input map[netlist.NodeID]logic.InputStats
	return &job{
		// A pseudo-Request carries the delta knobs into the shared
		// resolve step, flight summary and scope plumbing.
		req: &Request{
			Circuit: dreq.Circuit, Bench: dreq.Bench, NetlistRef: dreq.NetlistRef,
			Scenario: dreq.Scenario, Engine: dreq.Engine,
			Epsilon: dreq.Epsilon, Sigma: dreq.Sigma,
		},
		label: "delta",
		check: func(c *netlist.Circuit) (err error) {
			delay, input, err = dreq.resolveEdits(c)
			return err
		},
		run: func(rc *reqCtx) (any, int64, error) { return s.runDelta(rc, dreq, delay, input) },
	}, nil
}

// runDelta is /v1/delta's run step: serve the edit set on the cached
// session for the request's key.
func (s *Service) runDelta(rc *reqCtx, dreq *DeltaRequest, delay map[netlist.NodeID]dist.Normal, input map[netlist.NodeID]logic.InputStats) (any, int64, error) {
	sess := s.sessions.getOrCreate(dreq.sessionKey(rc.digest), rc.digest)
	e0 := time.Now()
	cold, evals, er, err := sess.serve(dreq, rc.c, rc.inputs, delay, input, rc.scope)
	if errors.Is(err, incr.ErrRejected) {
		// Rejected before any edit was applied: the session is intact.
		return nil, 0, errBadRequest("%v", err)
	}
	if err != nil {
		// A failure mid-update leaves the session's analysis
		// half-updated; drop it so the next request re-hydrates from
		// scratch.
		s.sessions.drop(sess.key)
		return nil, 0, err
	}
	cost := rc.scope.M().CostUnits()
	er.ElapsedNS = time.Since(e0).Nanoseconds()
	er.CostUnits = cost
	rc.netsRecomputed = evals
	rc.session = "warm"
	if cold {
		rc.session = "cold"
	}
	return &DeltaResponse{
		RequestID:      rc.id,
		TraceID:        rc.traceID,
		NetlistDigest:  rc.digest,
		Circuit:        rc.circuitInfo(),
		Scenario:       dreq.Scenario,
		Engine:         er,
		Edits:          len(delay) + len(input),
		NetsRecomputed: evals,
		Session:        rc.session,
		CostUnits:      cost,
	}, cost, nil
}
