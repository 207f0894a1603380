// Package service implements the spstad analysis daemon: an HTTP
// service that runs the SPSTA, moment-matching and Monte Carlo
// engines on demand. Every request gets its own request ID and its
// own *obs.Scope, so concurrent analyses never share instrumentation
// state; finished scopes' registries are added into one lifetime
// registry that /metrics exposes in the Prometheus text format next
// to RED series (request rate, errors, latency per engine) and
// worker-pool gauges. A background drift monitor replays a sampled recent request
// through the packed Monte Carlo engine and exports the deviation of
// the analytic engines from simulation as gauges.
//
// cmd/spstad wires this package to flags, JSON logging and signal
// handling; tests drive the Service directly through Handler.
package service

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/obs/timeline"
	"repro/internal/ssta"
	"repro/internal/synth"
)

// Config parameterizes a Service.
type Config struct {
	// Logger receives request and lifecycle logs; nil discards them.
	Logger *slog.Logger
	// MaxConcurrent bounds the analyses running at once (worker
	// slots). 0 means GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds the requests allowed to wait for a slot beyond
	// MaxConcurrent; further requests are rejected with 429. 0 means
	// a default of 16; negative disables queueing entirely.
	MaxQueue int
	// TraceDir, when non-empty, enables per-request trace files:
	// requests with "trace": true get a Chrome trace_event JSON
	// timeline written to TraceDir/req-<id>.json.
	TraceDir string
	// DriftInterval is the period of the background accuracy-drift
	// monitor; 0 disables it. Each tick replays the most recent
	// sampled request through the packed Monte Carlo engine and
	// compares the SPSTA arrival statistics against it.
	DriftInterval time.Duration
	// DriftRuns is the Monte Carlo run count of a drift replay
	// (default 2000).
	DriftRuns int
	// FlightSize is the flight recorder's ring capacity — the number
	// of recent request summaries /debug/requests can list (default
	// 128).
	FlightSize int
	// SlowLatency is the flight recorder's full-capture latency
	// threshold: a request at least this slow keeps its span tree and
	// metrics snapshot for /debug/requests/{id}. 0 disables
	// latency-triggered capture.
	SlowLatency time.Duration
	// RegistrySize bounds the netlist registry (parsed circuits kept
	// for netlist_ref requests and parse-once interning); 0 means
	// DefaultRegistrySize.
	RegistrySize int
	// CacheBytes bounds the content-addressed result cache; 0 means
	// DefaultCacheBytes, negative disables storage (single-flight
	// dedup of concurrent identical requests stays on).
	CacheBytes int64
	// SessionCacheSize bounds the cached /v1/delta incremental
	// sessions; 0 means DefaultSessionCacheSize.
	SessionCacheSize int

	// TimelineInterval is the in-process metrics timeline's sampling
	// period (DESIGN.md §17); 0 disables the sampler goroutine (the
	// store still exists and tests may drive Sample directly through
	// Timeline).
	TimelineInterval time.Duration
	// SLOLatencyThreshold (seconds, default 0.5) and
	// SLORejectionBudget (the tolerable rejected fraction, default
	// 0.01) parameterize two of defaultObjectives' fixed objectives.
	SLOLatencyThreshold float64
	SLORejectionBudget  float64
	// SLOFastWindow/SLOSlowWindow are the two burn-rate windows every
	// objective evaluates (defaults 1m/5m, at burn thresholds 2/1).
	SLOFastWindow time.Duration
	SLOSlowWindow time.Duration

	// DebugDir, when non-empty, enables SLO auto-capture: an objective
	// transitioning to burning snapshots a diagnostic bundle (CPU and
	// heap profiles, flight-recorder ring, the offending timeline
	// window) into DebugDir, listed at /debug/captures.
	DebugDir string
	// CaptureCPU is the bundle's CPU-profile duration (default 2s).
	CaptureCPU time.Duration
	// CaptureMinInterval rate-limits bundles (default 1m).
	CaptureMinInterval time.Duration
}

// Service is the spstad request handler and its shared state.
type Service struct {
	cfg      Config
	log      *slog.Logger
	reg      registry
	slots    chan struct{}
	flight   *flightRecorder
	netreg   *netRegistry
	cache    *resultCache
	sessions *sessionCache
	tl       *timeline.Store
	captures *captureManager

	mu      sync.Mutex
	sampled *Request // most recent analyze request, for drift replays
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a Service and starts its drift monitor if configured.
func New(cfg Config) *Service {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 16
	}
	if cfg.DriftRuns <= 0 {
		cfg.DriftRuns = 2000
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	s := &Service{
		cfg:      cfg,
		log:      log,
		slots:    make(chan struct{}, cfg.MaxConcurrent),
		flight:   newFlightRecorder(cfg.FlightSize, cfg.SlowLatency),
		sessions: newSessionCache(cfg.SessionCacheSize),
		stop:     make(chan struct{}),
	}
	s.cache = newResultCache(cfg.CacheBytes, &s.reg)
	// Evicting a netlist invalidates the delta sessions built on it:
	// they hold the evicted *Circuit, and serving from them after the
	// registry forgot the digest would let "stateless" delta requests
	// outlive the netlist they reference.
	s.netreg = newNetRegistry(cfg.RegistrySize, &s.reg, s.sessions.invalidateDigest)

	// The timeline store always exists (its endpoints and SLO state are
	// part of the service surface); only the sampler goroutine is
	// optional. Tests drive Sample directly through Timeline().
	s.tl = timeline.NewStore(timeline.Config{}, s.registryCollector, runtimeCollector)
	eng := timeline.NewSLOEngine(s.tl, defaultObjectives(cfg))
	s.captures = newCaptureManager(s, cfg)
	eng.OnTransition = func(st timeline.ObjectiveStatus) { s.captures.onTransition(s.log, st) }
	s.tl.SetSLO(eng)
	if cfg.TimelineInterval > 0 {
		s.tl.Start(cfg.TimelineInterval)
	}

	if cfg.DriftInterval > 0 {
		s.wg.Add(1)
		go s.driftLoop()
	}
	return s
}

// Timeline exposes the metrics timeline store (tests sample it
// directly; cmd/spstasoak reads it over HTTP instead).
func (s *Service) Timeline() *timeline.Store { return s.tl }

// Close stops the drift monitor and marks the service not ready. It
// does not stop an http.Server serving the handler — that is the
// caller's job (see cmd/spstad's graceful shutdown).
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.tl.Stop()
	s.wg.Wait()
}

func (s *Service) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Handler returns the service's HTTP mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.route("/v1/analyze", "spsta", s.analyzeJob))
	mux.HandleFunc("POST /v1/compare", s.route("/v1/compare", "compare", s.compareJob))
	mux.HandleFunc("POST /v1/delta", s.route("/v1/delta", "delta", s.deltaJob))
	mux.HandleFunc("POST /v1/netlists", s.handleNetlistUpload)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/requests", s.handleFlightList)
	mux.HandleFunc("GET /debug/requests/{id}", s.handleFlightGet)
	mux.HandleFunc("GET /debug/timeline", s.handleTimeline)
	mux.HandleFunc("GET /debug/slo", s.handleSLO)
	mux.HandleFunc("GET /debug/captures", s.handleCaptures)
	mux.HandleFunc("GET /debug/captures/{name}/{file}", s.handleCaptureFile)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.closing() {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// Request is the body of /v1/analyze and /v1/compare.
type Request struct {
	// Circuit names a built-in synthetic benchmark profile (s208 …
	// s1238); Bench alternatively carries an inline ISCAS-style
	// .bench netlist; NetlistRef names a previously-registered
	// netlist by its content digest (POST /v1/netlists, or the
	// netlist_digest of any prior response). Exactly one must be set.
	Circuit    string `json:"circuit,omitempty"`
	Bench      string `json:"bench,omitempty"`
	NetlistRef string `json:"netlist_ref,omitempty"`
	// Scenario selects the launch-point statistics: "I" (uniform,
	// default) or "II" (skewed).
	Scenario string `json:"scenario,omitempty"`
	// Engine: spsta (default), moment, mc, or all.
	Engine string `json:"engine,omitempty"`
	// Epsilon is the per-net adaptive-pruning error budget of the
	// spsta engine (0 = exact). A value > 0 is a 400 unless Engine is
	// spsta or all; the moment engine always runs exact.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Sigma > 0 selects variational N(1, sigma^2) gate delays
	// instead of deterministic unit delays.
	Sigma float64 `json:"sigma,omitempty"`
	// Workers is the spsta engine's level-parallel worker count and
	// the mc engine's shard count (0 = GOMAXPROCS, at most
	// maxRequestWorkers); the moment engine ignores it and runs
	// serially.
	Workers int `json:"workers,omitempty"`
	// Runs and Seed parameterize the Monte Carlo engine (defaults
	// 10000 and 1).
	Runs int   `json:"runs,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Coarsen selects the spsta engine's depth-adaptive grid-coarsening
	// policy (DESIGN.md §15): "off" (default) keeps one grid; "auto"
	// re-bins 2× at every level boundary where the finished level's
	// widest t.o.p. support exceeds 96 bins. Any other spelling is a
	// 400. The re-binning deviation is certified through max_budget.
	Coarsen string `json:"coarsen,omitempty"`
	// coarsen is Coarsen parsed by decode (the zero value, off, for a
	// Request that did not come through it).
	coarsen core.CoarsenMode
	// Trace requests a per-request trace file (requires the service
	// to be configured with a TraceDir).
	Trace bool `json:"trace,omitempty"`
}

// DirStat is one direction's arrival statistics at an endpoint.
type DirStat struct {
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
	P     float64 `json:"p"`
}

// EndpointStat is one endpoint's statistics from one engine.
type EndpointStat struct {
	Net  string  `json:"net"`
	P0   float64 `json:"p0,omitempty"`
	P1   float64 `json:"p1,omitempty"`
	Rise DirStat `json:"rise"`
	Fall DirStat `json:"fall"`
}

// EngineResult is one engine's output for a request.
type EngineResult struct {
	Engine    string         `json:"engine"`
	ElapsedNS int64          `json:"elapsed_ns"`
	Endpoints []EndpointStat `json:"endpoints"`
	// CostUnits is the engine's deterministic work-unit cost (DESIGN.md
	// §14): identical requests report identical cost regardless of the
	// worker count or machine.
	CostUnits int64 `json:"cost_units"`
	// PrunedMass and MaxBudget certify an epsilon > 0 or coarsened
	// run of the spsta engine.
	PrunedMass float64 `json:"pruned_mass,omitempty"`
	MaxBudget  float64 `json:"max_budget,omitempty"`
	// Cached marks a result served from the content-addressed result
	// cache (or shared from a concurrent identical request) instead of
	// a fresh engine run. CostUnits then reports the original run's
	// cost; the serving request did ~no work.
	Cached bool `json:"cached,omitempty"`
}

// CircuitInfo describes the analyzed circuit.
type CircuitInfo struct {
	Name  string `json:"name"`
	Gates int    `json:"gates"`
	Depth int    `json:"depth"`
}

// Response is the body of a successful /v1/analyze.
type Response struct {
	RequestID string      `json:"request_id"`
	TraceID   string      `json:"trace_id"`
	Circuit   CircuitInfo `json:"circuit"`
	// NetlistDigest is the circuit's canonical content digest, usable
	// as netlist_ref in later requests.
	NetlistDigest string         `json:"netlist_digest"`
	Scenario      string         `json:"scenario"`
	Engines       []EngineResult `json:"engines"`
	CostUnits     int64          `json:"cost_units"`
	TraceFile     string         `json:"trace_file,omitempty"`
}

// CompareRow is one endpoint/direction line of /v1/compare: the
// SPSTA and Monte Carlo arrival statistics side by side with their
// absolute deviations.
type CompareRow struct {
	Net        string  `json:"net"`
	Dir        string  `json:"dir"`
	SPSTAMu    float64 `json:"spsta_mu"`
	SPSTASigma float64 `json:"spsta_sigma"`
	MCMu       float64 `json:"mc_mu"`
	MCSigma    float64 `json:"mc_sigma"`
	DMu        float64 `json:"d_mu"`
	DSigma     float64 `json:"d_sigma"`
}

// CompareResponse is the body of a successful /v1/compare.
type CompareResponse struct {
	RequestID     string       `json:"request_id"`
	TraceID       string       `json:"trace_id"`
	Circuit       CircuitInfo  `json:"circuit"`
	NetlistDigest string       `json:"netlist_digest"`
	Scenario      string       `json:"scenario"`
	Rows          []CompareRow `json:"rows"`
	MaxMuDev      float64      `json:"max_mu_dev"`
	MaxSigmaDev   float64      `json:"max_sigma_dev"`
	CostUnits     int64        `json:"cost_units"`
	// Cached marks a comparison whose spsta and mc results both came
	// from the result cache.
	Cached    bool   `json:"cached,omitempty"`
	TraceFile string `json:"trace_file,omitempty"`
}

// httpError carries a status code out of request decoding/validation.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// panicErr is a panic recovered on a request's compute path. It is not
// an httpError, so the pipeline answers 500; the stack, taken at the
// recover site while the panicking frames are still on it, is kept in
// the request's flight-recorder entry.
type panicErr struct {
	val   any
	stack string
}

func (e *panicErr) Error() string { return fmt.Sprintf("internal error: %v", e.val) }

// panicError turns a recovered panic into the request's error. Call it
// from the deferred function that recovered.
func panicError(p any) error {
	return &panicErr{val: p, stack: string(debug.Stack())}
}

// newRequestID returns a 16-hex-digit random request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it
		// somehow does, a constant ID only degrades log correlation.
		return "req-00000000"
	}
	return "req-" + hex.EncodeToString(b[:])
}

// acquire takes a worker slot, queueing up to cfg.MaxQueue requests.
// The returned release func must be called when the work is done; a
// nil release means the request was rejected with the returned error.
func (s *Service) acquire(r *http.Request) (release func(), err error) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	default:
	}
	if s.cfg.MaxQueue < 0 || s.reg.queueDepth.Load() >= int64(s.cfg.MaxQueue) {
		s.reg.rejected.Add(1)
		return nil, &httpError{status: http.StatusTooManyRequests, msg: "worker queue full"}
	}
	s.reg.queueDepth.Add(1)
	defer s.reg.queueDepth.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	case <-r.Context().Done():
		s.reg.rejected.Add(1)
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: "client went away while queued"}
	case <-s.stop:
		s.reg.rejected.Add(1)
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: "shutting down"}
	}
}

// maxRequestWorkers caps a request's workers field. Every worker of
// a Monte Carlo run allocates its own per-net result, so an unbounded
// count lets one small request exhaust the daemon's memory.
const maxRequestWorkers = 256

// decodeJSON strictly decodes a request body of at most 1 MiB into v:
// unknown fields are an error.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest("bad request body: %v", err)
	}
	return nil
}

// validateShared checks the fields every analysis body shares (exactly
// one circuit source, the scenario, epsilon and sigma) and defaults
// the scenario to I.
func validateShared(circuit, bench, ref string, scenario *string, epsilon, sigma float64) error {
	n := 0
	for _, set := range []bool{circuit != "", bench != "", ref != ""} {
		if set {
			n++
		}
	}
	if n != 1 {
		return errBadRequest("exactly one of circuit, bench or netlist_ref must be set")
	}
	switch *scenario {
	case "", "I":
		*scenario = "I"
	case "II":
	default:
		return errBadRequest("unknown scenario %q (want I or II)", *scenario)
	}
	if epsilon < 0 {
		return errBadRequest("epsilon must be >= 0")
	}
	if sigma < 0 {
		return errBadRequest("sigma must be >= 0")
	}
	return nil
}

// decode parses and validates an analyze or compare body.
func decode(r *http.Request) (*Request, error) {
	var req Request
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if err := validateShared(req.Circuit, req.Bench, req.NetlistRef, &req.Scenario, req.Epsilon, req.Sigma); err != nil {
		return nil, err
	}
	if req.Engine == "" {
		req.Engine = "spsta"
	}
	switch req.Engine {
	case "spsta", "moment", "mc", "all":
	default:
		return nil, errBadRequest("unknown engine %q (want spsta, moment, mc, or all)", req.Engine)
	}
	mode, err := core.ParseCoarsenMode(req.Coarsen)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	req.coarsen, req.Coarsen = mode, mode.String()
	if mode != core.CoarsenOff && req.Engine != "spsta" && req.Engine != "all" {
		return nil, errBadRequest("coarsen applies only to the spsta engine (engine %q)", req.Engine)
	}
	if req.Epsilon > 0 && req.Engine != "spsta" && req.Engine != "all" {
		return nil, errBadRequest("epsilon applies only to the spsta engine (engine %q)", req.Engine)
	}
	if req.Workers < 0 || req.Workers > maxRequestWorkers {
		return nil, errBadRequest("workers must be in [0, %d]", maxRequestWorkers)
	}
	if req.Runs == 0 {
		req.Runs = 10000
	}
	if req.Runs < 0 || req.Runs > 10_000_000 {
		return nil, errBadRequest("runs must be in [1, 10000000]")
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	return &req, nil
}

// resolveSource resolves a request's circuit through the netlist
// registry: a netlist_ref is a straight digest lookup (404 when the
// registry no longer holds it); profile names and inline bench bodies
// are interned under alias keys so each distinct netlist is generated
// or parsed once and every spelling of it shares one digest and one
// *Circuit. The returned digest is the canonical content address used
// by the result cache, the delta session cache, and the
// netlist_digest response field.
func (s *Service) resolveSource(circuit, benchText, ref string) (*netlist.Circuit, string, error) {
	switch {
	case ref != "":
		c, ok := s.netreg.get(ref)
		if !ok {
			return nil, "", &httpError{
				status: http.StatusNotFound,
				msg:    fmt.Sprintf("unknown netlist_ref %q (upload it via POST /v1/netlists)", ref),
			}
		}
		return c, ref, nil
	case circuit != "":
		return s.netreg.intern("profile:"+circuit, func() (*netlist.Circuit, error) {
			p, ok := synth.ProfileByName(circuit)
			if !ok {
				return nil, errBadRequest("unknown circuit %q (want a built-in profile, s208 … s1238)", circuit)
			}
			c, err := synth.Generate(p)
			if err != nil {
				return nil, errBadRequest("%v", err)
			}
			return c, nil
		})
	default:
		sum := sha256.Sum256([]byte(benchText))
		return s.netreg.intern("bench:"+hex.EncodeToString(sum[:]), func() (*netlist.Circuit, error) {
			c, err := bench.Parse(strings.NewReader(benchText), "inline")
			if err != nil {
				return nil, errBadRequest("%v", err)
			}
			return c, nil
		})
	}
}

// scenarioInputs returns the launch-point statistics of scenario "I"
// or "II".
func scenarioInputs(c *netlist.Circuit, scenario string) map[netlist.NodeID]logic.InputStats {
	scen := experiments.ScenarioI
	if scenario == "II" {
		scen = experiments.ScenarioII
	}
	return experiments.Inputs(c, scen)
}

// spstaAnalyzer is the spsta engine's analyzer for the request's
// knobs, recording into scope; the served run and the drift replay
// both build it here.
func (req *Request) spstaAnalyzer(scope *obs.Scope) core.Analyzer {
	return core.Analyzer{
		Workers: req.Workers, Delay: req.delay(), ErrorBudget: req.Epsilon,
		Coarsen: core.CoarsenPolicy{Mode: req.coarsen}, Obs: scope,
	}
}

func (req *Request) delay() ssta.DelayModel { return delayModel(req.Sigma) }

// mcWorkers is the Monte Carlo shard count: workers, with 0 resolved
// to GOMAXPROCS.
func (req *Request) mcWorkers() int {
	if req.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return req.Workers
}

// delayModel returns the variational N(1, sigma^2) gate-delay model,
// or nil (unit delays) for sigma <= 0.
func delayModel(sigma float64) ssta.DelayModel {
	if sigma <= 0 {
		return nil
	}
	return func(n *netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: sigma} }
}

// reqCtx carries one in-flight request's identity, timing and resolved
// circuit through the pipeline, the engines, and the flight recorder.
type reqCtx struct {
	id      string
	traceID string
	path    string
	label   string // RED and flight label: the route's until decode succeeds
	t0      time.Time
	queueNS int64
	req     *Request // nil until decode succeeds
	scope   *obs.Scope

	c         *netlist.Circuit
	digest    string
	in        map[netlist.NodeID]logic.InputStats // see inputs
	hits      []*cacheEntry                       // the peek step's full hit
	traceFile string                              // set when the request writes one

	// cost is the cost_units the response reports (run's), which the
	// root span carries; cached / netsRecomputed / session feed the
	// flight summary, the root span and the log line: a fully
	// cache-served request, and a delta request's recompute footprint
	// and session state.
	cost           int64
	cached         bool
	netsRecomputed int
	session        string
}

// job is one decoded analysis request, built by its route's decode
// step. req carries the circuit source, cache-key knobs and flight
// summary fields; peek lists the engines whose stored results serve
// the whole request without a worker slot; check (optional) validates
// the request against its resolved circuit before admission; run
// produces the response body and the cost_units it reports.
type job struct {
	req   *Request
	label string
	peek  []string
	check func(c *netlist.Circuit) error
	run   func(rc *reqCtx) (any, int64, error)
}

// route returns the handler of one analysis route: the request
// pipeline begin → decode → resolve → cache peek → admit → scope → run
// → encode → finish. Each step has exactly one site, here, in serve,
// in execute or in finish; a route supplies only its decode step,
// which returns the job, and the job's run step. label is the RED
// label of a body that does not decode.
func (s *Service) route(path, label string, decode func(*http.Request) (*job, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rc := s.begin(w, r, path, label)
		body, err := s.serve(r, rc, decode)
		s.finish(w, rc, body, err)
	}
}

// serve is the pipeline's decode → resolve → cache peek → execute →
// encode stretch: it returns the response body or the request's error.
func (s *Service) serve(r *http.Request, rc *reqCtx, decode func(*http.Request) (*job, error)) (jsonBody, error) {
	j, err := decode(r)
	if err == nil {
		rc.req, rc.label = j.req, j.label
		rc.c, rc.digest, err = s.resolveSource(j.req.Circuit, j.req.Bench, j.req.NetlistRef)
	}
	if err == nil && j.check != nil {
		err = j.check(rc.c)
	}
	if err != nil {
		return nil, err
	}
	// Peek: a fully stored request never queues behind cold ones. A
	// traced request always runs (a trace of a cache lookup is
	// useless); a partial hit reuses its stored engines in run.
	if len(j.peek) > 0 && !j.req.Trace {
		keys := make([]string, len(j.peek))
		for i, engine := range j.peek {
			keys[i] = cacheKey(rc.digest, j.req, engine)
		}
		rc.hits, rc.cached = s.cache.peekAll(keys)
	}
	resp, err := s.execute(r, rc, j.run)
	if err != nil {
		return nil, err
	}
	return encodeJSON(resp)
}

// execute is the pipeline's admit → scope → run stretch. A request the
// peek step served takes no worker slot. Slot release and inflight
// decrement are deferred, and a panic in run becomes the request's 500
// here, so no exit leaks a slot.
func (s *Service) execute(r *http.Request, rc *reqCtx, run func(*reqCtx) (any, int64, error)) (resp any, err error) {
	if !rc.cached {
		q0 := time.Now()
		release, err := s.acquire(r)
		rc.queueNS = time.Since(q0).Nanoseconds()
		if err != nil {
			return nil, err
		}
		defer release()
		s.reg.inflight.Add(1)
		defer s.reg.inflight.Add(-1)
	}
	defer func() {
		if p := recover(); p != nil {
			resp, err = nil, panicError(p)
		}
	}()
	s.newScope(rc)
	resp, rc.cost, err = run(rc)
	return resp, err
}

// finish is the pipeline's one exit, for every request that began,
// served or failed. It reads the end time once, and that duration is
// the root span's, the RED observation's, the flight summary's
// latency_ns and the log line's duration_ms. Every request that built
// a scope records its root span here, failed ones included; a decode
// failure or a load-shed rejection built none. A requested trace file
// is written after the root span, so it holds the whole tree, and only
// for a request that succeeded; a failed write fails the request.
func (s *Service) finish(w http.ResponseWriter, rc *reqCtx, body jsonBody, err error) {
	d := time.Since(rc.t0)
	if tr := rc.scope.T(); tr != nil {
		attrs := map[string]any{"request_id": rc.id, "engine": rc.label, "cost_units": rc.cost, "cached": rc.cached}
		if rc.session != "" {
			attrs["nets_recomputed"], attrs["session"] = rc.netsRecomputed, rc.session
		}
		if err != nil {
			attrs["error"] = err.Error()
		}
		tr.RecordSpan(rc.scope.Span, 0, "POST "+rc.path, "request", 0, rc.t0, d, attrs)
		if err == nil && rc.traceFile != "" {
			err = writeTraceFile(rc.traceFile, tr)
		}
	}
	s.reg.observe(rc.label, d, err != nil)
	actual := rc.scope.M().CostUnits()
	args := []any{"request_id", rc.id, "trace_id", rc.traceID, "path", rc.path, "engine", rc.label,
		"duration_ms", float64(d.Microseconds()) / 1e3}
	if err != nil {
		status := http.StatusInternalServerError
		var he *httpError
		if errors.As(err, &he) {
			status = he.status
		}
		var stack string
		if pe := (*panicErr)(nil); errors.As(err, &pe) {
			stack = pe.stack
		}
		s.recordFlight(rc.summary(status, err.Error(), actual, d), rc.scope, stack)
		s.log.Error("request failed", append(args, "status", status, "error", err.Error())...)
		writeJSON(w, status, map[string]string{"request_id": rc.id, "trace_id": rc.traceID, "error": err.Error()})
		return
	}
	rc.scope.M().AddTo(&s.reg.engine)
	s.reg.cost.observe(actual)
	s.reg.deltaNets.Add(int64(rc.netsRecomputed))
	if rc.label != "delta" {
		s.sample(rc.req)
	}
	captured := s.recordFlight(rc.summary(http.StatusOK, "", actual, d), rc.scope, "")
	args = append(args, "circuit", rc.c.Name, "status", http.StatusOK,
		"cost_units", actual, "cached", rc.cached, "captured", captured)
	if rc.session != "" {
		args = append(args, "nets_recomputed", rc.netsRecomputed, "session", rc.session)
	}
	s.log.Info("request", args...)
	writeJSON(w, http.StatusOK, body)
}

// writeTraceFile writes the tracer's Chrome trace_event JSON to path.
func writeTraceFile(path string, tr *obs.Tracer) error {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o666)
}

// begin starts a request context: a fresh request ID, and a trace ID
// continued from the client's W3C traceparent header when one is
// present (else newly generated). Both ride back on response headers
// so clients and proxies can correlate without parsing the body.
func (s *Service) begin(w http.ResponseWriter, r *http.Request, path, label string) *reqCtx {
	rc := &reqCtx{id: newRequestID(), path: path, label: label, t0: time.Now()}
	if tid, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		rc.traceID = tid
	} else {
		rc.traceID = obs.NewTraceID()
	}
	w.Header().Set("X-Trace-Id", rc.traceID)
	w.Header().Set("Traceparent", obs.FormatTraceparent(rc.traceID, 0))
	return rc
}

// newScope builds the request's observability scope and allocates its
// root span: a tracer is always on (the flight recorder needs span
// trees post hoc), but it is coarse — request, engine, level and shard
// spans only — unless the request asked for a trace file, which
// upgrades to fine per-gate spans. Metrics are on unless the peek step
// served every engine: a full cache hit runs no engine, so it gets no
// registry and every obs call on its path sees a nil one.
func (s *Service) newScope(rc *reqCtx) {
	tr := obs.NewCoarseTracer()
	if rc.req.Trace && s.cfg.TraceDir != "" {
		tr = obs.NewTracer()
		rc.traceFile = filepath.Join(s.cfg.TraceDir, rc.id+".json")
	}
	tr.SetTraceID(rc.traceID)
	rc.scope = &obs.Scope{Tracer: tr, Span: tr.NewSpan()}
	if !rc.cached {
		rc.scope.Metrics = obs.NewMetrics()
	}
}

// summary assembles the flight-recorder record of the request in its
// current state; d is its latency (see finish).
func (rc *reqCtx) summary(status int, errMsg string, cost int64, d time.Duration) RequestSummary {
	sum := RequestSummary{
		ID: rc.id, TraceID: rc.traceID, Path: rc.path, Engine: rc.label,
		Status: status, Error: errMsg,
		Rejected: status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable,
		Start:    rc.t0, LatencyNS: d.Nanoseconds(), QueueNS: rc.queueNS,
		CostUnits: cost,
		Cached:    rc.cached, Delta: rc.label == "delta", NetsRecomputed: rc.netsRecomputed,
	}
	if req := rc.req; req != nil {
		sum.Circuit = req.Circuit
		if sum.Circuit == "" && req.NetlistRef != "" {
			ref := req.NetlistRef
			if len(ref) > 12 {
				ref = ref[:12]
			}
			sum.Circuit = "ref:" + ref
		}
		if sum.Circuit == "" {
			sum.Circuit = "inline"
		}
		sum.Scenario = req.Scenario
		sum.Epsilon = req.Epsilon
		sum.Sigma = req.Sigma
		sum.Workers = req.Workers
		sum.Runs = req.Runs
		sum.Coarsen = req.Coarsen
	}
	return sum
}

// inputs returns the request's launch-point statistics, built on first
// use: cache hits and warm delta sessions never need them.
func (rc *reqCtx) inputs() map[netlist.NodeID]logic.InputStats {
	if rc.in == nil {
		rc.in = scenarioInputs(rc.c, rc.req.Scenario)
	}
	return rc.in
}

func (rc *reqCtx) circuitInfo() CircuitInfo {
	return CircuitInfo{Name: rc.c.Name, Gates: len(rc.c.Nodes), Depth: rc.c.Depth()}
}

// engineList expands the request's engine selector.
func (req *Request) engineList() []string {
	if req.Engine == "all" {
		return []string{"spsta", "moment", "mc"}
	}
	return []string{req.Engine}
}

// analyzeJob is /v1/analyze's decode step.
func (s *Service) analyzeJob(r *http.Request) (*job, error) {
	req, err := decode(r)
	if err != nil {
		return nil, err
	}
	return &job{req: req, label: req.Engine, peek: req.engineList(), run: s.runAnalyze}, nil
}

// runAnalyze is /v1/analyze's run step: the requested engines in
// order, each through the result cache. A full peek hit is answered
// from the entries' stored bytes (see hitBody).
func (s *Service) runAnalyze(rc *reqCtx) (any, int64, error) {
	resp := &Response{
		RequestID:     rc.id,
		TraceID:       rc.traceID,
		Circuit:       rc.circuitInfo(),
		NetlistDigest: rc.digest,
		Scenario:      rc.req.Scenario,
		TraceFile:     rc.traceFile,
	}
	cached := true
	for _, engine := range rc.req.engineList() {
		er, err := s.cachedEngine(rc, engine)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", engine, err)
		}
		cached = cached && er.Cached
		resp.Engines = append(resp.Engines, er)
		resp.CostUnits += er.CostUnits
	}
	rc.cached = cached
	if rc.hits != nil {
		if body, ok := s.hitBody(resp, rc.hits); ok {
			return body, resp.CostUnits, nil
		}
	}
	return resp, resp.CostUnits, nil
}

// emptyEngines is how a Response with no engines encodes its engines
// field. Only cost_units and the empty trace_file follow it, so its
// last occurrence is the field itself.
var emptyEngines = []byte(`"engines": []`)

// hitBody returns the body of a full hit, byte for byte the indented
// encoding of resp: resp encoded without its engines (the head and
// tail), and in between each engine's stored bytes (see
// cacheEntry.body), which writeJSON writes without copying. ok is
// false when a result does not encode; resp is then served as a value
// and fails as one.
func (s *Service) hitBody(resp *Response, hits []*cacheEntry) (body jsonBody, ok bool) {
	shell := *resp
	shell.Engines = []EngineResult{}
	enc, err := encodeJSON(&shell)
	if err != nil {
		return nil, false
	}
	b := enc[0]
	i := bytes.LastIndex(b, emptyEngines) + len(emptyEngines) - 1
	body = append(make(jsonBody, 0, 2*len(hits)+2), b[:i])
	for k, e := range hits {
		stored := s.cache.encoded(e)
		if stored == nil {
			return nil, false
		}
		if k > 0 {
			body = append(body, comma)
		}
		body = append(body, stored)
	}
	return append(body, closeIndent, b[i:]), true
}

var comma, closeIndent = []byte(","), []byte("\n  ")

// cachedEngine returns one engine's result for the request: the peek
// step's hit, a fresh traced run (published for later requests), or a
// result-cache lookup that runs the engine under single-flight on a
// miss, so concurrent identical requests share one execution.
func (s *Service) cachedEngine(rc *reqCtx, engine string) (er EngineResult, err error) {
	src := cacheHit
	switch {
	case rc.hits != nil:
		for _, h := range rc.hits {
			if h.er.Engine == engine {
				er = h.er
			}
		}
	case rc.req.Trace:
		src = cacheComputed
		if er, err = s.runEngineSpanned(rc, engine); err == nil {
			s.cache.store(cacheKey(rc.digest, rc.req, engine), er)
		}
	default:
		er, src, err = s.cache.getOrCompute(cacheKey(rc.digest, rc.req, engine), func() (EngineResult, error) {
			return s.runEngineSpanned(rc, engine)
		})
	}
	if err == nil && src != cacheComputed {
		er.Cached = true
		// A zero-duration engine span keeps the request's trace tree
		// complete even when the engine never ran here.
		tr := rc.scope.Tracer
		tr.RecordSpan(tr.NewSpan(), rc.scope.SpanID(), "engine "+engine, "engine", 0, time.Now(), 0,
			map[string]any{"cached": true, "shared": src == cacheShared, "cost_units": er.CostUnits})
	}
	return er, err
}

// NetlistUploadRequest is the body of POST /v1/netlists: an inline
// .bench netlist or a built-in profile name to register.
type NetlistUploadRequest struct {
	Circuit string `json:"circuit,omitempty"`
	Bench   string `json:"bench,omitempty"`
}

// NetlistUploadResponse returns the registered netlist's digest,
// usable as netlist_ref in analyze/compare/delta requests.
type NetlistUploadResponse struct {
	NetlistDigest string      `json:"netlist_digest"`
	Circuit       CircuitInfo `json:"circuit"`
}

// handleNetlistUpload parses and registers a netlist without
// analyzing it.
func (s *Service) handleNetlistUpload(w http.ResponseWriter, r *http.Request) {
	rc := s.begin(w, r, "/v1/netlists", "")
	var req NetlistUploadRequest
	err := decodeJSON(r, &req)
	if err == nil && (req.Circuit == "") == (req.Bench == "") {
		err = errBadRequest("exactly one of circuit or bench must be set")
	}
	if err == nil {
		rc.c, rc.digest, err = s.resolveSource(req.Circuit, req.Bench, "")
	}
	if err != nil {
		s.finish(w, rc, nil, err)
		return
	}
	s.log.Info("netlist registered",
		"request_id", rc.id, "trace_id", rc.traceID, "path", rc.path,
		"circuit", rc.c.Name, "digest", rc.digest, "registry_entries", s.netreg.len())
	writeJSON(w, http.StatusOK, &NetlistUploadResponse{NetlistDigest: rc.digest, Circuit: rc.circuitInfo()})
}

// runEngineSpanned wraps one engine run in an engine span parented
// under the request root and attributes the engine's work-unit cost
// delta (engines run serially within a request, so the delta is
// exactly this engine's cost). The span is recorded on the way out,
// a panic included, and its duration is the result's elapsed_ns.
func (s *Service) runEngineSpanned(rc *reqCtx, engine string) (er EngineResult, err error) {
	tr, m := rc.scope.Tracer, rc.scope.Metrics
	eid := tr.NewSpan()
	e0 := time.Now()
	cost0 := m.CostUnits()
	defer func() {
		d := time.Since(e0)
		er.ElapsedNS, er.CostUnits = d.Nanoseconds(), m.CostUnits()-cost0
		tr.RecordSpan(eid, rc.scope.SpanID(), "engine "+engine, "engine", 0, e0, d,
			map[string]any{"cost_units": er.CostUnits})
	}()
	return runEngine(engine, rc.c, rc.inputs(), rc.req, rc.scope.WithSpan(eid))
}

// runEngine runs one engine and formats its endpoint statistics.
func runEngine(engine string, c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, req *Request, scope *obs.Scope) (EngineResult, error) {
	er := EngineResult{Engine: engine}
	eps := c.Endpoints()
	switch engine {
	case "spsta":
		a := req.spstaAnalyzer(scope)
		res, err := a.Run(c, in)
		if err != nil {
			return er, err
		}
		er.Endpoints = spstaEndpoints(res, c)
		er.PrunedMass = res.TotalPrunedMass()
		er.MaxBudget = res.MaxConsumedBudget()
	case "moment":
		a := core.MomentTiming{Delay: req.delay(), Obs: scope}
		res, err := a.Run(c, in)
		if err != nil {
			return er, err
		}
		for _, ep := range eps {
			ra, rp := res.Arrival(ep, ssta.DirRise)
			fa, fp := res.Arrival(ep, ssta.DirFall)
			er.Endpoints = append(er.Endpoints, EndpointStat{
				Net:  c.Nodes[ep].Name,
				Rise: DirStat{Mu: ra.Mu, Sigma: ra.Sigma, P: rp},
				Fall: DirStat{Mu: fa.Mu, Sigma: fa.Sigma, P: fp},
			})
		}
	case "mc":
		res, err := montecarlo.Simulate(c, in, montecarlo.Config{
			Runs: req.Runs, Seed: req.Seed, Workers: req.mcWorkers(),
			Delay: req.delay(), MomentNets: eps, Obs: scope,
		})
		if err != nil {
			return er, err
		}
		for _, ep := range eps {
			ra := res.Arrival(ep, ssta.DirRise)
			fa := res.Arrival(ep, ssta.DirFall)
			er.Endpoints = append(er.Endpoints, EndpointStat{
				Net: c.Nodes[ep].Name,
				P0:  res.P(ep, logic.Zero), P1: res.P(ep, logic.One),
				Rise: DirStat{Mu: ra.Mean(), Sigma: ra.Sigma(), P: res.P(ep, logic.Rise)},
				Fall: DirStat{Mu: fa.Mean(), Sigma: fa.Sigma(), P: res.P(ep, logic.Fall)},
			})
		}
	default:
		return er, errBadRequest("unknown engine %q", engine)
	}
	return er, nil
}

// spstaEndpoints formats a core.Result's endpoint statistics; shared
// by the analyze engines and the delta endpoint.
func spstaEndpoints(res *core.Result, c *netlist.Circuit) []EndpointStat {
	var out []EndpointStat
	for _, ep := range c.Endpoints() {
		rm, rs, rp := res.Arrival(ep, ssta.DirRise)
		fm, fs, fp := res.Arrival(ep, ssta.DirFall)
		out = append(out, EndpointStat{
			Net: c.Nodes[ep].Name,
			P0:  res.Probability(ep, logic.Zero), P1: res.Probability(ep, logic.One),
			Rise: DirStat{Mu: rm, Sigma: rs, P: rp},
			Fall: DirStat{Mu: fm, Sigma: fs, P: fp},
		})
	}
	return out
}

// compareJob is /v1/compare's decode step. A compare always runs
// spsta and mc, so an engine other than spsta (the default) is a 400
// rather than a field silently ignored.
func (s *Service) compareJob(r *http.Request) (*job, error) {
	req, err := decode(r)
	if err != nil {
		return nil, err
	}
	if req.Engine != "spsta" {
		return nil, errBadRequest("compare always runs spsta and mc (engine %q; omit engine or send spsta)", req.Engine)
	}
	return &job{req: req, label: "compare", peek: []string{"spsta", "mc"}, run: s.runCompare}, nil
}

// runCompare is /v1/compare's run step. Both engine runs go through
// the result cache, so a repeated comparison reuses the analyze
// path's cached results (and vice versa).
func (s *Service) runCompare(rc *reqCtx) (any, int64, error) {
	sp, err := s.cachedEngine(rc, "spsta")
	if err != nil {
		return nil, 0, err
	}
	mc, err := s.cachedEngine(rc, "mc")
	if err != nil {
		return nil, 0, err
	}
	rc.cached = sp.Cached && mc.Cached
	resp := &CompareResponse{
		RequestID:     rc.id,
		TraceID:       rc.traceID,
		Circuit:       rc.circuitInfo(),
		NetlistDigest: rc.digest,
		Scenario:      rc.req.Scenario,
		CostUnits:     sp.CostUnits + mc.CostUnits,
		Cached:        rc.cached,
		TraceFile:     rc.traceFile,
	}
	for i := range sp.Endpoints {
		for _, dir := range []string{"rise", "fall"} {
			a, b := sp.Endpoints[i].Rise, mc.Endpoints[i].Rise
			if dir == "fall" {
				a, b = sp.Endpoints[i].Fall, mc.Endpoints[i].Fall
			}
			if b.P == 0 {
				// No simulated run saw this transition, so the Monte
				// Carlo conditional moments are undefined; a deviation
				// against them would be noise.
				continue
			}
			row := CompareRow{
				Net: sp.Endpoints[i].Net, Dir: dir,
				SPSTAMu: a.Mu, SPSTASigma: a.Sigma,
				MCMu: b.Mu, MCSigma: b.Sigma,
				DMu: abs(a.Mu - b.Mu), DSigma: abs(a.Sigma - b.Sigma),
			}
			resp.Rows = append(resp.Rows, row)
			resp.MaxMuDev = max(resp.MaxMuDev, row.DMu)
			resp.MaxSigmaDev = max(resp.MaxSigmaDev, row.DSigma)
		}
	}
	return resp, resp.CostUnits, nil
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.writePrometheus(w)
	s.writeSLOMetrics(w)
}

// sample stores the request for the drift monitor. Inline-bench
// requests are kept too — the replay re-parses the source.
func (s *Service) sample(req *Request) {
	cp := *req
	s.mu.Lock()
	s.sampled = &cp
	s.mu.Unlock()
}

// handleFlightList serves the flight recorder's ring, newest first.
// ?since= keeps only requests that started at or after the given
// time: an RFC3339 timestamp, unix seconds, or a Go duration measured
// back from now ("5m" = the last five minutes).
func (s *Service) handleFlightList(w http.ResponseWriter, r *http.Request) {
	var since time.Time
	if raw := r.URL.Query().Get("since"); raw != "" {
		var err error
		since, err = parseSince(raw, time.Now())
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": "bad since: want RFC3339, unix seconds, or a duration like 5m",
			})
			return
		}
	}
	sums, total := s.flight.listSince(since)
	writeJSON(w, http.StatusOK, map[string]any{
		"total_recorded": total,
		"requests":       sums,
	})
}

// parseSince interprets a ?since= value relative to now.
func parseSince(raw string, now time.Time) (time.Time, error) {
	if t, err := time.Parse(time.RFC3339, raw); err == nil {
		return t, nil
	}
	if secs, err := strconv.ParseFloat(raw, 64); err == nil && secs > 0 {
		sec := int64(secs)
		return time.Unix(sec, int64((secs-float64(sec))*1e9)), nil
	}
	if d, err := time.ParseDuration(raw); err == nil && d > 0 {
		return now.Add(-d), nil
	}
	return time.Time{}, fmt.Errorf("unparseable since %q", raw)
}

// handleFlightGet serves one recorded request: the summary plus, for
// captured entries, the span tree and metrics snapshot, and for a
// recovered panic, its stack (?format=trace downloads the raw Chrome
// trace_event JSON instead).
func (s *Service) handleFlightGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.flight.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "request not in flight recorder"})
		return
	}
	if r.URL.Query().Get("format") == "trace" {
		if e.tracer == nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "request was not captured (below slow threshold)"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", "attachment; filename="+e.sum.ID+".json")
		_ = e.tracer.WriteJSON(w)
		return
	}
	out := map[string]any{"summary": e.sum}
	if e.tracer != nil {
		out["spans"] = e.tracer.Tree()
	}
	if e.snap != nil {
		out["metrics"] = e.snap
	}
	if e.stack != "" {
		out["stack"] = e.stack
	}
	writeJSON(w, http.StatusOK, out)
}

// jsonBody is a JSON response body as pieces written in order.
type jsonBody [][]byte

// encodeJSON returns v's response body: its indented JSON encoding,
// or v itself when v is already a jsonBody.
func encodeJSON(v any) (jsonBody, error) {
	if b, ok := v.(jsonBody); ok {
		return b, nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return jsonBody{buf.Bytes()}, nil
}

// writeJSON writes v (see encodeJSON) as the response with status and
// its Content-Length. It encodes before it writes the status, so a
// value that does not encode, such as a NaN float, is answered 500
// with the error instead of the status and an empty body. The request
// pipeline encodes before finish, so there the failure is the
// request's error instead.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = encodeJSON(map[string]string{"error": "encoding response: " + err.Error()}) // a string map always encodes
	}
	n := 0
	for _, b := range body {
		n += len(b)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, b := range body {
		if _, err := w.Write(b); err != nil {
			return // the client went away; nothing else can reach it
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
