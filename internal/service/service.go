// Package service implements the spstad analysis daemon: an HTTP
// service that runs the SPSTA, moment-matching and Monte Carlo
// engines on demand. Every request gets its own request ID and its
// own *obs.Scope, so concurrent analyses never share instrumentation
// state; finished scopes are merged into a service-lifetime aggregate
// that /metrics exposes in the Prometheus text format next to RED
// series (request rate, errors, latency per engine) and worker-pool
// gauges. A background drift monitor replays a sampled recent request
// through the packed Monte Carlo engine and exports the deviation of
// the analytic engines from simulation as gauges.
//
// cmd/spstad wires this package to flags, JSON logging and signal
// handling; tests drive the Service directly through Handler.
package service

import (
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
	// SlowCost is the capture threshold in work-unit cost (see
	// DESIGN.md §14); 0 disables cost-triggered capture.
	SlowCost int64
	// RegistrySize bounds the netlist registry (parsed circuits kept
	// for netlist_ref requests and parse-once interning); 0 means
	// DefaultRegistrySize.
	RegistrySize int
	// CacheBytes bounds the content-addressed result cache; 0 means
	// DefaultCacheBytes, negative disables storage (single-flight
	// dedup of concurrent identical requests stays on).
	CacheBytes int64
	// CacheTTL expires cached results after the given age; 0 keeps
	// them until evicted by size.
	CacheTTL time.Duration
	// SessionCacheSize bounds the cached /v1/delta incremental
	// sessions; 0 means DefaultSessionCacheSize.
	SessionCacheSize int

	// TimelineInterval is the in-process metrics timeline's sampling
	// period (DESIGN.md §17); 0 disables the sampler goroutine (the
	// store still exists and tests may drive Sample directly through
	// Timeline).
	TimelineInterval time.Duration
	// TimelineCapacity bounds each timeline series' ring (samples
	// kept); 0 means timeline.DefaultCapacity.
	TimelineCapacity int
	// Objectives overrides the default SLO set; nil applies
	// defaultObjectives(cfg), an explicit empty slice disables SLO
	// evaluation.
	Objectives []timeline.Objective
	// SLO knobs consumed by defaultObjectives (zero values pick the
	// documented defaults). Availability and LatencyTarget are
	// good-event fractions; LatencyThreshold is seconds;
	// RejectionBudget is the tolerable rejected fraction;
	// CacheHitFloor (0 disables) is the minimum cache hit rate;
	// DriftBound (0 disables) bounds the drift monitor's mean
	// deviation gauge.
	SLOAvailability     float64
	SLOLatencyThreshold float64
	SLOLatencyTarget    float64
	SLORejectionBudget  float64
	SLOCacheHitFloor    float64
	SLODriftBound       float64
	// SLOFastWindow/SLOSlowWindow and their burn thresholds
	// parameterize the two-window burn-rate rule (defaults 1m/5m at
	// burn 2/1).
	SLOFastWindow time.Duration
	SLOSlowWindow time.Duration
	SLOFastBurn   float64
	SLOSlowBurn   float64

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
		flight:   newFlightRecorder(cfg.FlightSize, cfg.SlowLatency, cfg.SlowCost),
		sessions: newSessionCache(cfg.SessionCacheSize),
		stop:     make(chan struct{}),
	}
	s.cache = newResultCache(cfg.CacheBytes, cfg.CacheTTL, &s.reg)
	// Evicting a netlist invalidates the delta sessions built on it:
	// they hold the evicted *Circuit, and serving from them after the
	// registry forgot the digest would let "stateless" delta requests
	// outlive the netlist they reference.
	s.netreg = newNetRegistry(cfg.RegistrySize, &s.reg, s.sessions.invalidateDigest)

	// The timeline store always exists (its endpoints and SLO state are
	// part of the service surface); only the sampler goroutine is
	// optional. Tests drive Sample directly through Timeline().
	s.tl = timeline.NewStore(
		timeline.Config{Capacity: cfg.TimelineCapacity},
		s.registryCollector, runtimeCollector,
	)
	objectives := cfg.Objectives
	if objectives == nil {
		objectives = defaultObjectives(cfg)
	}
	eng := timeline.NewSLOEngine(s.tl, objectives)
	s.captures = newCaptureManager(s, cfg)
	eng.OnTransition = func(st timeline.ObjectiveStatus) {
		if s.captures != nil {
			s.captures.onTransition(st)
		} else if st.Burning {
			s.log.Warn("slo burning", "objective", st.Name, "since", st.Since, "windows", st.Windows)
		} else {
			s.log.Info("slo recovered", "objective", st.Name, "since", st.Since)
		}
	}
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
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	mux.HandleFunc("POST /v1/delta", s.handleDelta)
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
	// spsta and moment engines (0 = exact).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Sigma > 0 selects variational N(1, sigma^2) gate delays
	// instead of deterministic unit delays.
	Sigma float64 `json:"sigma,omitempty"`
	// Workers is the level-parallel worker count / Monte Carlo shard
	// count (0 = GOMAXPROCS, at most maxRequestWorkers).
	Workers int `json:"workers,omitempty"`
	// Runs and Seed parameterize the Monte Carlo engine (defaults
	// 10000 and 1).
	Runs int   `json:"runs,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Coarsen selects the spsta engine's depth-adaptive grid-coarsening
	// policy: "off" (default), "fixed" or "auto" (DESIGN.md §15). The
	// re-binning deviation is certified through max_budget.
	Coarsen string `json:"coarsen,omitempty"`
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
	// PrunedMass and MaxBudget certify an epsilon > 0 run of the
	// discrete engines.
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
	Cached bool `json:"cached,omitempty"`
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

// panicError turns a panic recovered on a request's compute path into
// that request's error. It is not an httpError, so the handler answers
// 500.
func panicError(p any) error {
	return fmt.Errorf("internal error: %v", p)
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

// decode parses and validates a request body.
func decode(r *http.Request) (*Request, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, errBadRequest("bad request body: %v", err)
	}
	n := 0
	for _, set := range []bool{req.Circuit != "", req.Bench != "", req.NetlistRef != ""} {
		if set {
			n++
		}
	}
	if n != 1 {
		return nil, errBadRequest("exactly one of circuit, bench or netlist_ref must be set")
	}
	if req.Engine == "" {
		req.Engine = "spsta"
	}
	switch req.Engine {
	case "spsta", "moment", "mc", "all":
	default:
		return nil, errBadRequest("unknown engine %q (want spsta, moment, mc, or all)", req.Engine)
	}
	switch req.Scenario {
	case "", "I":
		req.Scenario = "I"
	case "II":
	default:
		return nil, errBadRequest("unknown scenario %q (want I or II)", req.Scenario)
	}
	if req.Epsilon < 0 {
		return nil, errBadRequest("epsilon must be >= 0")
	}
	if req.Sigma < 0 {
		return nil, errBadRequest("sigma must be >= 0")
	}
	switch req.Coarsen {
	case "":
		req.Coarsen = "off"
	case "off", "fixed", "auto":
	default:
		return nil, errBadRequest("unknown coarsen mode %q (want off, fixed or auto)", req.Coarsen)
	}
	if req.Coarsen != "off" && req.Engine != "spsta" && req.Engine != "all" {
		return nil, errBadRequest("coarsen applies only to the spsta engine (engine %q)", req.Engine)
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
func (s *Service) resolveSource(circuit, benchText, ref, scenario string) (*netlist.Circuit, string, map[netlist.NodeID]logic.InputStats, error) {
	var c *netlist.Circuit
	var digest string
	switch {
	case ref != "":
		var ok bool
		c, ok = s.netreg.get(ref)
		if !ok {
			return nil, "", nil, &httpError{
				status: http.StatusNotFound,
				msg:    fmt.Sprintf("unknown netlist_ref %q (upload it via POST /v1/netlists)", ref),
			}
		}
		digest = ref
	case circuit != "":
		alias := "profile:" + circuit
		if cc, d, ok := s.netreg.getAlias(alias); ok {
			c, digest = cc, d
			break
		}
		p, ok := synth.ProfileByName(circuit)
		if !ok {
			return nil, "", nil, errBadRequest("unknown circuit %q (want a built-in profile, s208 … s1238)", circuit)
		}
		cc, err := synth.Generate(p)
		if err != nil {
			return nil, "", nil, errBadRequest("%v", err)
		}
		digest = netlist.Digest(cc, nil)
		c = s.netreg.put(digest, cc, alias)
	default:
		sum := sha256.Sum256([]byte(benchText))
		alias := "bench:" + hex.EncodeToString(sum[:])
		if cc, d, ok := s.netreg.getAlias(alias); ok {
			c, digest = cc, d
			break
		}
		cc, err := bench.Parse(strings.NewReader(benchText), "inline")
		if err != nil {
			return nil, "", nil, errBadRequest("%v", err)
		}
		digest = netlist.Digest(cc, nil)
		c = s.netreg.put(digest, cc, alias)
	}
	scen := experiments.ScenarioI
	if scenario == "II" {
		scen = experiments.ScenarioII
	}
	return c, digest, experiments.Inputs(c, scen), nil
}

func (req *Request) coarsenPolicy() core.CoarsenPolicy {
	// decode has already validated the spelling; ParseCoarsenMode only
	// translates it.
	mode, _ := core.ParseCoarsenMode(req.Coarsen)
	return core.CoarsenPolicy{Mode: mode}
}

func (req *Request) delay() ssta.DelayModel { return delayModel(req.Sigma) }

// delayModel returns the variational N(1, sigma^2) gate-delay model,
// or nil (unit delays) for sigma <= 0.
func delayModel(sigma float64) ssta.DelayModel {
	if sigma <= 0 {
		return nil
	}
	return func(n *netlist.Node) dist.Normal { return dist.Normal{Mu: 1, Sigma: sigma} }
}

// reqCtx carries one in-flight request's identity and timing through
// the handler, the engines, and the flight recorder.
type reqCtx struct {
	id      string
	traceID string
	path    string
	t0      time.Time
	queueNS int64
	req     *Request // nil until decode succeeds
	scope   *obs.Scope
	// cached / delta / netsRecomputed feed the flight-recorder summary:
	// a fully cache-served analyze, and a delta request's recompute
	// footprint.
	cached         bool
	delta          bool
	netsRecomputed int
}

// begin starts a request context: a fresh request ID, and a trace ID
// continued from the client's W3C traceparent header when one is
// present (else newly generated). Both ride back on response headers
// so clients and proxies can correlate without parsing the body.
func (s *Service) begin(w http.ResponseWriter, r *http.Request, path string) *reqCtx {
	rc := &reqCtx{id: newRequestID(), path: path, t0: time.Now()}
	if tid, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		rc.traceID = tid
	} else {
		rc.traceID = obs.NewTraceID()
	}
	w.Header().Set("X-Trace-Id", rc.traceID)
	w.Header().Set("Traceparent", obs.FormatTraceparent(rc.traceID, 0))
	return rc
}

// newScope builds the request's observability scope: metrics and a
// tracer are always on (the flight recorder needs span trees post
// hoc), but the tracer is coarse — request, engine, level, batch and
// shard spans only — unless the request asked for a trace file, which
// upgrades to fine per-gate spans.
func (s *Service) newScope(rc *reqCtx) (fine bool) {
	fine = rc.req.Trace && s.cfg.TraceDir != ""
	tr := obs.NewCoarseTracer()
	if fine {
		tr = obs.NewTracer()
	}
	tr.SetTraceID(rc.traceID)
	rc.scope = &obs.Scope{Metrics: obs.NewMetrics(), Tracer: tr}
	return fine
}

// summary assembles the flight-recorder record of the request in its
// current state. engine is the RED label ("compare" on the compare
// path, the request's engine otherwise).
func (rc *reqCtx) summary(engine string, status int, errMsg string, cost int64) RequestSummary {
	sum := RequestSummary{
		ID: rc.id, TraceID: rc.traceID, Path: rc.path, Engine: engine,
		Status: status, Error: errMsg,
		Rejected: status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable,
		Start:    rc.t0, LatencyNS: time.Since(rc.t0).Nanoseconds(), QueueNS: rc.queueNS,
		CostUnits: cost,
		Cached:    rc.cached, Delta: rc.delta, NetsRecomputed: rc.netsRecomputed,
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

// engineList expands the request's engine selector.
func (req *Request) engineList() []string {
	if req.Engine == "all" {
		return []string{"spsta", "moment", "mc"}
	}
	return []string{req.Engine}
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	rc := s.begin(w, r, "/v1/analyze")
	req, err := decode(r)
	if err != nil {
		s.fail(w, rc, "", err)
		return
	}
	rc.req = req
	c, digest, in, err := s.resolveSource(req.Circuit, req.Bench, req.NetlistRef, req.Scenario)
	if err != nil {
		s.fail(w, rc, req.Engine, err)
		return
	}
	// Fully-cached requests are served before the worker pool: a hot
	// repeat never queues behind cold analyses and costs no slot.
	resp, ok := s.analyzeCached(rc, c, digest)
	if !ok {
		q0 := time.Now()
		release, err := s.acquire(r)
		rc.queueNS = time.Since(q0).Nanoseconds()
		if err != nil {
			s.fail(w, rc, req.Engine, err)
			return
		}
		s.reg.inflight.Add(1)
		resp, err = s.analyze(rc, c, digest, in)
		s.reg.inflight.Add(-1)
		release()
		if err != nil {
			s.fail(w, rc, req.Engine, err)
			return
		}
	}
	actual := rc.scope.M().CostUnits()
	s.reg.merge(rc.scope.Snapshot())
	s.reg.cost.observe(actual)
	s.sample(req)
	s.reg.observe(req.Engine, time.Since(rc.t0), false)
	captured := s.recordFlight(rc.summary(req.Engine, http.StatusOK, "", actual), rc.scope)
	s.log.Info("request",
		"request_id", rc.id, "trace_id", rc.traceID, "path", rc.path,
		"engine", req.Engine, "circuit", resp.Circuit.Name, "status", http.StatusOK,
		"duration_ms", float64(time.Since(rc.t0).Microseconds())/1e3,
		"cost_units", actual, "cached", rc.cached, "captured", captured)
	writeJSON(w, http.StatusOK, resp)
}

// analyzeCached serves a request whose every engine result is already
// in the result cache. Traced requests always run for real (a trace
// of a cache lookup is useless), and a partial hit falls through to
// the normal path, which still reuses whatever is cached per engine.
func (s *Service) analyzeCached(rc *reqCtx, c *netlist.Circuit, digest string) (*Response, bool) {
	req := rc.req
	if req.Trace {
		return nil, false
	}
	engines := req.engineList()
	keys := make([]string, len(engines))
	for i, engine := range engines {
		keys[i] = cacheKey(digest, req, engine)
	}
	ers, ok := s.cache.peekAll(keys)
	if !ok {
		return nil, false
	}
	s.newScope(rc)
	tr := rc.scope.Tracer
	root := tr.NewSpan()
	rc.scope.Span = root
	resp := &Response{
		RequestID:     rc.id,
		TraceID:       rc.traceID,
		Circuit:       CircuitInfo{Name: c.Name, Gates: len(c.Nodes), Depth: c.Depth()},
		NetlistDigest: digest,
		Scenario:      req.Scenario,
	}
	for i := range ers {
		ers[i].Cached = true
		resp.Engines = append(resp.Engines, ers[i])
		resp.CostUnits += ers[i].CostUnits
	}
	rc.cached = true
	tr.RecordSpan(root, 0, "POST "+rc.path, "request", 0, rc.t0, time.Since(rc.t0),
		map[string]any{"request_id": rc.id, "engine": req.Engine, "cached": true})
	return resp, true
}

// analyze runs the requested engines under the request's scope,
// recording the request → engine span levels of the trace tree. Each
// engine goes through the result cache: a hit skips the run, a miss
// runs it under single-flight so concurrent identical requests share
// one execution.
func (s *Service) analyze(rc *reqCtx, c *netlist.Circuit, digest string, in map[netlist.NodeID]logic.InputStats) (*Response, error) {
	req := rc.req
	traced := s.newScope(rc)
	tr := rc.scope.Tracer
	root := tr.NewSpan()
	rc.scope.Span = root
	resp := &Response{
		RequestID:     rc.id,
		TraceID:       rc.traceID,
		Circuit:       CircuitInfo{Name: c.Name, Gates: len(c.Nodes), Depth: c.Depth()},
		NetlistDigest: digest,
		Scenario:      req.Scenario,
	}
	allCached := true
	for _, engine := range req.engineList() {
		er, err := s.cachedEngine(engine, c, digest, in, rc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", engine, err)
		}
		allCached = allCached && er.Cached
		resp.Engines = append(resp.Engines, er)
		resp.CostUnits += er.CostUnits
	}
	rc.cached = allCached
	tr.RecordSpan(root, 0, "POST "+rc.path, "request", 0, rc.t0, time.Since(rc.t0),
		map[string]any{"request_id": rc.id, "engine": req.Engine, "cost_units": resp.CostUnits})
	if traced {
		path := filepath.Join(s.cfg.TraceDir, rc.id+".json")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		werr := tr.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, werr
		}
		resp.TraceFile = path
	}
	return resp, nil
}

// cachedEngine returns one engine's result through the result cache.
// Traced requests bypass the read side (they exist to produce fresh
// spans) but still publish their result for later requests.
func (s *Service) cachedEngine(engine string, c *netlist.Circuit, digest string, in map[netlist.NodeID]logic.InputStats, rc *reqCtx) (EngineResult, error) {
	key := cacheKey(digest, rc.req, engine)
	if rc.req.Trace {
		er, err := s.runEngineSpanned(engine, c, in, rc)
		if err == nil {
			s.cache.store(key, er)
		}
		return er, err
	}
	er, src, err := s.cache.getOrCompute(key, func() (EngineResult, error) {
		return s.runEngineSpanned(engine, c, in, rc)
	})
	if err == nil && src != cacheComputed {
		er.Cached = true
		// A zero-duration engine span keeps the request's trace tree
		// complete even when the engine never ran here.
		tr := rc.scope.Tracer
		eid := tr.NewSpan()
		tr.RecordSpan(eid, rc.scope.SpanID(), "engine "+engine, "engine", 0, time.Now(), 0,
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
	rc := s.begin(w, r, "/v1/netlists")
	var req NetlistUploadRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, rc, "", errBadRequest("bad request body: %v", err))
		return
	}
	if (req.Circuit == "") == (req.Bench == "") {
		s.fail(w, rc, "", errBadRequest("exactly one of circuit or bench must be set"))
		return
	}
	c, digest, _, err := s.resolveSource(req.Circuit, req.Bench, "", "I")
	if err != nil {
		s.fail(w, rc, "", err)
		return
	}
	s.log.Info("netlist registered",
		"request_id", rc.id, "trace_id", rc.traceID, "path", rc.path,
		"circuit", c.Name, "digest", digest, "registry_entries", s.netreg.len())
	writeJSON(w, http.StatusOK, &NetlistUploadResponse{
		NetlistDigest: digest,
		Circuit:       CircuitInfo{Name: c.Name, Gates: len(c.Nodes), Depth: c.Depth()},
	})
}

// runEngineSpanned wraps one engine run in an engine span parented
// under the request root and attributes the engine's work-unit cost
// delta (engines run serially within a request, so the delta is
// exactly this engine's cost).
func (s *Service) runEngineSpanned(engine string, c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, rc *reqCtx) (EngineResult, error) {
	tr, m := rc.scope.Tracer, rc.scope.Metrics
	eid := tr.NewSpan()
	e0 := time.Now()
	cost0 := m.CostUnits()
	er, err := runEngine(engine, c, in, rc.req, rc.scope.WithSpan(eid))
	er.CostUnits = m.CostUnits() - cost0
	tr.RecordSpan(eid, rc.scope.SpanID(), "engine "+engine, "engine", 0, e0, time.Since(e0),
		map[string]any{"cost_units": er.CostUnits})
	return er, err
}

// runEngine runs one engine and formats its endpoint statistics.
func runEngine(engine string, c *netlist.Circuit, in map[netlist.NodeID]logic.InputStats, req *Request, scope *obs.Scope) (EngineResult, error) {
	er := EngineResult{Engine: engine}
	eps := c.Endpoints()
	t0 := time.Now()
	switch engine {
	case "spsta":
		a := core.Analyzer{
			Workers: req.Workers, Delay: req.delay(), ErrorBudget: req.Epsilon,
			Coarsen: req.coarsenPolicy(), Obs: scope,
		}
		res, err := a.Run(c, in)
		if err != nil {
			return er, err
		}
		er.Endpoints = spstaEndpoints(res, c)
		er.PrunedMass = res.TotalPrunedMass()
		er.MaxBudget = res.MaxConsumedBudget()
	case "moment":
		a := core.MomentTiming{Workers: req.Workers, Delay: req.delay(), ErrorBudget: req.Epsilon, Obs: scope}
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
		er.PrunedMass = res.TotalPrunedMass()
		er.MaxBudget = res.MaxConsumedBudget()
	case "mc":
		workers := req.Workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		res, err := montecarlo.Simulate(c, in, montecarlo.Config{
			Runs: req.Runs, Seed: req.Seed, Workers: workers,
			Delay: req.delay(), Packed: true, Obs: scope,
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
	er.ElapsedNS = time.Since(t0).Nanoseconds()
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

func (s *Service) handleCompare(w http.ResponseWriter, r *http.Request) {
	rc := s.begin(w, r, "/v1/compare")
	req, err := decode(r)
	if err != nil {
		s.fail(w, rc, "compare", err)
		return
	}
	rc.req = req
	q0 := time.Now()
	release, err := s.acquire(r)
	rc.queueNS = time.Since(q0).Nanoseconds()
	if err != nil {
		s.fail(w, rc, "compare", err)
		return
	}
	defer release()
	s.reg.inflight.Add(1)
	defer s.reg.inflight.Add(-1)

	c, digest, in, err := s.resolveSource(req.Circuit, req.Bench, req.NetlistRef, req.Scenario)
	if err != nil {
		s.fail(w, rc, "compare", err)
		return
	}
	s.newScope(rc)
	tr := rc.scope.Tracer
	root := tr.NewSpan()
	rc.scope.Span = root
	// The circuit is resolved once and both engine runs go through the
	// result cache, so a repeated comparison reuses the analyze path's
	// cached results (and vice versa).
	sp, err := s.cachedEngine("spsta", c, digest, in, rc)
	if err != nil {
		s.fail(w, rc, "compare", err)
		return
	}
	mc, err := s.cachedEngine("mc", c, digest, in, rc)
	if err != nil {
		s.fail(w, rc, "compare", err)
		return
	}
	rc.cached = sp.Cached && mc.Cached
	resp := &CompareResponse{
		RequestID:     rc.id,
		TraceID:       rc.traceID,
		Circuit:       CircuitInfo{Name: c.Name, Gates: len(c.Nodes), Depth: c.Depth()},
		NetlistDigest: digest,
		Scenario:      req.Scenario,
		CostUnits:     sp.CostUnits + mc.CostUnits,
		Cached:        sp.Cached && mc.Cached,
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
	tr.RecordSpan(root, 0, "POST "+rc.path, "request", 0, rc.t0, time.Since(rc.t0),
		map[string]any{"request_id": rc.id, "engine": "compare", "cost_units": resp.CostUnits})
	actual := rc.scope.M().CostUnits()
	s.reg.merge(rc.scope.Snapshot())
	s.reg.cost.observe(actual)
	s.sample(req)
	s.reg.observe("compare", time.Since(rc.t0), false)
	captured := s.recordFlight(rc.summary("compare", http.StatusOK, "", actual), rc.scope)
	s.log.Info("request",
		"request_id", rc.id, "trace_id", rc.traceID, "path", rc.path,
		"circuit", resp.Circuit.Name, "status", http.StatusOK,
		"duration_ms", float64(time.Since(rc.t0).Microseconds())/1e3,
		"cost_units", actual, "cached", rc.cached, "captured", captured)
	writeJSON(w, http.StatusOK, resp)
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

// fail writes an error response, records it in the RED series, and
// leaves a flight-recorder summary — load-shed requests (429/503)
// included, with their rejection state and zero cost, so shed traffic
// stays diagnosable from /debug/requests.
func (s *Service) fail(w http.ResponseWriter, rc *reqCtx, engine string, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
	}
	if engine != "" {
		s.reg.observe(engine, time.Since(rc.t0), true)
	}
	var cost int64
	if m := rc.scope.M(); m != nil {
		cost = m.CostUnits()
	}
	s.recordFlight(rc.summary(engine, status, err.Error(), cost), rc.scope)
	s.log.Error("request failed",
		"request_id", rc.id, "trace_id", rc.traceID, "path", rc.path, "engine", engine,
		"status", status, "error", err.Error())
	writeJSON(w, status, map[string]string{"request_id": rc.id, "trace_id": rc.traceID, "error": err.Error()})
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
// captured entries, the span tree and metrics snapshot
// (?format=trace downloads the raw Chrome trace_event JSON instead).
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
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
