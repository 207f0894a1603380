package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/synth"
)

// The served workload drives an in-process spstad (service.New behind a
// loopback listener) from this process with two closed-loop clients:
// each sends its next request only after the previous reply, so at most
// two requests and two connections are ever open, one per core of the
// reference host.
const clients = 2

// servedCircuits are the two largest bundled profiles.
var servedCircuits = []string{"s1196", "s1238"}

const (
	servedSigma   = 0.2
	servedEpsilon = 1e-4
	coldRuns      = 2000
	// warmUpMCSeed is the Monte Carlo seed of the set-up request. Timed
	// cold requests draw other seeds, so none of them hits the cache.
	warmUpMCSeed = 1
)

func hotRequest(circuit string) service.Request {
	return service.Request{Circuit: circuit, Engine: "spsta", Epsilon: servedEpsilon, Sigma: servedSigma, Workers: 1, Coarsen: "auto"}
}

func coldRequest(circuit string, seed int64) service.Request {
	return service.Request{Circuit: circuit, Engine: "mc", Sigma: servedSigma, Workers: 1, Runs: coldRuns, Seed: seed}
}

// deltaRequest edits the session of (circuit, ε, σ). Delta requests
// carry no worker count: the service has no such field for them.
func deltaRequest(circuit string, edits []service.DeltaEdit) service.DeltaRequest {
	return service.DeltaRequest{Circuit: circuit, Epsilon: servedEpsilon, Sigma: servedSigma, Edits: edits}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("spstabench: encoding %T: %v", v, err))
	}
	return b
}

// op is one request of a served workload, encoded before timing starts.
type op struct {
	class   string // "hot", "delta" or "cold"
	circuit string
	path    string
	body    []byte
}

// mixGroup is the class mix of every ten consecutive requests.
var mixGroup = []string{"hot", "hot", "hot", "hot", "delta", "delta", "delta", "delta", "cold", "cold"}

// servedOps draws the served workload's request sequence from its
// seed: exactly 40% cache hits, 40% single-gate delta edits and 20% cold
// Monte Carlo runs. The classes are shuffled within each group of ten
// consecutive requests, so every seed has the same class counts and
// every block of the pass the same mix.
func servedOps(seed int64, n int) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	classes := make([]string, 0, n+len(mixGroup))
	for len(classes) < n {
		g := append([]string(nil), mixGroup...)
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		classes = append(classes, g...)
	}
	classes = classes[:n]
	gates := map[string]int{}
	for _, name := range servedCircuits {
		p, ok := synth.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown profile %s", name)
		}
		gates[name] = p.Gates
	}
	used := map[int64]bool{}
	ops := make([]op, n)
	for i, class := range classes {
		circuit := servedCircuits[rng.Intn(len(servedCircuits))]
		o := op{class: class, circuit: circuit, path: "/v1/analyze"}
		switch class {
		case "hot":
			o.body = mustJSON(hotRequest(circuit))
		case "delta":
			o.path = "/v1/delta"
			// Synthetic gates are named G1 … G<gates>.
			o.body = mustJSON(deltaRequest(circuit, []service.DeltaEdit{{
				Gate:  "G" + strconv.Itoa(1+rng.Intn(gates[circuit])),
				Mu:    0.5 + 1.5*rng.Float64(),
				Sigma: 0.05 + 0.25*rng.Float64(),
			}}))
		case "cold":
			s := warmUpMCSeed + 1 + rng.Int63n(1<<40)
			for used[s] {
				s = warmUpMCSeed + 1 + rng.Int63n(1<<40)
			}
			used[s] = true
			o.body = mustJSON(coldRequest(circuit, s))
		}
		ops[i] = o
	}
	return ops, nil
}

// server is an in-process spstad on a loopback listener.
type server struct {
	svc    *service.Service
	http   *http.Server
	served chan error // Serve's result, sent once it returns
	base   string
	client *http.Client
}

// startServer starts a service whose flight recorder keeps flightSize
// requests (0 for the service default).
func startServer(flightSize int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{FlightSize: flightSize})
	s := &server{
		svc:    svc,
		http:   &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the server, waits for Serve to return and stops the
// service.
func (s *server) close() {
	s.client.CloseIdleConnections()
	_ = s.http.Close() // only the listener's close error; Serve's result is awaited next
	<-s.served
	s.svc.Close()
}

func (s *server) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// postOK posts and decodes a 200 reply into v.
func (s *server) postOK(path string, body []byte, v any) error {
	status, b, err := s.post(path, body)
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %.200s", path, status, b)
	}
	return json.Unmarshal(b, v)
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// served is the served workload's set-up: the server and the warm-up
// replies later replies are checked against.
type served struct {
	srv *server
	// hot holds each circuit's warm-up (cold) analyze reply; every
	// hot reply must carry the same content.
	hot map[string]warmReply
	// base holds each circuit's empty-edit delta endpoints from before
	// any edit.
	base map[string][]service.EndpointStat
}

// setUpServed starts a server and sends the warm-up requests, per
// circuit: a cold analyze, whose result every hot request then hits, a
// session-hydrating empty delta and a Monte Carlo run.
func setUpServed(flightSize int, tr *spanLog, parent uint64) (*served, error) {
	id, t0 := tr.begin()
	srv, err := startServer(flightSize)
	tr.end(id, parent, "service.New", t0)
	if err != nil {
		return nil, err
	}
	su := &served{srv: srv, hot: map[string]warmReply{}, base: map[string][]service.EndpointStat{}}
	warm := func() error {
		for _, circuit := range servedCircuits {
			id, t0 := tr.begin()
			status, body, err := srv.post("/v1/analyze", mustJSON(hotRequest(circuit)))
			tr.end(id, parent, "POST /v1/analyze warm-up", t0)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("warm-up analyze %s: status %d: %.200s", circuit, status, body)
			}
			su.hot[circuit] = warmReply{body: body, content: analysisContent(body)}
			var dr service.DeltaResponse
			id, t0 = tr.begin()
			err = srv.postOK("/v1/delta", mustJSON(deltaRequest(circuit, []service.DeltaEdit{})), &dr)
			tr.end(id, parent, "POST /v1/delta warm-up", t0)
			if err != nil {
				return err
			}
			su.base[circuit] = dr.Engine.Endpoints
			var r service.Response
			id, t0 = tr.begin()
			err = srv.postOK("/v1/analyze", mustJSON(coldRequest(circuit, warmUpMCSeed)), &r)
			tr.end(id, parent, "POST /v1/analyze warm-up mc", t0)
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := warm(); err != nil {
		srv.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return su, nil
}

// sample is one timed request's outcome.
type sample struct {
	lat      time.Duration
	done     time.Duration // completion, from the start of the pass
	bytes    int
	engineNS int64 // engine time the reply reports; 0 on a cache hit
	nets     int   // delta: nets recomputed
	warm     bool  // delta: served by a warm session
	cost     int64 // cold: Monte Carlo cost units
}

// servedPass is one timed pass over the operation sequence.
type servedPass struct {
	samples       []sample
	wall          time.Duration
	start         time.Time
	before, after memStats
}

// throughput is requests completed per second, taken as the median over
// equal windows of the pass, so a burst of interference from outside
// the process moves only the windows it falls in.
func (p *servedPass) throughput() float64 {
	done := make([]time.Duration, len(p.samples))
	for i, s := range p.samples {
		done[i] = s.done
	}
	return windowRate(done, p.wall)
}

// timeServed sends the operation sequence from the clients: client k
// sends operations k, k+clients, … in order, each after the previous
// reply.
func (su *served) timeServed(ops []op, tr *spanLog, parent uint64, chk *checker) *servedPass {
	p := &servedPass{samples: make([]sample, len(ops))}
	runtime.GC()
	p.before = readMem()
	p.start = time.Now()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cid, c0 := tr.begin()
			for i := k; i < len(ops); i += clients {
				p.samples[i] = su.do(ops[i], tr, cid, chk)
				p.samples[i].done = time.Since(p.start)
			}
			tr.end(cid, parent, "client "+strconv.Itoa(k), c0)
		}(k)
	}
	wg.Wait()
	p.wall = time.Since(p.start)
	p.after = readMem()
	return p
}

// do sends one request and checks its reply.
func (su *served) do(o op, tr *spanLog, parent uint64, chk *checker) sample {
	id, t0 := tr.begin()
	status, body, err := su.srv.post(o.path, o.body)
	s := sample{lat: time.Since(t0), bytes: len(body)}
	tr.end(id, parent, "POST "+o.path+" "+o.class, t0)
	switch {
	case err != nil:
		chk.record(fmt.Errorf("%s %s: %w", o.class, o.circuit, err))
	case status != http.StatusOK:
		chk.record(fmt.Errorf("%s %s: status %d: %.200s", o.class, o.circuit, status, body))
	default:
		if err := su.verify(o, body, &s); err != nil {
			chk.record(fmt.Errorf("%s %s: %w", o.class, o.circuit, err))
		} else {
			chk.record(nil)
		}
	}
	return s
}

func (su *served) verify(o op, body []byte, s *sample) error {
	switch o.class {
	case "hot":
		if !sameAnalysis(su.hot[o.circuit], body) {
			return errors.New("reply differs from the warm-up reply")
		}
	case "delta":
		var dr service.DeltaResponse
		if err := json.Unmarshal(body, &dr); err != nil {
			return err
		}
		if dr.Edits != 1 || len(dr.Engine.Endpoints) == 0 {
			return fmt.Errorf("reply has %d edits and %d endpoints", dr.Edits, len(dr.Engine.Endpoints))
		}
		s.engineNS, s.nets, s.warm = dr.Engine.ElapsedNS, dr.NetsRecomputed, dr.Session == "warm"
	case "cold":
		var r service.Response
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Engines) != 1 || r.Engines[0].Engine != "mc" || r.Engines[0].Cached {
			return errors.New("reply is not one fresh mc engine result")
		}
		er := r.Engines[0]
		for _, ep := range er.Endpoints {
			if sum := ep.P0 + ep.P1 + ep.Rise.P + ep.Fall.P; math.Abs(sum-1) > slack {
				return fmt.Errorf("endpoint %s: probabilities sum to %v", ep.Net, sum)
			}
		}
		s.engineNS, s.cost = er.ElapsedNS, er.CostUnits
	}
	return nil
}

// warmReply is a warm-up analyze reply and its analysisContent.
type warmReply struct{ body, content []byte }

// cachedFlag is how a cache hit's reply marks each engine result; the
// fresh warm-up reply omits it.
var cachedFlag = []byte(",\n      \"cached\": true")

// analysisContent is an analyze reply without its per-request identity
// (request and trace IDs, which come first) and cached flags.
func analysisContent(b []byte) []byte {
	if i := bytes.Index(b, []byte(`"circuit"`)); i >= 0 {
		b = b[i:]
	}
	return bytes.ReplaceAll(b, cachedFlag, nil)
}

// sameAnalysis reports whether an analyze reply carries the same
// content as the warm-up reply. Replies whose content bytes differ are
// compared decoded, so a layout change alone is no mismatch.
func sameAnalysis(want warmReply, got []byte) bool {
	if bytes.Equal(want.content, analysisContent(got)) {
		return true
	}
	var w, g service.Response
	if json.Unmarshal(want.body, &w) != nil || json.Unmarshal(got, &g) != nil {
		return false
	}
	for _, r := range []*service.Response{&w, &g} {
		r.RequestID, r.TraceID = "", ""
		for i := range r.Engines {
			r.Engines[i].Cached = false
		}
	}
	return reflect.DeepEqual(w, g)
}

// verifyAfterRun checks each circuit's delta session once the timed
// passes are over: an empty-edit delta must agree with a full analyze
// of the base circuit within the two runs' certificates, and must
// equal, bit for bit, the empty-edit delta taken before any edit.
func (su *served) verifyAfterRun(chk *checker) {
	for _, circuit := range servedCircuits {
		chk.record(su.verifyDelta(circuit))
	}
}

func (su *served) verifyDelta(circuit string) error {
	var dr service.DeltaResponse
	if err := su.srv.postOK("/v1/delta", mustJSON(deltaRequest(circuit, []service.DeltaEdit{})), &dr); err != nil {
		return err
	}
	full := hotRequest(circuit)
	full.Coarsen = "" // delta sessions analyze on one grid
	var r service.Response
	if err := su.srv.postOK("/v1/analyze", mustJSON(full), &r); err != nil {
		return err
	}
	got := dr.Engine.Endpoints
	want := r.Engines[0].Endpoints
	if len(got) != len(want) {
		return fmt.Errorf("%s: empty-edit delta has %d endpoints, full analysis %d", circuit, len(got), len(want))
	}
	bound := dr.Engine.MaxBudget + r.Engines[0].MaxBudget + 1e-12
	for i, w := range want {
		g := got[i]
		if g.Net != w.Net {
			return fmt.Errorf("%s: endpoint %d is %s in the delta, %s in the full analysis", circuit, i, g.Net, w.Net)
		}
		for _, d := range []float64{g.P0 - w.P0, g.P1 - w.P1, g.Rise.P - w.Rise.P, g.Fall.P - w.Fall.P} {
			if math.Abs(d) > bound {
				return fmt.Errorf("%s %s: empty-edit delta deviates %g from the full analysis, certificate %g", circuit, w.Net, d, bound)
			}
		}
	}
	if !reflect.DeepEqual(su.base[circuit], got) {
		return fmt.Errorf("%s: empty-edit delta after the run differs from the one before any edit", circuit)
	}
	return nil
}

// scrape is the server's /metrics and flight recorder at one moment.
type scrape struct {
	metrics []byte
	flight  struct {
		Total    int64                    `json:"total_recorded"`
		Requests []service.RequestSummary `json:"requests"`
	}
}

func (su *served) scrape() (*scrape, error) {
	sc := &scrape{}
	var err error
	if sc.metrics, err = su.srv.get("/metrics"); err != nil {
		return nil, err
	}
	b, err := su.srv.get("/debug/requests")
	if err != nil {
		return nil, err
	}
	return sc, json.Unmarshal(b, &sc.flight)
}

// counter sums every sample of a Prometheus series in /metrics text.
func (sc *scrape) counter(name string) float64 {
	total := 0.0
	for _, line := range strings.Split(string(sc.metrics), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:i]
		if j := strings.IndexByte(series, '{'); j >= 0 {
			series = series[:j]
		}
		if series != name {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

// runServed runs the served workload: set-up, an untraced timed pass,
// the after-run checks, and on traced runs a traced pass on a fresh
// server.
func runServed(cfg runConfig) (*report, error) {
	rep := newReport(cfg, clients)
	ops, err := servedOps(cfg.seed, cfg.ops)
	if err != nil {
		return nil, err
	}
	var setups []float64
	setUp := func() (*served, error) {
		runtime.GC() // every set-up starts from the same heap
		t0 := time.Now()
		su, err := setUpServed(0, nil, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		return su, nil
	}
	var su *served
	for i := 0; i < servedSetUps/2; i++ {
		if su != nil {
			su.srv.close()
			su = nil
		}
		if su, err = setUp(); err != nil {
			return nil, err
		}
	}

	p := su.timeServed(ops, nil, 0, &rep.check)
	rep.setPeakRSS()
	su.verifyAfterRun(&rep.check)
	su.srv.close()
	for i := servedSetUps / 2; i < servedSetUps; i++ {
		s, err := setUp()
		if err != nil {
			return nil, err
		}
		s.srv.close()
	}
	rep.set("setup_s", median(setups))
	rep.set("throughput_ops_s", p.throughput())
	// No percentile is pooled over classes: each is the geometric mean
	// of the percentiles of every (class, circuit) pair, and the
	// end-to-end ones are medians over the pass's blocks.
	lat, classes := make([]float64, len(ops)), make([]string, len(ops))
	for i, o := range ops {
		lat[i], classes[i] = ms(p.samples[i].lat), o.class+" "+o.circuit
	}
	setBlockPercentile(rep, "latency_p50_ms", lat, classes, 50)
	setBlockPercentile(rep, "latency_p90_ms", lat, classes, 90)
	for _, class := range []string{"hot", "delta", "cold"} {
		var xs []float64
		var circuits []string
		for i, o := range ops {
			if o.class == class {
				xs, circuits = append(xs, lat[i]), append(circuits, o.circuit)
			}
		}
		setBlockPercentile(rep, class+"_p50_ms", xs, circuits, 50)
	}
	rep.values["latency_p99_ms"], rep.samples["latency_p99_ms"] = classPercentile(lat, classes, 99)
	rep.setRuntime(p.before, p.after, len(ops))

	if t := rep.trace; t != nil {
		if err := tracedServe(rep, t, ops, p); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tracedServe runs the traced pass on a fresh server, reading /metrics
// and the flight recorder before and after it, and records the
// per-layer metrics. Its flight recorder keeps every timed request;
// untraced servers keep the default ring.
func tracedServe(rep *report, t *traceFile, ops []op, untraced *servedPass) error {
	root, t0 := t.log.begin()
	setup, s0 := t.log.begin()
	su, err := setUpServed(len(ops)+64, t.log, setup)
	t.log.end(setup, root, "setup", s0)
	if err != nil {
		return err
	}
	defer su.srv.close()
	before, err := su.scrape()
	if err != nil {
		return err
	}
	timed, t1 := t.log.begin()
	p := su.timeServed(ops, t.log, timed, &rep.check)
	t.log.end(timed, root, "timed", t1)
	t.log.end(root, 0, rep.env.Workload, t0)
	after, err := su.scrape()
	if err != nil {
		return err
	}
	thrU, thrT := untraced.throughput(), p.throughput()
	rep.set("trace_overhead_pct", 100*(thrU-thrT)/thrU)

	over := map[string][]float64{}
	var nets, engineMS, mcMS, bytesAll []float64
	var warm, deltas, cold int
	var mcCost int64
	for i, o := range ops {
		s := p.samples[i]
		over[o.class] = append(over[o.class], ms(s.lat-time.Duration(s.engineNS)))
		bytesAll = append(bytesAll, float64(s.bytes))
		switch o.class {
		case "delta":
			deltas++
			nets = append(nets, float64(s.nets))
			engineMS = append(engineMS, float64(s.engineNS)/1e6)
			if s.warm {
				warm++
			}
		case "cold":
			cold++
			mcMS = append(mcMS, float64(s.engineNS)/1e6)
			mcCost += s.cost
		}
	}
	for _, class := range []string{"hot", "delta", "cold"} {
		rep.setPercentile("service.overhead_ms_p50."+class, over[class], 50)
	}
	rep.set("service.response_bytes_mean", mean(bytesAll))
	d := func(name string) float64 { return after.counter(name) - before.counter(name) }
	rep.set("service.cache_hit_ratio", ratio(d("spstad_cache_hits_total"), d("spstad_cache_misses_total")))
	rep.set("service.singleflight_shared", d("spstad_singleflight_shared_total"))
	rep.set("service.rejected", d("spstad_requests_rejected_total"))
	var waits []float64
	for _, r := range after.flight.Requests {
		if r.Start.Before(p.start) || r.Cached {
			continue // set-up requests, and hits, which take no slot
		}
		waits = append(waits, float64(r.QueueNS)/1e6)
	}
	rep.setPercentile("service.slot_wait_ms_p50", waits, 50)
	rep.setPercentile("service.slot_wait_ms_p99", waits, 99)
	rep.set("incr.nets_recomputed_mean", mean(nets))
	if deltas > 0 {
		rep.set("incr.warm_session_ratio", float64(warm)/float64(deltas))
	}
	rep.setPercentile("incr.engine_ms_p50", engineMS, 50)
	rep.setPercentile("montecarlo.engine_ms_p50", mcMS, 50)
	if cold > 0 {
		rep.set("montecarlo.cost_units", float64(mcCost)/float64(cold))
		rep.set("montecarlo.packed_blocks", d("spstad_engine_mc_packed_blocks_total")/float64(cold))
	}
	// The runtime figures stay those of the untraced pass: spans and
	// scrapes allocate too.
	t.Counts["flight_recorded_timed"] = after.flight.Total - before.flight.Total
	t.Counts["flight_requests_listed"] = len(after.flight.Requests)
	t.Counts["metrics_before"] = string(before.metrics)
	t.Counts["metrics_after"] = string(after.metrics)
	return nil
}
