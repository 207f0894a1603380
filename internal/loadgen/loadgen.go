// Package loadgen is the closed-loop load machinery behind
// cmd/spstasoak (the SLO soak harness) and the short soak bench guard.
// It drives a running spstad with a weighted mix of traffic classes:
//
//	hot    repeated identical /v1/analyze requests (cache hits after
//	       the first; concurrent cold starts collapse via single-flight)
//	cold   /v1/analyze with a fresh Monte Carlo seed per request
//	       (never cache-hits; each one runs the engine)
//	delta  /v1/delta with one random gate-delay edit per request
//	       (warm incremental sessions after the first per circuit)
//
// Each worker runs its own closed loop — it issues a request, waits
// for the response, then draws the next class from the mix weights —
// so concurrency, not arrival rate, is the controlled variable. The
// Report (per-class counts, rejections and client-side latency
// percentiles) doubles as the BENCH_service.json schema.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/synth"
)

// Config parameterizes one load run.
type Config struct {
	// BaseURL is the daemon's base URL (e.g. http://localhost:8321).
	BaseURL string
	// Duration is how long the closed loops run.
	Duration time.Duration
	// Concurrency is the closed-loop worker count (default 8).
	Concurrency int
	// Circuits are the benchmark profiles to target (default
	// s344,s1196).
	Circuits []string
	// Mix maps traffic class (hot, cold, delta) to weight; nil means
	// hot=0.6,cold=0.2,delta=0.2.
	Mix map[string]float64
	// Runs is the Monte Carlo run count of cold requests (default
	// 5000).
	Runs int
	// Seed seeds the load pattern; 0 means 1.
	Seed int64
	// Client overrides the HTTP client (default: 1-minute timeout).
	Client *http.Client
}

// Classes are the traffic classes in reporting order; ClassAll is the
// synthetic aggregate across them.
var Classes = []string{"hot", "cold", "delta"}

// ClassAll aggregates every class in a Report.
const ClassAll = "all"

// ClassReport is one traffic class's client-side view of the run.
type ClassReport struct {
	Class string `json:"class"`
	// Count is the successful (HTTP 200) requests; Errors the failed
	// ones excluding load-shedding; Rejected the 429/503 responses.
	Count    int `json:"count"`
	Errors   int `json:"errors"`
	Rejected int `json:"rejected"`
	// Latency percentiles over successful requests, in seconds.
	P50Sec float64 `json:"p50_sec"`
	P90Sec float64 `json:"p90_sec"`
	P99Sec float64 `json:"p99_sec"`
	MaxSec float64 `json:"max_sec"`
}

// RejectionRate is the rejected fraction of the class's traffic
// (errors and rejections included in the total).
func (c *ClassReport) RejectionRate() float64 {
	if t := c.Count + c.Errors + c.Rejected; t > 0 {
		return float64(c.Rejected) / float64(t)
	}
	return 0
}

// Report is one load run's client-side summary — the schema of
// BENCH_service.json.
type Report struct {
	Requests    int           `json:"requests"`
	DurationSec float64       `json:"duration_sec"`
	ReqPerSec   float64       `json:"req_per_sec"`
	Workers     int           `json:"workers"`
	Classes     []ClassReport `json:"classes"`
	// SLO carries the soak harness's server-side view (nil when the
	// daemon's /debug/slo was not read).
	SLO *SLOSummary `json:"slo,omitempty"`
}

// SLOSummary is the soak harness's server-side addendum to a Report.
type SLOSummary struct {
	// Violations lists the objectives seen burning during the run.
	Violations []string `json:"violations,omitempty"`
	// ServerP50Sec/ServerP99Sec are /debug/slo's windowed percentiles
	// for req.total.latency at the end of the run.
	ServerP50Sec float64 `json:"server_p50_sec,omitzero"`
	ServerP99Sec float64 `json:"server_p99_sec,omitzero"`
	// Captures is the auto-capture bundles the daemon wrote.
	Captures int64 `json:"captures,omitzero"`
}

// Class returns the report's entry for the named class (nil if the
// class saw no traffic).
func (r *Report) Class(name string) *ClassReport {
	for i := range r.Classes {
		if r.Classes[i].Class == name {
			return &r.Classes[i]
		}
	}
	return nil
}

// The soak gate's default bounds: client p99 across all classes, and
// the tolerable rejected fraction.
const (
	DefaultP99Limit        = 500 * time.Millisecond
	DefaultRejectionBudget = 0.01
)

// Gate is the soak pass/fail rule. It returns why the run fails, or
// nothing when it passes: an SLO objective seen burning (r.SLO's
// violations), no request completed, any request error, the
// all-class client p99 over p99Limit, or a rejection rate over
// rejectionBudget.
func (r *Report) Gate(p99Limit time.Duration, rejectionBudget float64) []string {
	var failures []string
	if r.SLO != nil && len(r.SLO.Violations) > 0 {
		failures = append(failures, fmt.Sprintf("SLO objectives burned: %s", strings.Join(r.SLO.Violations, ", ")))
	}
	all := r.Class(ClassAll)
	if all == nil || all.Count == 0 {
		return append(failures, "no request completed")
	}
	if all.Errors > 0 {
		failures = append(failures, fmt.Sprintf("%d request errors", all.Errors))
	}
	if p99 := time.Duration(all.P99Sec * float64(time.Second)); p99 > p99Limit {
		failures = append(failures, fmt.Sprintf("client p99 %s over limit %s", p99.Round(time.Millisecond), p99Limit))
	}
	if rr := all.RejectionRate(); rr > rejectionBudget {
		failures = append(failures, fmt.Sprintf("rejection rate %.2f%% over budget %.2f%%", rr*100, rejectionBudget*100))
	}
	return failures
}

// WriteJSON writes the report to path, pretty-printed.
func (r *Report) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ParseMix parses a "hot=0.6,cold=0.2,delta=0.2" weight list.
func ParseMix(s string) (map[string]float64, error) {
	w := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q", part)
		}
		if k != "hot" && k != "cold" && k != "delta" {
			return nil, fmt.Errorf("unknown traffic class %q", k)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		w[k] = f
	}
	if w["hot"]+w["cold"]+w["delta"] <= 0 {
		return nil, fmt.Errorf("mix weights sum to zero")
	}
	return w, nil
}

// target is one circuit's request-building material.
type target struct {
	name  string
	gates []string // combinational gate names for delta edits
}

// buildTargets resolves circuit names to delta-editable targets.
func buildTargets(circuits []string) ([]target, error) {
	var targets []target
	for _, name := range circuits {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, ok := synth.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown circuit %q", name)
		}
		c, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		var gates []string
		for _, n := range c.Nodes {
			if n.Type.Combinational() {
				gates = append(gates, n.Name)
			}
		}
		if len(gates) == 0 {
			return nil, fmt.Errorf("circuit %q has no combinational gates", name)
		}
		targets = append(targets, target{name: name, gates: gates})
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no circuits to drive")
	}
	return targets, nil
}

// nextRequest draws a traffic class and builds its request body. Hot
// requests are identical per circuit; cold requests carry a fresh MC
// seed; delta requests perturb one random gate's delay.
func nextRequest(rng *rand.Rand, weights map[string]float64, tgt target, runs int) (class, body, path string) {
	x := rng.Float64() * (weights["hot"] + weights["cold"] + weights["delta"])
	switch {
	case x < weights["hot"]:
		return "hot", fmt.Sprintf(`{"circuit":%q,"engine":"spsta"}`, tgt.name), "/v1/analyze"
	case x < weights["hot"]+weights["cold"]:
		return "cold", fmt.Sprintf(`{"circuit":%q,"engine":"mc","runs":%d,"seed":%d}`,
			tgt.name, runs, rng.Int63()), "/v1/analyze"
	default:
		gate := tgt.gates[rng.Intn(len(tgt.gates))]
		mu := 0.5 + rng.Float64()*2
		return "delta", fmt.Sprintf(`{"circuit":%q,"edits":[{"gate":%q,"mu":%s}]}`,
			tgt.name, gate, strconv.FormatFloat(mu, 'g', -1, 64)), "/v1/delta"
	}
}

// sample is one finished request.
type sample struct {
	class  string
	d      time.Duration
	status int
	err    error
}

// Run drives the configured load and reports the client-side view.
func Run(cfg Config) (*Report, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if len(cfg.Circuits) == 0 {
		cfg.Circuits = []string{"s344", "s1196"}
	}
	if cfg.Mix == nil {
		cfg.Mix = map[string]float64{"hot": 0.6, "cold": 0.2, "delta": 0.2}
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 5000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: time.Minute}
	}
	targets, err := buildTargets(cfg.Circuits)
	if err != nil {
		return nil, err
	}
	if _, err := Get(client, cfg.BaseURL+"/healthz"); err != nil {
		return nil, fmt.Errorf("daemon not reachable: %w", err)
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	results := make(chan sample, 4096)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(w)))
			for time.Now().Before(deadline) {
				tgt := targets[rng.Intn(len(targets))]
				class, body, path := nextRequest(rng, cfg.Mix, tgt, cfg.Runs)
				t0 := time.Now()
				status, err := post(client, cfg.BaseURL+path, body)
				results <- sample{class: class, d: time.Since(t0), status: status, err: err}
			}
		}(w)
	}
	go func() { wg.Wait(); close(results) }()

	durations := map[string][]time.Duration{}
	errs := map[string]int{}
	rejected := map[string]int{}
	total := 0
	for s := range results {
		total++
		switch {
		case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
			rejected[s.class]++
			rejected[ClassAll]++
		case s.err != nil:
			errs[s.class]++
			errs[ClassAll]++
		default:
			durations[s.class] = append(durations[s.class], s.d)
			durations[ClassAll] = append(durations[ClassAll], s.d)
		}
	}
	elapsed := time.Since(start)

	rep := &Report{
		Requests:    total,
		DurationSec: elapsed.Seconds(),
		ReqPerSec:   float64(total) / elapsed.Seconds(),
		Workers:     cfg.Concurrency,
	}
	for _, class := range append([]string{ClassAll}, Classes...) {
		ds := durations[class]
		if len(ds) == 0 && errs[class] == 0 && rejected[class] == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		rep.Classes = append(rep.Classes, ClassReport{
			Class: class, Count: len(ds), Errors: errs[class], Rejected: rejected[class],
			P50Sec: pct(ds, 0.50).Seconds(), P90Sec: pct(ds, 0.90).Seconds(),
			P99Sec: pct(ds, 0.99).Seconds(), MaxSec: pct(ds, 1.0).Seconds(),
		})
	}
	return rep, nil
}

// pct returns the q-quantile of an ascending-sorted duration slice
// (nearest-rank; 0 for empty input).
func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// post issues one load request. It returns the HTTP status (0 on
// transport errors) and an error for any non-200 outcome.
func post(client *http.Client, url, body string) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(b, &e)
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
	}
	return resp.StatusCode, nil
}

// Get fetches a URL and returns its body, erroring on non-200.
func Get(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	return string(b), nil
}

// Scrape pulls one unlabeled sample value out of a Prometheus text
// exposition.
func Scrape(exposition, metric string) (string, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, metric+" "); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}
