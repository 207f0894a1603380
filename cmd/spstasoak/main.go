// Command spstasoak is the load generator and SLO soak harness for
// spstad: it runs a closed-loop mixed hot/cold/delta load
// (internal/loadgen) against a daemon for a fixed duration while
// polling /debug/slo, prints per-class latency percentiles and the
// daemon's cache counters, and exits nonzero when the run fails the
// soak gate (loadgen's Report.Gate) — any SLO objective seen burning,
// any request error, a client-side p99 latency over the threshold, or
// a rejection rate over budget. `make soak` runs it for 60 seconds.
//
// By default the harness spawns the daemon in-process (the service
// package behind a real HTTP listener on 127.0.0.1), with soak-tuned
// SLO windows so violations surface within seconds rather than the
// production 5-minute slow window; -addr points it at an externally
// started daemon instead (whose own SLO configuration then applies).
// The spawned daemon's latency and rejection objectives take their
// limits from -p99-limit and -rejection-budget; the server-side
// latency target (0.99) and burn thresholds (2 fast, 1 slow) are the
// daemon's fixed values.
//
// Usage:
//
//	spstasoak -duration 60s
//	spstasoak -addr http://localhost:8321 -duration 15s -mix hot=0.6,cold=0.2,delta=0.2
//	spstasoak -addr http://host:8321 -circuits s1196,s1238 -json BENCH_service.json
//
// A violation leaves evidence: the daemon's auto-capture writes a
// diagnostic bundle (CPU+heap profiles, flight ring, the offending
// timeline window) under -debug-dir, and the harness lists the
// bundles it finds via /debug/captures before exiting. -json writes
// the client-side report (per-class counts, rejections and
// percentiles) plus the server-side SLO summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/internal/service"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spstasoak:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	addr := flag.String("addr", "", "base URL of an already-running spstad (empty spawns one in-process)")
	duration := flag.Duration("duration", 60*time.Second, "soak duration")
	concurrency := flag.Int("concurrency", 8, "closed-loop workers")
	circuits := flag.String("circuits", "s344,s1196", "comma-separated benchmark circuits")
	mix := flag.String("mix", "hot=0.6,cold=0.2,delta=0.2", "traffic mix weights (hot, cold, delta)")
	runs := flag.Int("runs", 5000, "Monte Carlo runs for cold requests")
	seed := flag.Int64("seed", 1, "load-pattern seed")
	poll := flag.Duration("poll", 2*time.Second, "/debug/slo polling period")
	jsonPath := flag.String("json", "", "write the report as JSON to this path")

	// Gates, applied to the client-side report at the end of the run
	// (the in-process daemon additionally evaluates them server-side
	// as burn-rate objectives).
	p99Limit := flag.Duration("p99-limit", loadgen.DefaultP99Limit, "client-side p99 latency gate across all classes")
	rejBudget := flag.Float64("rejection-budget", loadgen.DefaultRejectionBudget, "tolerable rejected-request fraction")

	// Spawned-daemon knobs (ignored with -addr).
	slots := flag.Int("slots", 0, "spawned daemon worker slots (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 16, "spawned daemon queue depth before 429s")
	timelineInterval := flag.Duration("timeline-interval", 200*time.Millisecond, "spawned daemon timeline sampling period")
	fastWindow := flag.Duration("slo-fast-window", 5*time.Second, "spawned daemon burn-rate fast window")
	slowWindow := flag.Duration("slo-slow-window", 20*time.Second, "spawned daemon burn-rate slow window")
	debugDir := flag.String("debug-dir", "", "spawned daemon auto-capture directory (empty = a fresh temp dir)")
	captureCPU := flag.Duration("capture-cpu", 500*time.Millisecond, "spawned daemon CPU-profile duration per capture")
	logLevel := flag.String("log-level", "warn", "spawned daemon log level")
	flag.Parse()

	weights, err := loadgen.ParseMix(*mix)
	if err != nil {
		return 2, err
	}

	base := *addr
	if base == "" {
		dir := *debugDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "spstasoak-debug-")
			if err != nil {
				return 2, err
			}
			// Runs after the daemon's Close below: a temp dir that
			// holds no capture bundle goes; one that does stays.
			defer func() {
				if os.Remove(dir) != nil {
					fmt.Printf("debug bundles kept in %s\n", dir)
				}
			}()
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			return 2, err
		}
		var level slog.Level
		if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
			return 2, fmt.Errorf("bad -log-level: %w", err)
		}
		svc := service.New(service.Config{
			Logger:        slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})),
			MaxConcurrent: *slots,
			MaxQueue:      *maxQueue,

			TimelineInterval:    *timelineInterval,
			SLOLatencyThreshold: p99Limit.Seconds(),
			SLORejectionBudget:  *rejBudget,
			SLOFastWindow:       *fastWindow,
			SLOSlowWindow:       *slowWindow,
			DebugDir:            dir,
			CaptureCPU:          *captureCPU,
			CaptureMinInterval:  10 * time.Second,
		})
		defer svc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 2, err
		}
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Printf("spawned spstad on %s (debug bundles in %s)\n", base, dir)
	}

	client := &http.Client{Timeout: time.Minute}

	// Poll /debug/slo throughout the run: a violation that burns and
	// recovers mid-soak still fails the gate.
	var mu sync.Mutex
	seen := map[string]bool{}
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		t := time.NewTicker(*poll)
		defer t.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-t.C:
				slo, err := fetchSLO(client, base)
				if err != nil {
					continue // transient; the final poll decides
				}
				mu.Lock()
				for _, name := range slo.Burning {
					if !seen[name] {
						fmt.Printf("SLO BURNING: %s\n", name)
					}
					seen[name] = true
				}
				mu.Unlock()
			}
		}
	}()

	fmt.Printf("soaking %s for %s: %d workers, mix %s\n", base, duration, *concurrency, *mix)
	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:     base,
		Duration:    *duration,
		Concurrency: *concurrency,
		Circuits:    strings.Split(*circuits, ","),
		Mix:         weights,
		Runs:        *runs,
		Seed:        *seed,
		Client:      client,
	})
	close(stopPoll)
	pollWG.Wait()
	if err != nil {
		return 2, err
	}

	// Final server-side state: one more /debug/slo read over a window
	// covering the whole run, for the client/server p99 agreement line
	// and any violation the poller's cadence missed.
	sloSum := &loadgen.SLOSummary{}
	if slo, err := fetchSLOWindow(client, base, *duration); err == nil {
		mu.Lock()
		for _, name := range slo.Burning {
			seen[name] = true
		}
		for _, obj := range slo.Objectives {
			if obj.Burning {
				seen[obj.Name] = true
			}
		}
		mu.Unlock()
		for _, ls := range slo.Latency {
			if ls.Series == "req.total.latency" {
				sloSum.ServerP50Sec = ls.P50
				sloSum.ServerP99Sec = ls.P99
			}
		}
		sloSum.Captures = slo.Captures
	}
	for name := range seen {
		sloSum.Violations = append(sloSum.Violations, name)
	}
	rep.SLO = sloSum

	fmt.Printf("\n%d requests in %s (%.0f req/s, %d workers)\n",
		rep.Requests, *duration, rep.ReqPerSec, rep.Workers)
	fmt.Printf("%-6s %8s %6s %6s  %10s %10s %10s %10s\n",
		"class", "count", "errs", "rej", "p50", "p90", "p99", "max")
	for _, class := range append(loadgen.Classes, loadgen.ClassAll) {
		if cr := rep.Class(class); cr != nil {
			fmt.Printf("%-6s %8d %6d %6d  %10s %10s %10s %10s\n", cr.Class,
				cr.Count, cr.Errors, cr.Rejected,
				fmtSec(cr.P50Sec), fmtSec(cr.P90Sec), fmtSec(cr.P99Sec), fmtSec(cr.MaxSec))
		}
	}
	if sloSum.ServerP99Sec > 0 {
		fmt.Printf("server-side (/debug/slo): p50 %s p99 %s\n",
			fmtSec(sloSum.ServerP50Sec), fmtSec(sloSum.ServerP99Sec))
	}
	if body, err := loadgen.Get(client, base+"/metrics"); err == nil {
		for _, m := range []string{"spstad_cache_hits_total", "spstad_cache_misses_total",
			"spstad_singleflight_shared_total", "spstad_delta_nets_recomputed_total"} {
			if v, ok := loadgen.Scrape(body, m); ok {
				fmt.Printf("%-36s %s\n", m, v)
			}
		}
	}

	if *jsonPath != "" {
		if err := rep.WriteJSON(*jsonPath); err != nil {
			return 2, err
		}
		fmt.Printf("report written to %s\n", *jsonPath)
	}

	failures := rep.Gate(*p99Limit, *rejBudget)
	if len(failures) == 0 {
		fmt.Println("PASS: soak gate met")
		return 0, nil
	}
	fmt.Println("\nFAIL:")
	for _, f := range failures {
		fmt.Println("  -", f)
	}
	listCaptures(client, base)
	return 1, nil
}

// sloResponse mirrors service.SLOResponse's fields the harness reads
// (decoded from JSON so -addr works against any spstad build).
type sloResponse struct {
	Burning    []string `json:"burning"`
	Objectives []struct {
		Name    string `json:"name"`
		Burning bool   `json:"burning"`
	} `json:"objectives"`
	Latency []struct {
		Series string  `json:"series"`
		P50    float64 `json:"p50"`
		P99    float64 `json:"p99"`
	} `json:"latency"`
	Captures int64 `json:"captures"`
}

func fetchSLO(client *http.Client, base string) (*sloResponse, error) {
	return fetchSLOWindow(client, base, 0)
}

func fetchSLOWindow(client *http.Client, base string, window time.Duration) (*sloResponse, error) {
	url := base + "/debug/slo"
	if window > 0 {
		url += "?window=" + window.String()
	}
	body, err := loadgen.Get(client, url)
	if err != nil {
		return nil, err
	}
	var slo sloResponse
	if err := json.Unmarshal([]byte(body), &slo); err != nil {
		return nil, err
	}
	return &slo, nil
}

// listCaptures prints the daemon's auto-capture bundles so a failing
// soak points straight at its evidence.
func listCaptures(client *http.Client, base string) {
	body, err := loadgen.Get(client, base+"/debug/captures")
	if err != nil {
		return
	}
	var out struct {
		Captures []struct {
			Name     string   `json:"name"`
			Complete bool     `json:"complete"`
			Files    []string `json:"files"`
		} `json:"captures"`
	}
	if json.Unmarshal([]byte(body), &out) != nil || len(out.Captures) == 0 {
		return
	}
	fmt.Println("capture bundles (GET /debug/captures/{name}/{file}):")
	for _, c := range out.Captures {
		fmt.Printf("  %s complete=%v files=%s\n", c.Name, c.Complete, strings.Join(c.Files, ","))
	}
}

func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}
