// Command spstad serves SPSTA analyses over HTTP.
//
// Endpoints:
//
//	POST /v1/analyze          run one or all engines on a circuit
//	POST /v1/compare          SPSTA vs Monte Carlo deviation per endpoint
//	POST /v1/netlists         register a netlist; returns its content digest
//	POST /v1/delta            incremental re-analysis of an edited netlist
//	GET  /metrics             Prometheus text exposition (RED + engine totals)
//	GET  /debug/requests      flight recorder: recent request summaries
//	                          (?since= filters by start time)
//	GET  /debug/requests/{id} one recorded request; captured slow requests
//	                          include the span tree (?format=trace downloads
//	                          the Chrome trace_event JSON)
//	GET  /debug/timeline      in-process metrics timeline: windowed,
//	                          downsampled series (?series= ?window= ?points=)
//	GET  /debug/slo           SLO burn-rate state and windowed latency
//	                          percentiles
//	GET  /debug/captures      SLO auto-capture bundles (-debug-dir);
//	                          /{name}/{file} serves one artifact
//	GET  /healthz             liveness
//	GET  /readyz              readiness (503 once shutdown has begun)
//
// A request names a built-in synthetic benchmark or carries an inline
// .bench netlist:
//
//	curl -s localhost:8321/v1/analyze -d '{"circuit":"s208","engine":"all"}'
//
// Logs are JSON lines on stderr (log/slog); every request carries a
// request ID. SIGINT/SIGTERM drain in-flight requests before exit.
//
// Flags size the worker pool, the netlist registry, the result and
// session caches and the flight recorder, and set the drift-monitor
// and timeline periods. The SLO table is fixed (DESIGN.md §17.2):
// flags set only the latency threshold, the rejection budget and the
// two burn windows, while the 0.99 targets and the burn thresholds
// (2 fast, 1 slow) are constants. README "Operating spstad" names
// every flag.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spstad:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "localhost:8321", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "analyses allowed to run at once (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 16, "requests allowed to wait for a worker slot before 429s (negative disables queueing)")
	traceDir := flag.String("trace-dir", "", "directory for per-request Chrome trace files (empty disables tracing)")
	driftInterval := flag.Duration("drift-interval", time.Minute, "accuracy-drift monitor period (0 disables); each tick replays a sampled request through the packed Monte Carlo engine and exports the SPSTA deviation as gauges")
	driftRuns := flag.Int("drift-runs", 2000, "Monte Carlo runs per drift replay")
	flightSize := flag.Int("flight-size", 128, "flight recorder ring size (recent request summaries kept for /debug/requests)")
	slowLatency := flag.Duration("slow-latency", 2*time.Second, "flight recorder full-capture latency threshold (0 disables)")
	registrySize := flag.Int("registry-size", service.DefaultRegistrySize, "parsed netlists kept in the content-addressed registry (LRU)")
	cacheBytes := flag.Int64("cache-bytes", service.DefaultCacheBytes, "result cache budget in bytes (0 = default, negative disables)")
	sessionCache := flag.Int("session-cache", service.DefaultSessionCacheSize, "warm incremental /v1/delta sessions kept (LRU)")
	timelineInterval := flag.Duration("timeline-interval", time.Second, "metrics timeline sampling period (0 disables the sampler)")
	sloLatencyThreshold := flag.Float64("slo-latency-threshold", 0.5, "latency SLO: per-request threshold in seconds")
	sloRejectionBudget := flag.Float64("slo-rejection-budget", 0.01, "rejection SLO: tolerable rejected-request fraction")
	sloFastWindow := flag.Duration("slo-fast-window", time.Minute, "burn-rate fast window (objectives fire at burn 2 here and 1 over the slow window)")
	sloSlowWindow := flag.Duration("slo-slow-window", 5*time.Minute, "burn-rate slow window")
	debugDir := flag.String("debug-dir", "", "directory for SLO auto-capture bundles (empty disables auto-capture)")
	captureCPU := flag.Duration("capture-cpu", 2*time.Second, "CPU-profile duration per capture bundle")
	captureMinInterval := flag.Duration("capture-min-interval", time.Minute, "minimum time between capture bundles")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown drain deadline")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level: %w", err)
	}
	log := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
	}
	if *debugDir != "" {
		if err := os.MkdirAll(*debugDir, 0o755); err != nil {
			return err
		}
	}

	svc := service.New(service.Config{
		Logger:           log,
		MaxConcurrent:    *maxConcurrent,
		MaxQueue:         *maxQueue,
		TraceDir:         *traceDir,
		DriftInterval:    *driftInterval,
		DriftRuns:        *driftRuns,
		FlightSize:       *flightSize,
		SlowLatency:      *slowLatency,
		RegistrySize:     *registrySize,
		CacheBytes:       *cacheBytes,
		SessionCacheSize: *sessionCache,

		TimelineInterval:    *timelineInterval,
		SLOLatencyThreshold: *sloLatencyThreshold,
		SLORejectionBudget:  *sloRejectionBudget,
		SLOFastWindow:       *sloFastWindow,
		SLOSlowWindow:       *sloSlowWindow,
		DebugDir:            *debugDir,
		CaptureCPU:          *captureCPU,
		CaptureMinInterval:  *captureMinInterval,
	})
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Info("listening", "addr", ln.Addr().String())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Info("shutting down", "drain_deadline", shutdownTimeout.String())
	svc.Close() // readyz flips to 503; drift monitor stops
	dctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	log.Info("stopped")
	return nil
}
