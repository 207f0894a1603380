GO ?= go

.PHONY: build test bench bench-guard bench-json smoke soak check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem . ./internal/incr

# Performance gates, opt-in via BENCH_GUARD=1 because tight
# thresholds need a quiet machine:
#   - TestBenchGuardObsOverhead: SPSTA (s1238, Workers=4) metrics
#     enabled vs disabled, interleaved min-of-N, delta <= 2%. Since
#     the disabled path is the enabled path minus the work behind the
#     nil checks, this bounds the always-compiled instrumentation's
#     cost on uninstrumented runs.
#   - TestBenchGuardPackedSpeedup: word-packed Monte Carlo >= 5x the
#     scalar engine on s1196 at 10,000 runs.
#   - TestBenchGuardTracingOverhead: the always-on service scope
#     (metrics + coarse tracer + trace ID, what spstad attaches to
#     every request) vs observability disabled, delta <= 2%.
#   - TestBenchGuardPackedObsOverhead: the packed engine's per-block
#     counters also reduce to nil checks when disabled (delta <= 2%).
#   - TestBenchGuardPruneSpeedup: epsilon=1e-4 adaptive pruning >= 2x
#     the exact engine single-threaded on the widest-fanin cell under
#     variational delays, with the certificate's error ceiling checked
#     in the same run.
#   - TestBenchGuardCoarsenSpeedup: depth-adaptive grid coarsening
#     (-coarsen auto, DESIGN.md §15) >= 1.5x the same batched analyzer
#     without coarsening on the two deepest cells at epsilon=1e-4
#     under variational delays, with every measured deviation checked
#     against the re-binning certificate in the same run.
#   - TestBenchGuardCacheAndDelta: serving-layer contracts
#     (DESIGN.md 16) on the two deepest cells, end to end over HTTP:
#     cache-hit p99 >= 50x the cold request, warm single-edit
#     /v1/delta >= 5x a full uncached re-analysis, and N concurrent
#     identical requests run the engine exactly once (single-flight).
#   - TestBenchGuardTimelineOverhead: the timeline sampler + SLO
#     burn-rate evaluator ticking at 10ms (100x production rate)
#     adds <= 2% to the served request path (DESIGN.md §17).
#   - TestBenchGuardSoak: 8-second short-mode of `make soak` — mixed
#     hot/cold/delta load with no SLO objective burning, client p99
#     <= 500ms, rejections <= 1%.
bench-guard:
	BENCH_GUARD=1 $(GO) test -run TestBenchGuard -v -timeout 20m .

# Regenerate the checked-in benchmark JSON documents (BENCH_spsta.json,
# BENCH_moment.json, BENCH_mc.json) with the default sweeps, including
# the spsta engine's -coarsen axis. Run on a quiet machine; the spsta
# sweep is the long pole.
bench-json:
	$(GO) run ./cmd/benchperf -engine spsta -epsilon 0,0.0001 -sigma 0,0.2 -batched on,off -coarsen off,auto
	$(GO) run ./cmd/benchperf -engine moment -epsilon 0,0.0001 -sigma 0,0.2
	$(GO) run ./cmd/benchperf -engine mc

# spstad end-to-end smoke: start the service on an ephemeral port,
# POST an s208 analyze request, scrape /metrics as Prometheus text,
# shut down gracefully.
smoke:
	$(GO) test -run TestSpstadSmoke -v ./internal/service/

# SLO soak: one minute of closed-loop mixed hot/cold/delta load
# against an in-process spstad with soak-tuned burn windows
# (DESIGN.md §17). Exits nonzero when any SLO objective burns, client
# p99 exceeds 500ms, or rejections exceed 1%; a failing run lists the
# daemon's auto-capture bundles. bench-guard runs an 8-second
# short-mode version of the same gate (TestBenchGuardSoak).
soak:
	$(GO) run ./cmd/spstasoak -duration 60s

# CI gate: vet, the full suite under the race detector (which
# includes the spstad smoke test and the concurrent scope-isolation
# tests), the benchmark module's own vet and short tests (spstabench
# is a separate module the root ./... does not enter), an explicit
# spstad smoke run, then the instrumentation overhead guard. The
# parallel determinism tests
# (core.TestParallelRunMatchesSerial and friends) exercise the
# level-parallel analyzers with Workers=4, so this is the
# schedule-safety check; the instrumented variants
# (core.TestInstrumentedParallelMatchesSerial and friends) re-check
# it with metrics and tracing live.
check:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt: needs formatting:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	cd spstabench && $(GO) vet ./... && $(GO) test -short ./...
	$(MAKE) smoke
	$(MAKE) soak
	$(MAKE) bench-guard
