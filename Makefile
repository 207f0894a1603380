GO ?= go

.PHONY: build test bench bench-guard bench-json smoke soak check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem . ./internal/incr ./internal/dist

# Performance gates, opt-in via BENCH_GUARD=1 because tight
# thresholds need a quiet machine:
#   - TestBenchGuardObsOverhead: SPSTA (s1238, Workers=4) metrics
#     enabled vs disabled, interleaved min-of-N, delta <= 2%. Since
#     the disabled path is the enabled path minus the work behind the
#     nil checks, this bounds the always-compiled instrumentation's
#     cost on uninstrumented runs.
#   - TestBenchGuardPackedSpeedup (internal/montecarlo): word-packed
#     Monte Carlo >= 5x the scalar reference walk the package's tests
#     keep, on s1196 at 10,000 runs (one run on a 2-vCPU x86-64 host
#     measured ~20x).
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
#     (-coarsen auto, DESIGN.md §15) >= 1.5x the same analyzer
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
	BENCH_GUARD=1 $(GO) test -run TestBenchGuard -v -timeout 20m . ./internal/montecarlo

# Regenerate the checked-in benchmark JSON documents (BENCH_spsta.json,
# BENCH_moment.json, BENCH_mc.json) with the default sweeps, including
# the spsta engine's -coarsen axis. Run on a quiet machine; the spsta
# sweep is the long pole.
bench-json:
	$(GO) run ./cmd/benchperf -engine spsta -epsilon 0,0.0001 -sigma 0,0.2 -coarsen off,auto
	$(GO) run ./cmd/benchperf -engine moment -epsilon 0,0.0001 -sigma 0,0.2
	$(GO) run ./cmd/benchperf -engine mc

# spstad end-to-end smoke: start the service on an ephemeral port,
# POST an s208 analyze, compare and delta request, scrape /metrics as
# Prometheus text, shut down gracefully.
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
# parallel determinism tests (core.TestParallelRunMatchesSerial and
# friends) exercise the level-parallel analyzer with Workers=4, which
# dispatches every level of at least 16 gates to the pool, and
# incr.TestSPSTAIncrementalPrunedMatchesFull does the same for cone
# updates (Workers 1 and 4, plus a panic in a cone), so this is the
# schedule-safety check; the instrumented variants
# (core.TestInstrumentedParallelMatchesSerial and friends) re-check it
# with metrics and tracing live. The scheduler tests run again at
# GOMAXPROCS 1 and 2, so the pool is raced on one processor as well as
# on two; the Monte Carlo packed, sharded, golden and MomentNets tests
# do the same for the packed engine's per-lane settle and glitch
# scratch and the shard merge. The incr restore and single-edit tests and the service's
# delta tests also run at both counts: delta sessions run Update with
# Workers = GOMAXPROCS next to the undo snapshot. Among them are the
# cross-scope checks (incr.TestSingleEditChargesCallingScope,
# service.TestDeltaWarmCostMatchesFreshSession): an edit charges the
# scope of the request that makes it, never the one that built the
# session. Under the race detector
# the packed-vs-scalar equivalence test runs its three smallest
# circuits only (the scalar glitch walk is the slowest code raced), so
# a plain run after the race lines checks its full circuit grid.
check:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt: needs formatting:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2 -run 'Parallel|Batched|Instrumented|IncrementalPruned|Restore|SingleEdit' ./internal/core ./internal/incr
	$(GO) test -race -cpu 1,2 -run Delta ./internal/service
	$(GO) test -race -cpu 1,2 -run 'Packed|Parallel|Golden|MomentNets' ./internal/montecarlo
	$(GO) test -run PackedMatchesScalarAllCircuits ./internal/montecarlo
	cd spstabench && $(GO) vet ./... && $(GO) test -short ./...
	$(MAKE) smoke
	$(MAKE) soak
	$(MAKE) bench-guard
