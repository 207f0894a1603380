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
#     enabled vs disabled, interleaved min-of-N, delta <= 2%. The
#     registry holds counts only, so a metrics-only run reads no clock
#     in the level scheduler. Since the disabled path is the enabled
#     path minus the work behind the nil checks, this bounds the
#     always-compiled instrumentation's cost on uninstrumented runs.
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
#     hot/cold/delta load with no SLO objective burning, no request
#     error, client p99 <= 500ms, rejections <= 1% (loadgen's
#     Report.Gate, the gate cmd/spstasoak applies).
bench-guard:
	BENCH_GUARD=1 $(GO) test -run TestBenchGuard -v -timeout 20m . ./internal/montecarlo

# Regenerate the checked-in benchmark JSON documents (BENCH_spsta.json,
# BENCH_moment.json, BENCH_mc.json) with the default sweeps, including
# the spsta engine's -coarsen axis. Run on a quiet machine; the spsta
# sweep is the long pole.
bench-json:
	$(GO) run ./cmd/benchperf -engine spsta -epsilon 0,0.0001 -sigma 0,0.2 -coarsen off,auto
	$(GO) run ./cmd/benchperf -engine moment -sigma 0,0.2
	$(GO) run ./cmd/benchperf -engine mc

# spstad end-to-end smoke: start the service on an ephemeral port,
# POST an s208 analyze, compare and delta request, scrape /metrics as
# Prometheus text, shut down gracefully.
smoke:
	$(GO) test -run TestSpstadSmoke -v ./internal/service/

# SLO soak: one minute of closed-loop mixed hot/cold/delta load
# against an in-process spstad with soak-tuned burn windows
# (DESIGN.md §17). Exits nonzero when any SLO objective burns, any
# request fails, client p99 exceeds 500ms, or rejections exceed 1%; a
# failing run lists the daemon's auto-capture bundles. bench-guard
# runs an 8-second short-mode version of the same gate
# (TestBenchGuardSoak).
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
# updates (Workers 1, 2 and 4, plus a panic in a cone, over unit and
# sigma=0.6 base delays, each edit sequence bit-identical to a full
# run), so this is the schedule-safety check; the folded delay-kernel
# certificate oracle (core.TestFoldedKernelCertificate, GOMAXPROCS
# workers) runs serial and pooled at the two counts below; the instrumented variants
# (core.TestInstrumentedParallelMatchesSerial and friends) re-check it
# with metrics and tracing live, and core.TestInstrumentedGatesMatchSpans
# checks the registry's gate count against the level and gate spans,
# inline and pooled. The scheduler tests run again at
# GOMAXPROCS 1 and 2, so the pool is raced on one processor as well as
# on two; the Monte Carlo packed, sharded, golden and MomentNets tests
# do the same for the packed engine's per-lane settle and glitch
# scratch and the shard merge. The incr restore, single-edit and Apply
# tests (FuzzApplyMatchesFullRun's seed corpus among them: edit sets
# on both engines checked bit for bit against full runs, grid-moving
# launch edits rejected) and the service's delta tests also run at
# both counts: delta sessions run Update with Workers = GOMAXPROCS
# next to the undo snapshot. Among them are the
# cross-scope checks (incr.TestSingleEditChargesCallingScope,
# service.TestDeltaWarmCostMatchesFreshSession): an edit charges the
# scope of the request that makes it, never the one that built the
# session. The service's request-clock and /metrics-scrape tests run
# at both counts too: the one exit that records a request, and
# scrapes reading the lifetime engine registry while finishing
# requests add into it,
# and the drift monitor's ticker loop, which must stop with Close.
# The service's bounded stores run at both counts as well: the shared
# LRU (TestLRUOrderAndBound), the result cache's eviction, byte bound
# and panicking flight (TestResultCacheHit, TestResultCacheEviction,
# TestResultCacheBoundCountsStoredBytes,
# TestResultCachePanicDoesNotWedgeKey), single-flight
# (TestSingleFlightDedup), the netlist registry
# (TestNetlistRegistryAndRef) and concurrent first-hit encoding
# (TestConcurrentFirstHitsEncodeOnce). So do the readers of the one
# series table that /metrics and the timeline sampler both walk: the
# exposition golden (TestMetricsExpositionGolden, the full /metrics
# text and every sampled series after a fixed request sequence), the
# exposition format check (TestPrometheusExpositionValid) and the
# timeline endpoints (TestTimelineEndpoints, TestTimelineDisabledSampler).
# Under the race detector
# the packed-vs-scalar equivalence test runs its three smallest
# circuits only (the scalar glitch walk is the slowest code raced), so
# a plain run after the race lines checks its full circuit grid.
# The FMA guard re-runs the mixture and golden tests built for x86-64-v3
# (GOAMD64=v3, where FMA instructions are available): the fused
# mixture kernel is pinned bit for bit to the bin-by-bin recurrence,
# and golden_top.txt (TestGoldenTOP) and golden_moment.txt
# (TestGoldenMoment, the analytic moment engine) to recorded bits, so
# a product contracted into a fused multiply-add fails it. The kernel
# rounds every product that meets a difference with an explicit
# float64 conversion, which keeps it unfused on arm64, where Go
# contracts; Go 1.24 does not contract on amd64 at all, so the line
# guards against a toolchain that starts to. It is skipped, with a
# message, on a CPU whose /proc/cpuinfo lacks avx2 or fma.
check:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt: needs formatting:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo; then \
		GOAMD64=v3 $(GO) test -run 'Mixture|Golden' ./internal/dist ./internal/core; \
	else echo "check: skipping the GOAMD64=v3 FMA guard: /proc/cpuinfo lacks avx2 or fma"; fi
	$(GO) test -race -cpu 1,2 -run 'Parallel|Batched|Instrumented|IncrementalPruned|Restore|SingleEdit|FoldedKernel|Apply' ./internal/core ./internal/incr
	$(GO) test -race -cpu 1,2 -run 'Delta|RequestClock|MetricsScrape|DriftLoop|LRU|ResultCache|SingleFlight|NetlistRegistry|FirstHits|Exposition|Timeline' ./internal/service
	$(GO) test -race -cpu 1,2 -run 'Packed|Parallel|Golden|MomentNets' ./internal/montecarlo
	$(GO) test -run PackedMatchesScalarAllCircuits ./internal/montecarlo
	cd spstabench && $(GO) vet ./... && $(GO) test -short ./...
	$(MAKE) smoke
	$(MAKE) soak
	$(MAKE) bench-guard
