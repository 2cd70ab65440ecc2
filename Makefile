#!/usr/bin/make -f

GO ?= go

########################################
### Build / verify

.PHONY: build
build:
	@echo "Building all packages..."
	@$(GO) build ./...

.PHONY: test
test:
	@echo "Running tests..."
	@$(GO) test ./...

.PHONY: vet
vet:
	@echo "Running go vet..."
	@$(GO) vet ./...

.PHONY: race
race:
	@echo "Running tests with the race detector..."
	@$(GO) test -race ./...

.PHONY: ci
ci: build vet test

# determinism is the virtual-time purity gate: no host-clock read may
# feed the model (an AST walk over internal/*), default-config Stats are
# byte-identical run to run and across GOMAXPROCS, the translation-cost
# table charges exactly what it says, and the wrapper hot path allocates
# nothing. Run once plain and once on four Ps.
PURITY := 'TestNoHostClockInModel|TestVirtualTimePureFunction|TestXlatTable|TestWrapperCallCost'

.PHONY: determinism
determinism:
	@echo "Running the virtual-time purity tests..."
	@$(GO) test -count=1 -run $(PURITY) ./...
	@GOMAXPROCS=4 $(GO) test -count=1 -run $(PURITY) ./...

########################################
### Benchmarks (paper evaluation + ablations)

.PHONY: bench
bench:
	@echo "Running all benchmarks once..."
	@$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-smoke is the CI alias: every benchmark must run once without
# failing.
.PHONY: bench-smoke
bench-smoke: bench

.PHONY: bench-delta
bench-delta:
	@echo "Running delta codec and chain-materialization benchmarks..."
	@$(GO) test -run '^$$' -bench 'BenchmarkDeltaEncode|BenchmarkChainMaterialize|BenchmarkStreamMaterialize' -benchtime 3x .

# bench-drain sweeps the drain strategies at 4-256 ranks (the 64- and
# 256-rank rows on the event kernel) with allocation counts and the
# control plane's size (ctl-msgs, ctl-KB). It is part of BENCH_CKPT, so
# bench-compare tracks its trajectory too.
.PHONY: bench-drain
bench-drain:
	@echo "Running checkpoint drain benchmarks (twophase vs toposort)..."
	@$(GO) test -run '^$$' -bench BenchmarkCheckpointDrain -benchtime 3x -benchmem .

# Checkpoint-pipeline benchmarks: the codec and store hot paths this
# repo optimizes PR over PR, from the application's own snapshot
# (AppSnapshot/AppRestore: B/op is the state's size, allocs/op 1) on. ChainMaterialize (batch) and
# StreamMaterialize (chunk-pipelined) run on the same store shape, so
# their medians compare directly. Backends sweeps the persistence tiers
# (mem/fs/obj/tier) with their modeled commit-VT and drain-lag metrics.
BENCH_CKPT := 'BenchmarkParallelCommit|BenchmarkParallelMaterialize|BenchmarkDeltaEncode|BenchmarkChainMaterialize|BenchmarkStreamMaterialize|BenchmarkCompressTiers|BenchmarkDedupCommit|BenchmarkBackends|BenchmarkKernelScale|BenchmarkCheckpointDrain|BenchmarkAppSnapshot|BenchmarkAppRestore'

# bench-kernel measures the simulation kernel's scheduling cost: a
# fixed-work token ring at 16-1024 ranks, whose per-iteration wall
# should stay near-flat as the rank count grows. It is part of
# BENCH_CKPT, so bench-compare tracks its trajectory too.
.PHONY: bench-kernel
bench-kernel:
	@echo "Running simulation-kernel scale benchmarks (16-1024 ranks)..."
	@$(GO) test -run '^$$' -bench BenchmarkKernelScale -benchtime 3x -benchmem .

.PHONY: bench-ckpt
bench-ckpt:
	@$(GO) test -run '^$$' -bench $(BENCH_CKPT) -benchtime 3x -benchmem .

# bench-dedup isolates the content-addressed store: the dedup-vs-plain
# commit on the rank-identical 8 x 4 MB shape (stored-KB and ratio
# metrics) plus the codec sweep whose fast-lz row it pairs with. Both
# are part of BENCH_CKPT, so bench-compare tracks their medians.
.PHONY: bench-dedup
bench-dedup:
	@echo "Running dedup + compression-codec benchmarks..."
	@$(GO) test -run '^$$' -bench 'BenchmarkDedupCommit|BenchmarkCompressTiers' -benchtime 3x -benchmem .

# bench-store isolates the storage-backend sweep: per-backend commit
# cost plus the modeled commit-VT / drain-lag metrics of the tiered
# backends. It is part of BENCH_CKPT, so bench-compare tracks it too.
.PHONY: bench-store
bench-store:
	@echo "Running storage-backend benchmarks (mem/fs/obj/tier)..."
	@$(GO) test -run '^$$' -bench BenchmarkBackends -benchtime 3x -benchmem .

# bench-compare runs the checkpoint benchmarks 5 times, saves them to
# bench-new.txt, and renders an old-vs-new median table against
# bench-old.txt (plain-Go summarizer, no external deps). The first run
# seeds bench-old.txt; `cp bench-new.txt bench-old.txt` re-baselines.
.PHONY: bench-compare
bench-compare:
	@echo "Running checkpoint benchmarks (-count=5)..."
	@$(GO) test -run '^$$' -bench $(BENCH_CKPT) -benchtime 3x -count 5 -benchmem . > bench-new.txt
	@if [ -f bench-old.txt ]; then \
		$(GO) run ./cmd/benchcmp bench-old.txt bench-new.txt; \
	else \
		cp bench-new.txt bench-old.txt; \
		echo "No bench-old.txt baseline; saved this run as the baseline."; \
	fi

# race-ckpt covers the parallel commit/materialize pool, the streaming
# restart pipeline (ckptstore stream_test.go exercises the per-rank
# link-lookahead reads across pool widths), the tier backend's async
# drainer (tier_test.go interleaves Puts, read-through Gets, Deletes,
# and drain barriers across goroutines), and the dedup store's shared
# blob table (dedup_test.go commits generations while concurrent
# readers resolve recipes and retention prunes shared blobs), and the
# applications' snapshot codec with its send scratch (internal/apps).
.PHONY: race-ckpt
race-ckpt:
	@echo "Running the checkpoint subsystem under the race detector..."
	@$(GO) test -race ./internal/apps/... ./internal/ckptstore/... ./internal/ckptimg/... ./internal/ckpt/...

# race-faults covers the fault-injection layer end to end: the injector
# itself, the faulted wrapper path and crash/restart battery in core
# (crash-at-every-step, ctl-loss reliable drain, cross-impl recovery),
# and the long-horizon service loop whose restarts re-enter the store
# while the adaptive controller mutates its history.
.PHONY: race-faults
race-faults:
	@echo "Running the fault-injection layer under the race detector..."
	@$(GO) test -race ./internal/faults/...
	@$(GO) test -race -run 'TestFaultBattery|TestCrash|TestCtl|TestStraggler' ./internal/core
	@$(GO) test -race -run 'TestService|TestAdaptiveInterval|TestYoungDaly' ./internal/harness

# race-scrub covers the store-integrity subsystem: the scrubber's
# parallel verification walk over manifest, chains, recipes, and blobs
# (repair mutates the blob table while the worker pool reads it), the
# corruption injector's strike bookkeeping, and the restart-fallback
# walk that re-enters the store after quarantine.
.PHONY: race-scrub
race-scrub:
	@echo "Running the store-integrity subsystem under the race detector..."
	@$(GO) test -race -run 'TestScrub|TestStoreCorrupt|TestCorrupt' ./internal/ckptstore ./internal/faults
	@$(GO) test -race -run 'TestRestartFallback|TestRestartCorruptionSweep' ./internal/core
	@$(GO) test -race -run 'TestServiceCorruption' ./internal/harness

# race-sched covers the cluster scheduler: job segments of
# concurrently-resident jobs share the kernel's virtual-time queue,
# the preemption path re-enters the checkpoint store while the
# dispatcher mutates node state, and the sweep harness replays
# trajectories run to run.
.PHONY: race-sched
race-sched:
	@echo "Running the cluster scheduler under the race detector..."
	@$(GO) test -race ./internal/sched/...
	@$(GO) test -race -run 'TestCrashDuringPreemptionSweep|TestNodeCrashNamesJobAndNode' ./internal/core
	@$(GO) test -race -run 'TestSchedSweep' ./internal/harness

.PHONY: bench-figures
bench-figures:
	@echo "Regenerating the paper figures via benchmarks..."
	@$(GO) test -run '^$$' -bench 'BenchmarkFig|BenchmarkTable' -benchtime 1x -v .
	@$(GO) test -run '^$$' -bench 'BenchmarkWrappedIprobe|BenchmarkCrossingCost' -benchmem .

########################################
### Experiments

.PHONY: experiments
experiments:
	@$(GO) run ./cmd/manasim experiment -name all -fast 2

.PHONY: experiment-drain
experiment-drain:
	@$(GO) run ./cmd/manasim experiment -name drain

.PHONY: experiment-service
experiment-service:
	@$(GO) run ./cmd/manasim experiment -name service

.PHONY: experiment-sched
experiment-sched:
	@$(GO) run ./cmd/manasim experiment -name sched
