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
# table charges exactly what it says, the wrapper hot path allocates
# nothing, and every registered experiment's tables equal its golden in
# internal/harness/testdata/golden. Run once plain and once on four Ps.
PURITY := 'TestNoHostClockInModel|TestVirtualTimePureFunction|TestXlatTable|TestWrapperCallCost|TestGoldenExperiments'

.PHONY: determinism
determinism:
	@echo "Running the virtual-time purity tests..."
	@$(GO) test -count=1 -run $(PURITY) ./...
	@GOMAXPROCS=4 $(GO) test -count=1 -run $(PURITY) ./...

# size prints what TestSizeRatchet holds against SIZE.json: non-test
# Go lines per package directory, core.Config fields, manasim CLI
# flags, registered experiments, and the unused exports: exported
# internal/ identifiers and methods of named types (interface methods
# included) that no non-test file references, each listed by name with
# the reason it stays.
.PHONY: size
size:
	@$(GO) test -count=1 -run '^TestSizeRatchet$$' -v .

########################################
### Benchmarks

# bench runs every Go micro-benchmark once. The end-to-end benchmark is
# `bash bench/run.sh`; `go run ./bench -compare A.json B.json` compares
# two of its reports.
.PHONY: bench
bench:
	@echo "Running all benchmarks once..."
	@$(GO) test -run '^$$' -bench . -benchtime 1x ./...

########################################
### Race detector

# race-ckpt covers callers that share one checkpoint store across
# goroutines: concurrent commits and chain resolutions
# (parallel_test.go), the tier backend's flush queue (tier_test.go
# interleaves Puts, read-through Gets, Deletes, and drain barriers
# across goroutines), and the dedup store's shared blob table
# (dedup_test.go commits generations while concurrent readers resolve
# recipes and retention prunes shared blobs); the store's own
# operations run on the caller's goroutine. It also covers the
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
# verification walk over manifest, chains, recipes, and blobs (serial,
# under the store mutex, so a repair never races a commit or a prune),
# the corruption injector's strike bookkeeping, and the
# restart-fallback walk that re-enters the store after quarantine.
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
	@$(GO) test -race -run 'TestCrashDuringPreemptionSweep' ./internal/core
	@$(GO) test -race -run 'TestSchedSweep' ./internal/harness

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
