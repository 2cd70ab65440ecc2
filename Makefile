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

# race runs the whole suite under the race detector on four Ps. The
# kernel runs a job's ranks as coroutines of one loop, one at a time,
# and its coroutine switch is the one ordering the simulator relies on:
# the kernel, the fabric, the checkpoint coordinator and store, the
# backends and the fault injector keep no lock or atomic, and the
# detector, which sees each switch as a synchronization, proves the
# switches order every access to them — the checkpoint subsystem, the
# fault-injection layer, scrub and the restart fallback, and the
# cluster scheduler included.
.PHONY: race
race:
	@echo "Running tests with the race detector on four Ps..."
	@GOMAXPROCS=4 $(GO) test -race ./...

.PHONY: ci
ci: build vet test

# determinism is the virtual-time purity gate: no host-clock read may
# feed the model (an AST walk over internal/*), default-config Stats are
# byte-identical run to run and across GOMAXPROCS, the translation-cost
# table charges exactly what it says, the wrapper hot path allocates
# nothing, a batch of discarded polls charges exactly what as many real
# Iprobes charge (the batch-versus-loop oracle), and every registered
# experiment's tables equal its golden in internal/harness/testdata/golden.
# Run once plain and once on four Ps.
PURITY := 'TestNoHostClockInModel|TestVirtualTimePureFunction|TestXlatTable|TestWrapperCallCost|TestIprobesBatchCharge|TestPollBatch|TestGoldenExperiments'

.PHONY: determinism
determinism:
	@echo "Running the virtual-time purity tests..."
	@$(GO) test -count=1 -run $(PURITY) ./...
	@GOMAXPROCS=4 $(GO) test -count=1 -run $(PURITY) ./...

# size prints what TestSizeRatchet holds against SIZE.json: non-test
# Go lines per package directory, core.Config fields, manasim CLI
# flags, registered experiments, the unused exports — exported
# internal/ identifiers and methods of named types (interface methods
# included) that no non-test file references — the sync sites:
# non-test internal/ uses of sync's Mutex, RWMutex, Cond, Once and
# WaitGroup and of sync/atomic (sync.Pool is not counted) — and the
# write-only fields: fields of internal/ structs that no non-test file
# reads — and the uncalled mpi.Proc methods: those no non-test file
# calls except to pass the call on. Each unused export, sync site,
# write-only field and uncalled method is listed by name with the
# reason it stays.
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
