GO ?= go
DATE := $(shell date +%Y%m%d)

.PHONY: all build test bench bench-smoke bench-allocgate check fmt vet lint lint-fast race race-shard ckpt-fuzz flake-hunt e2e

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full benchmark sweep. -count=1 keeps one sample per benchmark so the
# run finishes in minutes; BENCH_<date>.json records the suite
# wall-clock via the stampbench harness for before/after comparisons
# (see BENCH_baseline.json for the committed reference).
bench:
	$(GO) test -bench=. -benchmem -count=1 ./...
	$(GO) run ./cmd/stampbench -bench-out BENCH_$(DATE).json > /dev/null

# One iteration of every benchmark: catches benchmarks that fail or
# regress catastrophically without paying for a full measurement run.
# Includes the churn allocation gate below.
bench-smoke: bench-allocgate
	$(GO) test -bench=. -benchtime=1x -count=1 ./... > /dev/null

# Steady-state hot paths must be allocation-free: spawn→exit churn (Proc
# record, events and coroutine worker all recycle through the kernel's
# pools) and the sharded kernel's window loop (floor scan, horizon
# dispatch, cross-shard post merge). The gate fails on a nonzero
# allocs/op column (warm-up allocations amortize to zero over 1000
# iterations; the exact-zero steady-state churn property is also pinned
# by TestStepChurnZeroAllocSteadyState).
bench-allocgate:
	@out="$$($(GO) test -bench='^(BenchmarkKernel_SpawnChurn|BenchmarkShard_WindowChurn)$$' -benchmem -benchtime=1000x -run='^$$' -count=1 ./internal/sim/)"; \
	echo "$$out" | grep -E 'Benchmark(Kernel_SpawnChurn|Shard_WindowChurn)'; \
	for b in BenchmarkKernel_SpawnChurn BenchmarkShard_WindowChurn; do \
		allocs="$$(echo "$$out" | awk -v b="$$b" '$$0 ~ "^"b {print $$(NF-1)}')"; \
		if [ "$$allocs" != "0" ]; then echo "FAIL: $$b reports $$allocs allocs/op, want 0"; exit 1; fi; \
	done

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# go vet plus stampvet, the repo's own STAMP-aware analyzer engine
# (cmd/stamplint): determinism, map-iteration order, uncharged
# backdoors, S-round misuse, checkpoint-unsafe region element types,
# shard-safety and charge-flow accounting. -nocache forces a full
# from-source run.
lint: vet
	$(GO) run ./cmd/stamplint -nocache ./...

# Same suite with the per-package result cache (keyed by export-data
# hash): packages whose sources and dependency cones are unchanged
# skip parsing, type-checking and analysis entirely.
lint-fast:
	$(GO) run ./cmd/stamplint ./...

race: race-shard
	$(GO) test -race ./...

# Shard-focused race pass: window dispatch, worker goroutines resuming
# each shard's coroutines, and cross-shard post merging under the Go
# race detector. The *Shard* suites iterate the 1/2/4 shards × 1/2/4
# workers matrix internally, so this exercises every concurrent layout
# explicitly (the full `race` run above reaches them too).
race-shard:
	$(GO) test -race -count=1 -run 'Shard' ./internal/sim/ ./internal/core/ ./internal/experiments/ ./internal/racedet/ ./internal/ckpt/

# Black-box e2e: boot stampserve on an ephemeral port, submit scenarios
# over HTTP and assert on the event stream, /metrics and the scenario
# cache. Uses bats when installed, plain bash otherwise; needs curl+jq.
e2e:
	bash scripts/e2e/run.sh

# Kill/restore equivalence fuzz: crash a checkpointed run at many event
# budgets, restore, and require the final virtual time, energy and
# iterates to match a clean run bit-for-bit (1, 2 and 4 host workers,
# fast and slow kernel paths). On failure the test drops the offending
# checkpoint blobs plus a diff into $CKPT_FAIL_DIR if it is set.
ckpt-fuzz:
	$(GO) test -run 'TestKillRestoreEquivalence|TestDoubleCrashRestore' -count=1 ./internal/ckpt

# Execution-equivalence flake hunt: FLAKE_HUNT_N fresh randomized seeds
# (wall-clock master seed, every run new territory) through the kill,
# fast-path and shard equivalence fuzzes. Every seed
# is logged; reproduce a failure exactly with
# `make flake-hunt FLAKE_HUNT_SEED=<master seed from the log>`.
FLAKE_HUNT_N ?= 500
flake-hunt:
	FLAKE_HUNT_N=$(FLAKE_HUNT_N) FLAKE_HUNT_SEED=$(FLAKE_HUNT_SEED) $(GO) test -run 'TestFlakeHunt' -count=1 -v ./internal/sim/

# The PR gate: everything must build, lint (go vet + cached stamplint)
# and be gofmt-clean, every package must pass under the Go race
# detector, the checkpoint kill/restore fuzz must hold bit-for-bit, and
# every benchmark must at least run.
check: build vet lint-fast fmt race ckpt-fuzz bench-smoke
	$(GO) test ./...
