GO ?= go

.PHONY: all build test check lint lint-bench fuzz bench bench-cache chaos loadgen-smoke loadgen-1m

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# hermes-vet (DESIGN.md §13): CFG/dataflow static analysis of the
# project's concurrency and hot-path invariants — determinism (intra- and
# interprocedural wall-clock reach), zero-alloc hot paths, lock
# discipline, snapshot immutability after atomic.Pointer publication,
# blocking channel ops under locks, wire narrowing, error wrapping,
# test-goroutine hygiene, and //lint:ignore hygiene.
lint:
	$(GO) run ./cmd/hermes-lint ./...

# Wall-time budget for the full-repo lint run. The engine loads and
# type-checks every package and solves interprocedural fixpoints, so this
# catches accidental quadratic blowups in the analyzers before they make
# `make lint` (and every CI run) crawl. Override: LINT_BUDGET=60 make lint-bench
LINT_BUDGET ?= 120
lint-bench:
	./scripts/lint_bench.sh $(LINT_BUDGET)

# Short-budget native fuzzing of the wire codec, the prefix parser, the
# four lookup equivalences (bulk-built snapshot, frozen snapshots under churn,
# TCAM table, cached two-tier) and Algorithm 1 against its from-scratch oracle.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCodecRoundTrip -fuzztime=5s ./internal/ofwire
	$(GO) test -run='^$$' -fuzz=FuzzParsePrefix -fuzztime=5s ./internal/classifier
	$(GO) test -run='^$$' -fuzz=FuzzRuleIndexEquivalence -fuzztime=5s ./internal/classifier
	$(GO) test -run='^$$' -fuzz=FuzzTrieSnapshotIsolation -fuzztime=5s ./internal/classifier
	$(GO) test -run='^$$' -fuzz=FuzzPartitionEquivalence -fuzztime=5s ./internal/classifier
	$(GO) test -run='^$$' -fuzz=FuzzTableLookupEquivalence -fuzztime=5s ./internal/tcam
	$(GO) test -run='^$$' -fuzz=FuzzCachedLookupEquivalence -fuzztime=5s ./internal/core

# Seeded chaos harness under the race detector: crash/restart
# reconciliation, interrupted-migration repair, wire faults, and request
# deadlines, all on fixed seeds so failures replay (DESIGN.md §9).
chaos:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestMigrationInterruptAtEachStep|TestCrashRestartReconcile|TestEquivalenceFixedSeedsWithFaults|TestUnmergeAfterCrashRecovery|TestWire|TestApplyDrivesAgentFaults|TestCrashMidRebalance|TestFleetPowerCycleRepairedByIntent|TestFleetTransportReplaysNothing|TestFleetAppliedButUnconfirmed|TestFleetBreakerHalfOpenClosesAfterInjectedFaults|TestFleetOpTimeoutFailsWedgedSwitch|TestRequestTimeoutAbandonsOnlyThatRequest|TestServerShutdownDrains|TestReconcile|TestDeclarativeReconcileOverFleet|TestControllerLeaseFailover' \
		./internal/core ./internal/faultinject ./internal/experiments ./internal/fleet ./internal/ofwire ./internal/intent
	$(GO) run ./cmd/hermes-bench -scale 0.5 chaos
	$(GO) run ./cmd/hermes-bench -scale 1 reconcile

# Full gate: lint, vet, build, race tests, linter self-test, benchmark
# module smoke, seeded chaos / reconcile / cache / loadgen verdicts, short
# fuzz (scripts/check.sh lists them; correctness only, no wall-clock gate).
check: lint
	./scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem .

# FDRC caching-hierarchy baseline (DESIGN.md §16): the deterministic
# policy × Zipf-skew × cache-size sweep (virtual time). Rewrites
# BENCH_cache.json (committed, so hit-ratio regressions show up in review
# diffs).
bench-cache:
	$(GO) run ./cmd/hermes-bench -cache-json BENCH_cache.json

# Open-loop SLO smoke: a deterministic 4k-flow schedule replayed against
# two in-process agents; exit 1 on loss or SLO breach. The verdict goes to
# a temp file: its latency quantiles include the Go timer's wake-up
# lateness, so they are not a baseline worth committing.
loadgen-smoke:
	out="$$(mktemp)"; trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/hermes-loadgen -flows 4000 -rate 20000 -switches 2 \
		-hold 20ms -classes 3,1 -seed 42 -workers 16 \
		-p99-budget 30s -max-loss-rate 0 -out "$$out"

# Million-flow soak: the ISSUE acceptance run. Open-loop Poisson arrivals,
# 1M flows at 12k/s against four in-process agents — takes a couple of
# minutes of wall clock (the schedule spans ~83 s of virtual time plus
# drain). Same seed replays a byte-identical schedule.
loadgen-1m:
	$(GO) run ./cmd/hermes-loadgen -flows 1000000 -rate 12000 -switches 4 \
		-hold 20ms -workers 32 -queue-depth 65536 -classes 3,1 -seed 42 \
		-p99-budget 10s -max-loss-rate 0 -out BENCH_loadgen_1m.json
