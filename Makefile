GO ?= go

.PHONY: all build test check lint lint-bench fuzz bench bench-cache chaos loadgen-smoke loadgen-1m loc

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Non-test Go lines per package and in total, outside benchmark/ and the
# lint corpus: the line counts EXPERIMENTS.md quotes.
loc:
	./scripts/loc.sh

# hermes-vet (DESIGN.md §8): CFG/dataflow static analysis of the
# project's invariants, one analyzer each. DESIGN.md §8.2 describes them
# and `go run ./cmd/hermes-lint -list` prints them. `make check` runs the
# same full-repo pass once, inside lint-bench.
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
# four lookup equivalences (bulk-built snapshot, frozen snapshots under churn
# with the unfloored and priority-floored overlap walks, TCAM table with
# DeleteAll against sequential Delete, cached two-tier), Algorithm 1
# against its from-scratch oracle, and the step-wise atomicity of the
# agent's table writes.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCodecRoundTrip -fuzztime=5s ./internal/ofwire
	$(GO) test -run='^$$' -fuzz=FuzzParsePrefix -fuzztime=5s ./internal/classifier
	$(GO) test -run='^$$' -fuzz=FuzzRuleIndexEquivalence -fuzztime=5s ./internal/classifier
	$(GO) test -run='^$$' -fuzz=FuzzTrieSnapshotIsolation -fuzztime=5s ./internal/classifier
	$(GO) test -run='^$$' -fuzz=FuzzPartitionEquivalence -fuzztime=5s ./internal/classifier
	$(GO) test -run='^$$' -fuzz=FuzzTableLookupEquivalence -fuzztime=5s ./internal/tcam
	$(GO) test -run='^$$' -fuzz=FuzzCachedLookupEquivalence -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzStepwiseAtomicity -fuzztime=10s ./internal/core

# Seeded chaos harness under the race detector: crash/restart
# reconciliation, interrupted-migration repair, wire faults (a reset with
# two batch frames in flight among them), request deadlines, per-rule FIFO
# through the fleet's send and completion path in both encodings (its
# perop row among them), submit order through an open circuit, and a
# group's completion hook calling back into the client from every path
# that completes it, all on fixed seeds so failures replay (DESIGN.md §9).
# A deadlock fails its package after 5 minutes, not go test's default 10.
chaos:
	$(GO) test -race -count=1 -timeout 5m \
		-run 'TestChaos|TestMigrationInterruptAtEachStep|TestCrashRestartReconcile|TestEquivalenceFixedSeedsWithFaults|TestUnmergeAfterCrashRecovery|TestWire|TestApplyDrivesAgentFaults|TestCrashMidRebalance|TestFleetPowerCycleRepairedByIntent|TestFleetTransportReplaysNothing|TestFleetAppliedButUnconfirmed|TestFleetWireBatchResetFailsBothFramesInOrder|TestFleetWireBatchPreservesPerRuleFIFO|TestFleetCircuitOpenFailsInSubmitOrder|TestOnDoneHookReentersClient|TestFleetBreakerHalfOpenClosesAfterInjectedFaults|TestFleetOpTimeoutFailsWedgedSwitch|TestRequestTimeoutAbandonsOnlyThatRequest|TestServerShutdownDrains|TestReconcile|TestDeclarativeReconcileOverFleet|TestControllerLeaseFailover|TestControllerTraceDigestDeterministic|TestWritesAreStepwiseAtomic' \
		./internal/core ./internal/faultinject ./internal/experiments ./internal/fleet ./internal/ofwire ./internal/intent
	$(GO) run ./cmd/hermes-bench -scale 0.5 chaos
	$(GO) run ./cmd/hermes-bench -scale 1 reconcile

# Full gate: vet, build, the timed lint run, race tests, linter
# self-test, benchmark module smoke, seeded chaos / reconcile / cache /
# loadgen verdicts, one iteration of the trie and TCAM micro-benchmarks,
# short fuzz (scripts/check.sh lists them; correctness only, no wall-clock
# gate beyond the lint budget).
check:
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
# a temp file: its wall time and achieved rate are this machine's, not a
# baseline worth committing.
loadgen-smoke:
	out="$$(mktemp)"; trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/hermes-loadgen -flows 4000 -rate 20000 -switches 2 \
		-hold 20ms -classes 3,1 -seed 42 -max-loss-rate 0 -out "$$out"

# Million-flow soak: open-loop Poisson arrivals, 1M flows at 12k/s against
# four in-process agents — takes a couple of minutes of wall clock (the
# schedule spans ~83 s of virtual time plus drain). Same seed replays a
# byte-identical schedule. -queue-depth is the fleet's per-switch queue
# depth, which also bounds the run's ops in flight per switch.
loadgen-1m:
	$(GO) run ./cmd/hermes-loadgen -flows 1000000 -rate 12000 -switches 4 \
		-hold 20ms -queue-depth 65536 -classes 3,1 -seed 42 \
		-max-loss-rate 0 -out BENCH_loadgen_1m.json
