#!/bin/sh
# Repo-wide gate: formatting (gofmt -l), DESIGN.md §4's package list against
# the tree, static analysis (go vet + one full-repo hermes-lint run, timed by
# lint_bench.sh, + the internal/core suppression ratchet), build, the full test suite under the
# race detector, the linter's self-test against its known-bad corpus, the
# nested benchmark module's vet + smoke test, the seeded chaos / reconcile / cache / loadgen
# verdicts, one iteration of the trie, cut, TCAM, spline, cache-rebalance,
# Agent.Lookup (flow-cache hits and misses) and obs record-path (histogram,
# counter, tracer) micro-benchmarks, and
# short-budget fuzz runs of the wire codec, the prefix parser, the four lookup equivalences
# (the TCAM one also holds the blocked table to the dense placement model and
# DeleteAll to sequential Delete; the trie one also checks the priority-floored
# overlap walk), the Algorithm-1 partition equivalence and the step-wise
# atomicity of the agent's table writes. Correctness only: no wall-clock
# number is gated here (`bash benchmark/run.sh` is the one place those are
# produced and compared).
# CI and `make check` both run this script. Everything is offline: no module
# downloads, stdlib only.
set -eu
cd "$(dirname "$0")/.."

echo ">> gofmt -l: every Go file formatted, the nested benchmark module too (the lint corpus is test input)"
unformatted="$(find . -name '*.go' ! -path './internal/lint/testdata/*' ! -path './.bench_build/*' -print0 | xargs -0 gofmt -l)"
if [ -n "$unformatted" ]; then
  echo "gofmt -l lists files that need formatting (run gofmt -w on them):" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo ">> layout: DESIGN.md §4's internal/{...} list names exactly the packages under internal/"
listed="$(sed -n '/^## 4\./,/^## 5\./p' DESIGN.md | tr -d ' \n' | sed -n 's|.*internal/{\([^}]*\)}.*|\1|p' | tr ',' '\n' | sort)"
present="$(ls -d internal/*/ | sed 's|^internal/||; s|/$||' | sort)"
stale="$(echo "$listed" | grep -vxF -e "$present" || true)"
unlisted="$(echo "$present" | grep -vxF -e "$listed" || true)"
if [ -z "$listed" ] || [ -n "$stale$unlisted" ]; then
  echo "DESIGN.md §4 and internal/ disagree; listed but absent: ${stale:-none}; present but unlisted: ${unlisted:-none}" | tr '\n' ' ' >&2
  echo >&2
  exit 1
fi

echo ">> go vet ./..."
go vet ./...

echo ">> go build ./..."
go build ./...

echo ">> hermes-lint ./... (hermes-vet invariants, DESIGN.md §8), timed against its wall-time budget"
./scripts/lint_bench.sh "${LINT_BUDGET:-120}"

echo ">> hot-path budget ratchet: internal/core holds at most 7 ignores + coldpaths"
core_exempt="$(ls internal/core/*.go | grep -v '_test\.go$' | xargs grep -hE '//lint:ignore hotpathalloc|//hermes:coldpath' | wc -l)"
if [ "$core_exempt" -gt 7 ]; then
  echo "internal/core carries $core_exempt //lint:ignore hotpathalloc and //hermes:coldpath directives together, ratchet is 7: remove the allocation or the root, not the finding" >&2
  exit 1
fi

echo ">> hermes-lint self-test: the known-bad corpus must produce findings"
corpus_status=0
go run ./cmd/hermes-lint ./internal/lint/testdata/src/... >/dev/null 2>&1 || corpus_status=$?
if [ "$corpus_status" -ne 1 ]; then
  echo "hermes-lint self-test failed: expected exit 1 on the corpus, got $corpus_status" >&2
  exit 1
fi

echo ">> hermes-vet corpus self-test under -race (exact want:-marker agreement)"
go test -race -count=1 -run 'TestCorpus|TestEveryAnalyzerCovered' ./internal/lint

# A deadlock fails its package after 5 minutes instead of go test's default
# 10: about twice the slowest package (internal/core) under -race.
echo ">> go test -race -timeout 5m ./..."
go test -race -timeout 5m ./...

echo ">> benchmark module: vet + smoke test (nested module, not part of ./...)"
(cd benchmark && go vet . && go test .)

echo ">> chaos: seeded fault-injection verdict (hermes-bench chaos)"
go run ./cmd/hermes-bench -scale 0.5 chaos | tee /tmp/hermes-chaos.$$ | tail -3
if grep -Eq 'DIVERGED|FAILED' /tmp/hermes-chaos.$$; then
  rm -f /tmp/hermes-chaos.$$
  echo "chaos verdict not clean" >&2
  exit 1
fi
rm -f /tmp/hermes-chaos.$$

echo ">> reconcile: 40-seed level-triggered convergence verdict (hermes-bench reconcile)"
go run ./cmd/hermes-bench -scale 1 reconcile | tee /tmp/hermes-reconcile.$$ | tail -3
if grep -Eq 'DIVERGED|FAILED' /tmp/hermes-reconcile.$$; then
  rm -f /tmp/hermes-reconcile.$$
  echo "reconcile convergence verdict not clean" >&2
  exit 1
fi
rm -f /tmp/hermes-reconcile.$$

echo ">> bench-cache smoke: FDRC policy verdicts + hit-ratio floor"
cache_json="/tmp/hermes-bench-cache.$$"
# The sweep is deterministic (virtual time, seeded workload), so the policy
# orderings and hit ratios are exact gates.
go run ./cmd/hermes-bench -cache-json "$cache_json" -scale 0.5 >/dev/null
if ! grep -q '"lfu_beats_lru": true' "$cache_json"; then
  rm -f "$cache_json"
  echo "bench-cache smoke failed: lfu_beats_lru is not true" >&2
  exit 1
fi
min_ratio="$(awk -F': ' '/"min_hit_ratio"/ { gsub(/,/, "", $2); print $2 }' "$cache_json")"
if ! awk "BEGIN { exit !($min_ratio >= 0.6) }" 2>/dev/null; then
  rm -f "$cache_json"
  echo "bench-cache smoke failed: min lfu hit ratio $min_ratio below the 0.6 floor" >&2
  exit 1
fi
rm -f "$cache_json"

echo ">> loadgen smoke: open-loop schedule determinism + SLO verdict gate"
lg="/tmp/hermes-loadgen.$$"
# Same seed must dump byte-identical schedules.
go run ./cmd/hermes-loadgen -flows 4000 -seed 42 -classes 3,1 -schedule-only \
  -dump-schedule "$lg.a" >/dev/null
go run ./cmd/hermes-loadgen -flows 4000 -seed 42 -classes 3,1 -schedule-only \
  -dump-schedule "$lg.b" >/dev/null
if ! cmp -s "$lg.a" "$lg.b"; then
  rm -f "$lg.a" "$lg.b"
  echo "loadgen smoke failed: same-seed schedules are not byte-identical" >&2
  exit 1
fi
# A normal budget must pass (exit 0) with a machine-readable verdict.
go run ./cmd/hermes-loadgen -flows 4000 -rate 20000 -switches 2 -hold 20ms \
  -classes 3,1 -seed 42 -max-loss-rate 0 -out "$lg.json" >/dev/null
if ! grep -q '"pass": true' "$lg.json"; then
  rm -f "$lg.a" "$lg.b" "$lg.json"
  echo "loadgen smoke failed: passing run did not report pass=true" >&2
  exit 1
fi
# An injected impossible budget must breach with exit status exactly 1: a
# 1 ns request timeout abandons every flow-mod, and no loss is tolerated.
breach_status=0
go run ./cmd/hermes-loadgen -flows 2000 -rate 20000 -switches 2 -hold 20ms \
  -seed 42 -max-loss-rate 0 -request-timeout 1ns >/dev/null 2>&1 || breach_status=$?
rm -f "$lg.a" "$lg.b" "$lg.json"
if [ "$breach_status" -ne 1 ]; then
  echo "loadgen smoke failed: expected exit 1 on injected breach, got $breach_status" >&2
  exit 1
fi

echo ">> micro-benchmarks run once so they cannot rot: trie lookup (in order and Zipf), locate and frozen write, wide cut (its causes/op is the size of the cut's record), TCAM churn, reset and action modify, spline forecast, cache rebalance at 2 000 and 20 000 rules (its scored/op is the rules one pass ranked), Agent.Lookup on a published view, uncached and cached, each on flow-cache hits and on misses, obs histogram record (serial and parallel), counter add and tracer record (nothing timed is gated)"
go test -run='^$' -bench='SnapshotLookup|TrieLocate|TrieWriteFrozen|PartitionWide' -benchtime=1x ./internal/classifier
go test -run='^$' -bench='TableChurn|TableReset|TableModifyAction' -benchtime=1x ./internal/tcam
go test -run='^$' -bench=CubicSplinePredict -benchtime=1x ./internal/predict
go test -run='^$' -bench='Rebalance|AgentLookup' -benchtime=1x ./internal/core
go test -run='^$' -bench='HistogramRecord|CounterAdd|TracerRecord' -benchtime=1x ./internal/obs

echo ">> fuzz: codec round-trip (5s)"
go test -run='^$' -fuzz=FuzzCodecRoundTrip -fuzztime=5s ./internal/ofwire

echo ">> fuzz: prefix parser (5s)"
go test -run='^$' -fuzz=FuzzParsePrefix -fuzztime=5s ./internal/classifier

echo ">> fuzz: bulk-built snapshot vs linear first-match (5s)"
go test -run='^$' -fuzz=FuzzRuleIndexEquivalence -fuzztime=5s ./internal/classifier

echo ">> fuzz: frozen snapshots, live trie and overlap walk (unfloored and priority-floored) under keyed churn vs linear oracles (5s)"
go test -run='^$' -fuzz=FuzzTrieSnapshotIsolation -fuzztime=5s ./internal/classifier

echo ">> fuzz: streaming Algorithm 1 vs from-scratch oracle (5s)"
go test -run='^$' -fuzz=FuzzPartitionEquivalence -fuzztime=5s ./internal/classifier

echo ">> fuzz: TCAM table indexed vs linear lookup, blocked vs dense placement model, DeleteAll vs sequential Delete (5s)"
go test -run='^$' -fuzz=FuzzTableLookupEquivalence -fuzztime=5s ./internal/tcam

echo ">> fuzz: cached two-tier lookup vs single-table oracle (5s)"
go test -run='^$' -fuzz=FuzzCachedLookupEquivalence -fuzztime=5s ./internal/core

echo ">> fuzz: every table write step-wise atomic under insert / delete / modify / tick streams, per op and batched, dst-only and src × dst (10s)"
go test -run='^$' -fuzz=FuzzStepwiseAtomicity -fuzztime=10s ./internal/core

echo "OK"
