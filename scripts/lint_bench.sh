#!/bin/sh
# lint_bench.sh: the full-repo hermes-vet run, timed. It fails when the
# linter reports findings (exit 1 under set -e) or when the run exceeds its
# wall-time budget (seconds, default 120; first argument or LINT_BUDGET
# overrides). scripts/check.sh runs the linter only through this script.
# The binary is built once first so the measurement is analysis time, not
# toolchain compile time. The run takes about 4 s on a 2-vCPU guest, so
# second-granularity timing in POSIX sh is plenty.
set -eu
cd "$(dirname "$0")/.."

budget="${1:-${LINT_BUDGET:-120}}"
case "$budget" in
  ''|*[!0-9]*) echo "lint-bench: budget must be an integer number of seconds, got '$budget'" >&2; exit 2 ;;
esac

bin="/tmp/hermes-lint-bench.$$"
trap 'rm -f "$bin"' EXIT
go build -o "$bin" ./cmd/hermes-lint

start=$(date +%s)
"$bin" ./...
end=$(date +%s)
elapsed=$((end - start))

echo "lint-bench: full-repo hermes-vet run took ${elapsed}s (budget ${budget}s)"
if [ "$elapsed" -gt "$budget" ]; then
  echo "lint-bench: FAIL — lint wall time ${elapsed}s exceeds budget ${budget}s" >&2
  exit 1
fi
