#!/bin/sh
# Non-test Go lines per package directory and in total, outside the nested
# benchmark module (benchmark/) and the linter's known-bad corpus
# (internal/lint/testdata/). These are the line counts EXPERIMENTS.md quotes.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './internal/lint/testdata/*' |
	xargs wc -l | awk '
	$2 == "total" { next }
	{ dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir); if (dir == "") dir = "."
	  lines[dir] += $1; total += $1 }
	END {
		for (d in lines) printf "%7d %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d total\n", total
	}'
