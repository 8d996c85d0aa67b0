#!/usr/bin/env bash
# bench-gate.sh <package> <Benchmark> <benchtime> < budget-table
#
# Runs one Go benchmark and holds its series to the budget table on stdin,
# one "series ratio alloc-budget" row per line ("#" comments and blank
# lines ignored, "-" means unbounded):
#
#   series        sub-benchmark name under <Benchmark>/
#   ratio         bound on the series' ns/op as a multiple of the first
#                 row's ns/op (the healthy baseline)
#   alloc-budget  bound on the series' allocs/op
#
# A series missing from the output fails the gate.
set -euo pipefail
pkg=$1 bench=$2 benchtime=$3

out=$(go test "$pkg" -run '^$' -bench "$bench" -benchtime="$benchtime" | tee /dev/stderr)

# metric <series> <unit>: the figure preceding <unit> on the series' result
# line; the -GOMAXPROCS suffix go test appends to the name is ignored.
metric() {
  echo "$out" | awk -v name="$bench/$1" -v unit="$2" '
    { n = $1; sub(/-[0-9]+$/, "", n) }
    n == name { for (i = 2; i <= NF; i++) if ($i == unit) print $(i-1) }'
}

base="" baseline=""
while read -r series ratio allocs; do
  case $series in '' | '#'*) continue ;; esac
  ns=$(metric "$series" ns/op)
  a=$(metric "$series" allocs/op)
  if [ -z "$ns" ] || [ -z "$a" ]; then
    echo "missing $bench/$series figures (ns/op=$ns allocs/op=$a)"
    exit 1
  fi
  if [ -z "$base" ]; then base=$ns baseline=$series; fi
  echo "$series: $ns ns/op (budget ${ratio}x of $baseline at $base), $a allocs/op (budget $allocs)"
  if [ "$ratio" != - ] && awk -v b="$base" -v n="$ns" -v r="$ratio" 'BEGIN { exit !(n > r * b) }'; then
    echo "$series slower than ${ratio}x the $baseline series"
    exit 1
  fi
  if [ "$allocs" != - ] && [ "$a" -gt "$allocs" ]; then
    echo "$series allocs/op regressed past the $allocs budget"
    exit 1
  fi
done
