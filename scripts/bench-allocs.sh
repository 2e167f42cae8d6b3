#!/usr/bin/env sh
# bench-allocs.sh — the allocation budget gate.
#
# Usage: scripts/bench-allocs.sh
#
# Runs each benchmark row below with -benchmem and fails when its allocs/op
# exceeds the row's budget. Unlike wall time, allocation counts are nearly
# machine-independent (they vary only slightly with worker scheduling), so
# this gate needs no calibration: it directly catches a change that
# reintroduces per-successor heap traffic. Rows (package, benchmark, budget):
#
#   .             BenchmarkVerifyParallel/peterson/j=8   1200000
#       The simplified-semantics fixpoint (see DESIGN "State
#       representation"). Budget ~1.5x the measured steady state
#       (~0.78M allocs/op) and ~1/4 of the pre-overhaul cost (5.17M).
#
#   ./internal/ra BenchmarkConcreteReplay/barrier-n4     155000
#       The concrete RA explorer on the prepass's heaviest replay instance
#       (barrier, four env threads, symmetry on, one worker; see DESIGN
#       "Concrete explorer state representation"). Budget ~1.5x the
#       measured steady state (~0.10M allocs/op); cloning every successor
#       again, as the explorer once did, costs 2.28M.
set -eu

ROWS='
.             BenchmarkVerifyParallel/peterson/j=8 1200000
./internal/ra BenchmarkConcreteReplay/barrier-n4   155000
'

FAILED=0
while read -r PKG BENCH BUDGET; do
  [ -n "${PKG:-}" ] || continue
  echo "bench-allocs: running $BENCH in $PKG (budget $BUDGET allocs/op)"
  OUT="$(go test -run '^$' -bench "$BENCH" -benchtime 2x -benchmem "$PKG")"
  printf '%s\n' "$OUT"

  ALLOCS="$(printf '%s\n' "$OUT" | awk -v b="${BENCH%%/*}/" 'index($1, b) == 1 {
    for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i-1)
  }' | head -n 1)"
  if [ -z "$ALLOCS" ]; then
    echo "bench-allocs: no allocs/op figure for $BENCH in benchmark output" >&2
    exit 2
  fi
  if [ "$ALLOCS" -gt "$BUDGET" ]; then
    echo "bench-allocs: FAIL — $BENCH: $ALLOCS allocs/op exceeds budget $BUDGET" >&2
    FAILED=1
  else
    echo "bench-allocs: PASS — $BENCH: $ALLOCS allocs/op within budget $BUDGET"
  fi
done <<EOF
$ROWS
EOF
exit "$FAILED"
