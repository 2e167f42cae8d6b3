#!/usr/bin/env sh
# bench-allocs.sh — the allocation budget gate.
#
# Usage: scripts/bench-allocs.sh
#
# Runs each benchmark row below with -benchmem and fails when its allocs/op
# exceeds the row's allocs budget, or its B/op exceeds the row's optional
# bytes budget. Unlike wall time, allocation counts and bytes are nearly
# machine-independent (they vary only slightly with worker scheduling), so
# this gate needs no calibration: the allocs budget catches a change that
# reintroduces per-successor heap objects, the bytes budget one that makes
# them bigger (a wider state struct, values copied where pointers were
# shared). Rows (package, benchmark, allocs/op budget, B/op budget; a row
# without the fourth column has no bytes budget):
#
#   .             BenchmarkVerifyParallel/peterson/j=8   1200000  80000000
#       The simplified-semantics fixpoint (see DESIGN "State
#       representation"). Allocs budget ~1.5x the measured ~0.78M
#       allocs/op of the allocation-free core (now ~0.68M) and ~1/4 of the
#       pre-overhaul cost (5.17M). Bytes budget 80 MB/op: measured ~62 MB
#       with the arena visited set, shared dis messages and recycled state
#       structs, against ~124 MB without them.
#
#   ./internal/ra BenchmarkConcreteReplay/barrier-n4     155000   37000000
#       The concrete RA explorer on the prepass's heaviest replay instance
#       (barrier, four env threads, symmetry on, one worker; see DESIGN
#       "Concrete explorer state representation"). Budgets ~1.5x the
#       measured steady state (~0.10M allocs/op, ~24.5 MB/op); cloning
#       every successor again, as the explorer once did, costs 2.28M
#       allocs/op.
#
#   .             BenchmarkVerifyDefault/barrier         10000    1800000
#       Verify with the prepass on, one worker, on barrier: the bounded
#       prepass schedule's capped replay round and bounded fixpoint (see
#       DESIGN "Prepass schedule"). Budgets ~1.5x the measured ~8.0k
#       allocs/op and ~1.2 MB/op; replaying every rung exhaustively before
#       the fixpoint, as the default pipeline once did, costs ~120k
#       allocs/op, so the row also catches a return to exhaustive replays.
set -eu

ROWS='
.             BenchmarkVerifyParallel/peterson/j=8 1200000 80000000
./internal/ra BenchmarkConcreteReplay/barrier-n4   155000  37000000
.             BenchmarkVerifyDefault/barrier       10000   1800000
'

FAILED=0
while read -r PKG BENCH BUDGET BYTES_BUDGET; do
  [ -n "${PKG:-}" ] || continue
  echo "bench-allocs: running $BENCH in $PKG (budget $BUDGET allocs/op${BYTES_BUDGET:+, $BYTES_BUDGET B/op})"
  OUT="$(go test -run '^$' -bench "$BENCH" -benchtime 2x -benchmem "$PKG")"
  printf '%s\n' "$OUT"

  # figure UNIT prints the number before UNIT on the benchmark's result line.
  figure() {
    printf '%s\n' "$OUT" | awk -v b="${BENCH%%/*}/" -v u="$1" 'index($1, b) == 1 {
      for (i = 1; i <= NF; i++) if ($i == u) print $(i-1)
    }' | head -n 1
  }
  ALLOCS="$(figure allocs/op)"
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

  [ -n "${BYTES_BUDGET:-}" ] || continue
  BYTES="$(figure B/op)"
  if [ -z "$BYTES" ]; then
    echo "bench-allocs: no B/op figure for $BENCH in benchmark output" >&2
    exit 2
  fi
  if [ "$BYTES" -gt "$BYTES_BUDGET" ]; then
    echo "bench-allocs: FAIL — $BENCH: $BYTES B/op exceeds budget $BYTES_BUDGET" >&2
    FAILED=1
  else
    echo "bench-allocs: PASS — $BENCH: $BYTES B/op within budget $BYTES_BUDGET"
  fi
done <<EOF
$ROWS
EOF
exit "$FAILED"
