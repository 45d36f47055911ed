#!/usr/bin/env bash
# Perf gate for the LP-heavy bench sections, the worker-pool
# throughput section, and two exact-rung sections.
#
# For each gated section: run it twice with --json (one bench process
# runs all sections, twice) and compare the faster run against the
# committed BENCH_5.json baseline — more than the section's budget
# slower fails the gate. When the two fresh runs of a section disagree
# with each other by more than 30% the runner is too noisy to judge
# that section and the gate prints a `skipped:` line instead (same
# convention as the bench's own T1 speedup table). Sections whose
# committed baseline is under the floor (50 ms) are below timer noise
# and are reported informationally, never failed.
#
# Wall time catches constant-factor regressions (a lost fast path, an
# accidental deep copy) that the step counts cannot see.
#
# Fuel, pivot and warm-start counts are gated bit-for-bit: Bland's rule
# over exact rationals and the exact rung's branch-and-bound are
# deterministic, so any drift in a section's `fuel`, `pivots`,
# `warm_accepted` or `warm_rejected` field against the committed
# baseline means a solver took a different path — a semantic change
# that must be reviewed and recommitted deliberately, never absorbed as
# noise.
set -euo pipefail

cd "$(dirname "$0")/.."
BASELINE=BENCH_5.json
BENCH=_build/default/bench/main.exe

# section -> regression budget (T1 forks workers, so it breathes more)
SECTIONS=(E1 E2 E3 E14 E16 A2 A4 A5 E8 T1 S1)
budget_of() { case "$1" in T1) echo 1.3 ;; *) echo 1.2 ;; esac; }
FLOOR=0.05

# Sections whose solver path is deterministic (Bland pivots, or the
# exact rung's search alone for A5 and E8): the fresh `fuel`, `pivots`,
# `warm_accepted` and `warm_rejected` counts must equal the committed
# baseline exactly
EXACT_SECTIONS=(E1 E2 E3 E14 E16 A2 A4 A5 E8 S1)
EXACT_FIELDS=(fuel pivots warm_accepted warm_rejected)

[ -x "$BENCH" ] || { echo "bench_gate: $BENCH missing — run dune build first" >&2; exit 2; }
[ -f "$BASELINE" ] || { echo "bench_gate: committed baseline $BASELINE missing" >&2; exit 2; }

# extract one section's seconds field from a BENCH_5.json-shaped file
seconds_of() {
  sed -n 's/.*"id":"'"$2"'".*"seconds":\([0-9.]*\).*/\1/p' "$1" | head -1
}

# extract one integer field of one section (exact compare)
field_of() {
  sed -n 's/.*"id":"'"$2"'".*"'"$3"'":\([0-9]*\).*/\1/p' "$1" | head -1
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
repo=$PWD

for i in 1 2; do
  (cd "$tmp" && mkdir -p "run$i" && cd "run$i" && "$repo/$BENCH" --json "${SECTIONS[@]}" >/dev/null)
done

fail=0
for sec in "${SECTIONS[@]}"; do
  base=$(seconds_of "$BASELINE" "$sec")
  if [ -z "$base" ]; then
    echo "bench_gate: $sec has no committed baseline in $BASELINE — add one by committing a fresh run" >&2
    fail=1
    continue
  fi
  a=$(seconds_of "$tmp/run1/BENCH_5.json" "$sec")
  b=$(seconds_of "$tmp/run2/BENCH_5.json" "$sec")
  for run in 1 2; do
    grep -q '"id":"'"$sec"'".*"ok":true' "$tmp/run$run/BENCH_5.json" \
      || { echo "bench_gate: $sec failed its own verdict" >&2; exit 1; }
  done
  if [[ " ${EXACT_SECTIONS[*]} " == *" $sec "* ]]; then
    for field in "${EXACT_FIELDS[@]}"; do
      base_v=$(field_of "$BASELINE" "$sec" "$field")
      fresh_v=$(field_of "$tmp/run1/BENCH_5.json" "$sec" "$field")
      if [ -z "$base_v" ] || [ "$fresh_v" != "$base_v" ]; then
        echo "bench_gate: FAIL — $sec $field is $fresh_v against a baseline of $base_v; the" >&2
        echo "            solver path changed — if intentional, recommit $BASELINE" >&2
        fail=1
      else
        echo "bench_gate: OK — $sec $field $fresh_v matches the committed baseline exactly"
      fi
    done
  fi
  fresh=$(awk -v a="$a" -v b="$b" 'BEGIN { print (a < b) ? a : b }')
  small=$(awk -v base="$base" -v floor="$FLOOR" 'BEGIN { print (base < floor) ? 1 : 0 }')
  if [ "$small" -eq 1 ]; then
    echo "bench_gate: $sec baseline ${base}s is under the ${FLOOR}s floor — informational only (fresh ${fresh}s)"
    continue
  fi
  quiet=$(awk -v a="$a" -v b="$b" \
    'BEGIN { lo = (a < b) ? a : b; hi = (a < b) ? b : a; print (hi <= 1.3 * lo) ? 1 : 0 }')
  if [ "$quiet" -ne 1 ]; then
    echo "skipped:  perf gate needs a quiet runner — back-to-back $sec runs took ${a}s and ${b}s (>30% apart), comparison is informational"
    echo "bench_gate: $sec fastest ${fresh}s, committed baseline ${base}s"
    continue
  fi
  budget=$(budget_of "$sec")
  pass=$(awk -v f="$fresh" -v b="$base" -v m="$budget" 'BEGIN { print (f <= m * b) ? 1 : 0 }')
  if [ "$pass" -ne 1 ]; then
    echo "bench_gate: FAIL — $sec took ${fresh}s against a ${base}s baseline (budget ${budget}x)" >&2
    fail=1
  else
    echo "bench_gate: OK — $sec ${fresh}s vs baseline ${base}s (within the ${budget}x budget)"
  fi
done

exit "$fail"
