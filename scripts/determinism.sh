#!/usr/bin/env bash
# Determinism gates for califorms-bench, shared by CI and developers.
#
# The harness's output contract is byte-determinism: the same
# invocation must emit identical bytes at any worker count, and with,
# without, or half-way through a content-addressed result store. This
# script checks both, case by case:
#
#   worker cases — each experiment below runs at 1 and 8 workers in
#   every listed format and the outputs are diffed byte-for-byte. The
#   cases cover the engine's distinct paths: fig3 (analytic), fig11
#   (single-core sweep), mix2 (multicore replay), sens-machine
#   (cross-machine fan-out), ablations (shared-stream fan-out of
#   declared points).
#
#   store case — fig11+mix2 run storeless, cold into an empty store,
#   and warm out of it; all three outputs must match byte-for-byte
#   (the store may change cost, never content).
#
#   kill/resume case — a journaled sweep is SIGTERM'd after its first
#   completed cell (the -kill-after crash hook), which must exit 3
#   with the report suppressed; resuming from the journal must emit
#   bytes identical to an uninterrupted reference run.
#
# Usage: scripts/determinism.sh
#   BENCH=/path/to/califorms-bench  reuse a prebuilt driver (else one
#                                   is built into the work directory)
#   OUT=/path/to/workdir            scratch directory (default under
#                                   TMPDIR)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-${TMPDIR:-/tmp}/califorms-determinism}"
mkdir -p "$OUT"
if [ -z "${BENCH:-}" ]; then
  BENCH="$OUT/califorms-bench"
  echo "== building $BENCH"
  go build -o "$BENCH" ./cmd/califorms-bench
fi

# Worker cases: "experiments|visits|seeds|formats".
CASES=(
  'fig3|500|1|text markdown'
  'fig11|200|2|text json csv markdown'
  'mix2|200|2|text json csv'
  'sens-machine|200|2|text json csv'
  'ablations|200|1|text json'
)

for case in "${CASES[@]}"; do
  IFS='|' read -r exp visits seeds formats <<<"$case"
  for fmt in $formats; do
    echo "== worker determinism: -exp $exp -format $fmt (1 vs 8 workers)"
    "$BENCH" -exp "$exp" -visits "$visits" -seeds "$seeds" -workers 1 -format "$fmt" \
      >"$OUT/$exp-w1.$fmt" 2>/dev/null
    "$BENCH" -exp "$exp" -visits "$visits" -seeds "$seeds" -workers 8 -format "$fmt" \
      >"$OUT/$exp-w8.$fmt" 2>/dev/null
    diff -u "$OUT/$exp-w1.$fmt" "$OUT/$exp-w8.$fmt"
  done
done

# Store case: storeless vs cold-store vs warm-store, byte-for-byte.
STORE_EXP='fig11,mix2'
STORE_DIR="$OUT/store"
rm -rf "$STORE_DIR"
echo "== store determinism: -exp $STORE_EXP (storeless vs cold vs warm)"
"$BENCH" -exp "$STORE_EXP" -visits 200 -seeds 2 -workers 8 -format json \
  >"$OUT/store-off.json" 2>/dev/null
"$BENCH" -exp "$STORE_EXP" -visits 200 -seeds 2 -workers 8 -format json \
  -store "$STORE_DIR" >"$OUT/store-cold.json" 2>/dev/null
"$BENCH" -exp "$STORE_EXP" -visits 200 -seeds 2 -workers 8 -format json \
  -store "$STORE_DIR" >"$OUT/store-warm.json" 2>/dev/null
diff -u "$OUT/store-off.json" "$OUT/store-cold.json"
diff -u "$OUT/store-cold.json" "$OUT/store-warm.json"

# Kill/resume case: SIGTERM after the first journaled cell, then resume.
KR_EXP='fig11'
JOURNAL="$OUT/sweep.journal"
rm -f "$JOURNAL"
echo "== kill/resume determinism: -exp $KR_EXP (-kill-after 1, then -resume)"
"$BENCH" -exp "$KR_EXP" -visits 200 -seeds 2 -workers 8 -format json \
  >"$OUT/kr-ref.json" 2>/dev/null
rc=0
"$BENCH" -exp "$KR_EXP" -visits 200 -seeds 2 -workers 8 -format json \
  -journal "$JOURNAL" -kill-after 1 >"$OUT/kr-killed.json" 2>/dev/null || rc=$?
if [ "$rc" != 3 ]; then
  echo "kill/resume: killed run exited $rc, want 3 (partial, resumable)" >&2
  exit 1
fi
if [ -s "$OUT/kr-killed.json" ]; then
  echo "kill/resume: killed run emitted a partial report" >&2
  exit 1
fi
"$BENCH" -exp "$KR_EXP" -visits 200 -seeds 2 -workers 8 -format json \
  -journal "$JOURNAL" -resume >"$OUT/kr-resumed.json" 2>/dev/null
diff -u "$OUT/kr-ref.json" "$OUT/kr-resumed.json"

echo "determinism: all cases byte-identical"
