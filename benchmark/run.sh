#!/usr/bin/env bash
# Agreement check: two full sets of runs of the same code, back to back,
# compared with the benchmark's own bounds. Every (workload, end-to-end
# metric) must come out "ok": "regressed" means the two sets of the SAME
# code differ by more than the bound, "unresolved" that the run-to-run
# spread is wider than the bound — either way the bound (or the run
# length) is wrong, not the code.
#
# Usage: benchmark/run.sh [seed] [runs-per-workload]
#   benchmark/run.sh        # seed 1, 5 runs per workload and set (~18 min)
#   benchmark/run.sh 2      # the same on other inputs
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${1:-1}"
RUNS="${2:-5}"
OUT=benchmark/out
mkdir -p "$OUT"

go build -o "$OUT/benchmark.bin" ./benchmark
for set in a b; do
  echo "==> set $set: all workloads, seeds $SEED..$((SEED + RUNS - 1))"
  if ! "$OUT/benchmark.bin" -workload all -seed "$SEED" -runs "$RUNS" \
      -out "$OUT/set_$set.json" >"$OUT/set_$set.log"; then
    echo "set $set failed a check or was invalid — see $OUT/set_$set.log" >&2
    exit 1
  fi
done
"$OUT/benchmark.bin" -compare "$OUT/set_a.json" "$OUT/set_b.json"
