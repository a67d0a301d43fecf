#!/usr/bin/env bash
# The repo's benchmark is `go run ./benchmark` (BENCHMARK.json,
# benchmark/README.md). This wrapper runs its agreement check — two full
# sets of runs compared with the benchmark's own bounds — and then
# prints plain `go test -bench` text for the one market shape no
# workload covers yet: the 4-metro federated round.
#
# Usage: scripts/bench.sh [seed] [runs-per-workload]   (see benchmark/run.sh)
set -euo pipefail
cd "$(dirname "$0")/.."

benchmark/run.sh "$@"

echo "==> shapes outside the benchmark (text only, nothing recorded)"
go test -run '^$' -bench 'BenchmarkMetroFederated1000M4$' \
  -benchtime 1s -count=3 -benchmem ./internal/metro
