#!/usr/bin/env bash
# CI gate: vet, build, race-enabled tests, and a fuzz smoke pass.
#
# The race-enabled test run doubles as the determinism-equivalence gate:
# internal/auction/paralleltest replays randomized blocks sequentially
# and at workers ∈ {2, 4, GOMAXPROCS} and fails on any byte divergence,
# so a scheduling leak into the allocation cannot land green.
#
# Usage: scripts/ci.sh [fuzztime]   (default fuzz smoke: 10s per target)
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${1:-10s}"

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> go test -race"
go test -race ./...

echo "==> chaos smoke (-race, fresh run, small schedule sweep)"
DECLOUD_CHAOS_SCHEDULES=8 go test -race -count=1 \
  -run 'Chaos|CloseUnderLoad|Byzantine|CrashRestart|RevealRetry' \
  ./internal/miner ./internal/p2p

echo "==> coverage gate (protocol + toolkit packages)"
# Protocol-critical packages must not regress below 75% (both sit near
# 86% today; the gate catches untested new surface, not noise). The
# self-contained toolkit packages — stats, audit, obs — hold a higher
# 80% bar: they have no concurrency or I/O excuses.
check_cov() { # pkg floor
  local pkg="$1" floor="$2" pct ok
  pct=$(go test -cover "./${pkg}" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*')
  ok=$(awk -v p="${pct:-0}" -v f="${floor}" 'BEGIN { print (p >= f) ? 1 : 0 }')
  if [ "${ok}" != "1" ]; then
    echo "coverage gate FAILED: ${pkg} at ${pct:-?}% (< ${floor}%)" >&2
    exit 1
  fi
  echo "    ${pkg}: ${pct}% (gate ${floor}%)"
}
for pkg in internal/miner internal/p2p; do check_cov "${pkg}" 75.0; done
for pkg in internal/stats internal/audit internal/obs internal/shard \
           internal/devnet internal/loadgen internal/book; do check_cov "${pkg}" 80.0; done
# A package whose differential harness lives in a subpackage (metrotest,
# futurestest) is really covered by the UNION of both test binaries —
# measured through one merged coverprofile instead of the single-binary
# -cover number.
check_union_cov() { # coverpkgs test-pkgs floor
  local coverpkgs="$1" testpkgs="$2" floor="$3" prof pct ok
  prof=$(mktemp)
  # shellcheck disable=SC2086  # testpkgs is a space-separated list
  go test -coverpkg="${coverpkgs}" -coverprofile="${prof}" ${testpkgs} >/dev/null
  pct=$(go tool cover -func="${prof}" | awk '/^total:/ {gsub(/%/,"",$3); print $3}')
  rm -f "${prof}"
  ok=$(awk -v p="${pct:-0}" -v f="${floor}" 'BEGIN { print (p >= f) ? 1 : 0 }')
  if [ "${ok}" != "1" ]; then
    echo "coverage gate FAILED: ${coverpkgs} (union) at ${pct:-?}% (< ${floor}%)" >&2
    exit 1
  fi
  echo "    ${coverpkgs} (union over ${testpkgs}): ${pct}% (gate ${floor}%)"
}
# internal/geo (the homing primitives metro re-exports) is gated in the
# metro profile.
check_union_cov ./internal/geo,./internal/metro "./internal/metro/... ./internal/workload" 80.0
check_union_cov ./internal/futures "./internal/futures/..." 80.0

echo "==> non-test Go lines (tracked; ROADMAP item 2 wants them down)"
# Every non-_test.go line outside benchmark/, and the share carried by
# the four packages that hold the round loops.
count_lines() { # dir...
  find "$@" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
}
echo "    total outside benchmark/:   $(count_lines .)"
echo "    sim + miner + p2p + devnet: $(count_lines internal/sim internal/miner internal/p2p internal/devnet)"

echo "==> bench gate (hard: allocs ±5%, ns ±30%, book/mechanism ratio ≤0.5)"
# The mechanism microbenchmarks are compared against the committed
# BENCH_PR10.json baseline and FAIL the build on regression. Even with
# time-based sampling (-benchtime 1s, so every sample spans many
# scheduler/steal periods) and min-of-N (-count=4; benchjson keeps the
# fastest run per name), min-of-N ns/op on this class of shared runner
# drifts 10–20% ACROSS invocations — co-tenant load shifts between the
# baseline recording and the CI run. So the gate splits by statistic:
#   - allocs/op ±5% (the tight gate): allocations are a property of the
#     code alone — bit-identical across runs here — and every real
#     regression this repo has caught (map churn, prepass rebuilds,
#     accidental full re-clears) showed up in allocs first.
#   - ns/op ±30% (the backstop): catches order-of-magnitude blowups
#     that somehow keep the allocation profile flat (e.g. quadratic
#     scans over preallocated state).
#   - -require-ratio BookIncremental1000/Mechanism1000 <= 0.5: the
#     continuous-market acceptance (incremental clear ≥2× faster than
#     the from-scratch oracle; measures ~3.5×) compared WITHIN one run,
#     which cancels machine drift entirely and is therefore hard-gated
#     at full strength.
# Gated set: Mechanism400/1000, BookIncremental1000, Sharded1000
# K∈{1,4} (K4 under -cpu 4, matching how scripts/bench.sh records it),
# and the indexed order-book scan. Noisier micro points (Mechanism100,
# BestOffersNaive/Indexed) are recorded in BENCH_PR10.json by
# scripts/bench.sh but not gated; ditto the slow load-frontier points,
# absent from this run. Refresh the baseline with scripts/bench.sh
# after intentional changes.
if [ -f BENCH_PR10.json ]; then
  { go test -run '^$' -bench 'BenchmarkMechanism400$|BenchmarkMechanism1000$|BenchmarkBookIncremental1000$|BenchmarkMechanismSharded1000K1$|BenchmarkBestOffersIndexedScan$' \
      -benchtime 1s -count=4 -benchmem . ./internal/match 2>/dev/null; \
    go test -run '^$' -bench 'BenchmarkMechanismSharded1000K4$' -cpu 4 \
      -benchtime 1s -count=4 -benchmem . 2>/dev/null; } \
    | go run ./cmd/benchjson -baseline BENCH_PR10.json -gate 30 -gate-allocs 5 \
        -require-ratio 'BenchmarkBookIncremental1000/BenchmarkMechanism1000<=0.5' \
        -out /tmp/bench_ci.json
else
  echo "    no BENCH_PR10.json baseline; skipping"
fi

echo "==> devnet smoke (multi-process, time-boxed)"
# A small real-process devnet — 2 miner + 4 participant OS processes with
# churn, a partition window, and a crash-restart — must converge to
# byte-identical chains and pass the conservation audit. The full 3×8
# soak (TestSoak3x8) already ran under -race in the test phase; this
# drives the standalone orchestrator binary end to end. It runs in
# incremental mode: the miners clear over the persistent order book and
# carry unmatched orders across blocks through one full churn window,
# so the continuous market survives real process faults, not just unit
# tests.
timeout 300 go run ./cmd/decloud-devnet \
  -miners 2 -participants 4 -seed 3 -rate 8 -soak 6s -converge 150s \
  -incremental \
  -out /tmp/devnet_ci.json

echo "==> observability smoke (sim + /metrics scrape)"
# Boot a short simulation with the obs endpoint on an ephemeral port,
# scrape /metrics once, and validate the Prometheus exposition with the
# strict parser in internal/obs/obstest. The -obs-linger window keeps
# the endpoint alive after the run so the scrape cannot race shutdown.
OBS_LOG=$(mktemp)
go run ./cmd/decloud-sim -rounds 2 -requests 10 -seed 7 \
  -obs-addr 127.0.0.1:0 -obs-linger 10s >"${OBS_LOG}" 2>&1 &
SIM_PID=$!
OBS_URL=""
for _ in $(seq 1 100); do
  OBS_URL=$(grep -o 'http://[0-9.:]*/metrics' "${OBS_LOG}" | head -1 || true)
  [ -n "${OBS_URL}" ] && break
  sleep 0.1
done
if [ -z "${OBS_URL}" ]; then
  echo "obs smoke FAILED: no metrics banner in sim output" >&2
  cat "${OBS_LOG}" >&2
  kill "${SIM_PID}" 2>/dev/null || true
  exit 1
fi
go run ./cmd/obscheck -url "${OBS_URL}" -timeout 10s \
  -expect decloud_sim_rounds_total,decloud_mech_blocks_total
kill "${SIM_PID}" 2>/dev/null || true
wait "${SIM_PID}" 2>/dev/null || true
rm -f "${OBS_LOG}"

echo "==> fuzz smoke (${FUZZTIME} per target)"
go test -run='^$' -fuzz=FuzzDecodeBid -fuzztime="${FUZZTIME}" ./internal/bidding
go test -run='^$' -fuzz=FuzzSealedRoundTrip -fuzztime="${FUZZTIME}" ./internal/sealed
# Anchored: the shard package has two Fuzz targets sharing this prefix.
go test -run='^$' -fuzz='^FuzzShardPartition$' -fuzztime="${FUZZTIME}" ./internal/shard
# Anchored: the book's mutation-trace fuzzer replays every input against
# the rebuild-from-scratch oracle and fails on any byte divergence.
go test -run='^$' -fuzz='^FuzzBookMutations$' -fuzztime="${FUZZTIME}" ./internal/book
# Anchored: the metro homing fuzzer checks total coverage, determinism,
# and cell-boundary stability of the geography→exchange map.
go test -run='^$' -fuzz='^FuzzMetroHoming$' -fuzztime="${FUZZTIME}" ./internal/metro
# Anchored: the futures lifecycle fuzzer drives arbitrary reserve/
# deliver/default/cancel sequences, audits conservation after every op,
# and replays the log against a rebuild-from-scratch oracle.
go test -run='^$' -fuzz='^FuzzReservationLifecycle$' -fuzztime="${FUZZTIME}" ./internal/futures

echo "==> ci.sh: all green"
