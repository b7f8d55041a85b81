#!/bin/sh
# Full pre-merge check: tier-1 tests (including the exact work-counter
# proxy), the invariant-audit sweep, sanitizer configurations, and the
# distributed-sweep differential gates.  Run
# from the repository root:
#
#   tools/check.sh [ubsan|asan|tsan|all|faults|distributed|chaos]...
#
# Modes compose: `tools/check.sh ubsan distributed` runs both legs in
# order.  Default: ubsan.
#
#   ubsan|asan|tsan  tier-1 build + full tests + differential suite,
#                    then that sanitizer's smoke subset
#   all              the same, then every sanitizer sequentially (CI)
#   faults           only the fault-containment suite on the tier-1
#                    build (fast loop for DESIGN.md §13 machinery)
#   distributed      coordinator + 3 local workers must merge the quick
#                    config set byte-identically to a single-process
#                    run — over an AF_UNIX socket and again over TCP
#                    loopback — and a shared ckpt_dir fleet must do
#                    exactly one warm-up total (DESIGN.md §17/§18)
#   chaos            the differential with one worker kill -9'd
#                    mid-sweep (lease requeue), then with the
#                    COORDINATOR kill -9'd and restarted on the same
#                    TCP endpoint + journal (crash recovery), then the
#                    in-process randomized chaos harness (test_chaos,
#                    20 seeded coordinator-kill trials); every path
#                    must keep the final JSON byte-identical
#
# On failure the EXIT trap names the leg that failed and its build dir,
# and copies any sweep journals/results from the scratch dir into
# $SCIQ_ARTIFACT_DIR (when set) for post-mortem.
set -eu

[ "$#" -gt 0 ] || set -- ubsan
for mode in "$@"; do
  case "$mode" in
    ubsan|asan|tsan|all|faults|distributed|chaos) ;;
    *) echo "unknown mode '$mode' (want ubsan, asan, tsan, all," \
            "faults, distributed or chaos)" >&2
       exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

leg=""
leg_dir=""
scratch=""
on_exit() {
  rc=$?
  if [ "$rc" -ne 0 ] && [ -n "$scratch" ] &&
     [ -n "${SCIQ_ARTIFACT_DIR:-}" ]; then
    # Failure post-mortem: the journals say exactly which jobs were
    # journaled before a kill and what the merge saw.
    mkdir -p "$SCIQ_ARTIFACT_DIR"
    cp "$scratch"/*.jsonl "$scratch"/*.json "$scratch"/*.masked \
       "$SCIQ_ARTIFACT_DIR"/ 2>/dev/null || true
    echo "sweep journals/results copied to $SCIQ_ARTIFACT_DIR" >&2
  fi
  if [ -n "$scratch" ]; then
    rm -rf "$scratch"
  fi
  if [ "$rc" -ne 0 ] && [ -n "$leg" ]; then
    echo "FAILED leg: $leg (build dir: $leg_dir)" >&2
  fi
}
trap on_exit EXIT

begin_leg() {
  leg="$1"
  leg_dir="$2"
  echo "== $leg =="
}

tier1_built=""
tier1_build() {
  if [ -z "$tier1_built" ]; then
    begin_leg "tier-1 build" build
    cmake -B build -S . >/dev/null
    cmake --build build -j "$jobs"
    tier1_built=1
  fi
}

# Tier-1 tests plus the single-process differential suite; the
# precondition for every sanitizer leg, run at most once.
tier1_tested=""
tier1_full() {
  tier1_build
  if [ -n "$tier1_tested" ]; then
    return 0
  fi
  tier1_tested=1

  begin_leg "tier-1 full test suite" build
  ctest --test-dir build --output-on-failure -j "$jobs"

  begin_leg "audit sweep (all workloads, segmented + ideal, audit=1)" build
  ./build/tests/test_audit

  begin_leg "scheduling-index differential sweep (audit=1)" build
  ./build/tests/test_sched_index

  begin_leg "segmented-tick substage profile (quick)" build
  ./build/bench/micro_components \
      --benchmark_filter='BM_SegmentedTickSubstages' \
      --benchmark_min_time=0.01 json_out=/tmp/sciq-substages.json
  grep -q '"bench": "micro_components.substages"' /tmp/sciq-substages.json

  begin_leg "host-throughput bench (quick)" build
  ./build/bench/bench_throughput quick=1 workloads=swim,twolf

  begin_leg "bb-cache differential + warming bench (quick)" build
  ./build/tests/test_bb_cache
  ./build/bench/micro_warm quick=1 workloads=swim,twolf
}

# One sanitizer configuration: configure + build under build-<name>,
# then run the fast sanitize_smoke test subset.  TSAN additionally runs
# the full parallel-sweep suite: determinism across worker counts is
# exactly what a data race would break.
run_sanitizer() {
  name="$1"
  flag="$2"
  begin_leg "sanitizer smoke ($name)" "build-$name"
  cmake -B "build-$name" -S . "$flag" >/dev/null
  cmake --build "build-$name" -j "$jobs"
  ctest --test-dir "build-$name" --output-on-failure -j "$jobs" \
        -L sanitize_smoke
  if [ "$name" = tsan ]; then
    begin_leg "tsan: parallel sweep + checkpoint reuse" "build-$name"
    "./build-$name/tests/test_sweep"
    "./build-$name/tests/test_checkpoint" \
        --gtest_filter='CheckpointCacheTest.*:CheckpointEndToEnd.*'
  fi
}

# The wall-clock-only fields two otherwise identical runs legitimately
# disagree on; everything else must match to the byte.
wallclock_mask='"host_seconds"|"host_kcycles_per_sec"|"host_kinsts_per_sec"|"warm_seconds"|"warm_insts_per_sec"'

masked() {
  grep -Ev "$wallclock_mask" "$1"
}

distributed_reference() {
  ./build/examples/sweep_serve mode=local jobs=4 preset=quick \
      out="$scratch/ref.json" >/dev/null
}

compare_masked() {
  masked "$scratch/ref.json" > "$scratch/ref.masked"
  masked "$1" > "$scratch/got.masked"
  diff -u "$scratch/ref.masked" "$scratch/got.masked"
  echo "final JSON is byte-identical to the single-process run"
}

leg_faults() {
  tier1_build
  begin_leg "fault-containment suite (taxonomy, watchdog, injection, journal)" \
            build
  ./build/tests/test_errors
  ./build/tests/test_faults
  ./build/tests/test_journal
  ./build/tests/test_sweep
}

leg_distributed() {
  tier1_build
  begin_leg "distributed sweep differential (coordinator + 3 workers)" build
  scratch="$(mktemp -d)"
  distributed_reference
  tools/sweep_local.sh -b build -w 3 -- \
      "socket=$scratch/sweep.sock" workers=3 preset=quick \
      "out=$scratch/dist.json" "journal=$scratch/dist.jsonl"
  compare_masked "$scratch/dist.json"

  begin_leg "distributed sweep differential (TCP loopback)" build
  port=$(( 21000 + ($$ % 10000) ))
  tools/sweep_local.sh -b build -w 3 -- \
      "listen=127.0.0.1:$port" workers=3 preset=quick \
      "out=$scratch/tcp.json" "journal=$scratch/tcp.jsonl"
  compare_masked "$scratch/tcp.json"

  begin_leg "distributed warm-up sharing (one warm-up per fleet)" build
  mkdir "$scratch/ckpt"
  tools/sweep_local.sh -b build -w 2 -d "$scratch/ckpt" -- \
      "socket=$scratch/warm.sock" workers=2 preset=quick \
      workloads=swim ff=50000 "out=$scratch/warm.json"
  restored="$(grep -c '"ckpt_restored": true' "$scratch/warm.json")"
  blobs="$(find "$scratch/ckpt" -name '*.sciqckpt' | wc -l)"
  if [ "$restored" -ne 2 ] || [ "$blobs" -ne 1 ]; then
    echo "warm sharing broke: $restored restored jobs (want 2)," \
         "$blobs blobs (want 1)" >&2
    exit 1
  fi
  echo "fleet of 2 workers did one warm-up: 1 blob, 2 restored jobs"
  rm -rf "$scratch"
  scratch=""
}

leg_chaos() {
  tier1_build
  begin_leg "worker-chaos differential (kill -9 one of 3 workers)" build
  scratch="$(mktemp -d)"
  distributed_reference
  tools/sweep_local.sh -b build -w 3 -k 2 -- \
      "socket=$scratch/sweep.sock" workers=3 preset=quick \
      "out=$scratch/dist.json" "journal=$scratch/dist.jsonl"
  compare_masked "$scratch/dist.json"

  begin_leg "coordinator-chaos differential (kill -9 + restart, TCP)" build
  # SIGKILL the coordinator after its journal shows fsync'd progress,
  # restart it on the same endpoint + journal: the workers reconnect,
  # redeliver their unacked results, and the merge must not notice.
  port=$(( 31000 + ($$ % 10000) ))
  tools/sweep_local.sh -b build -w 3 -K -- \
      "listen=127.0.0.1:$port" workers=3 preset=quick \
      "out=$scratch/coord.json" "journal=$scratch/coord.jsonl"
  compare_masked "$scratch/coord.json"

  begin_leg "randomized chaos harness (in-process seeded trials)" build
  ./build/tests/test_chaos

  rm -rf "$scratch"
  scratch=""
}

for mode in "$@"; do
  case "$mode" in
    ubsan)
      tier1_full
      run_sanitizer ubsan -DSCIQ_UBSAN=ON ;;
    asan)
      tier1_full
      run_sanitizer asan -DSCIQ_ASAN=ON ;;
    tsan)
      tier1_full
      run_sanitizer tsan -DSCIQ_TSAN=ON ;;
    all)
      tier1_full
      run_sanitizer ubsan -DSCIQ_UBSAN=ON
      run_sanitizer asan -DSCIQ_ASAN=ON
      run_sanitizer tsan -DSCIQ_TSAN=ON ;;
    faults) leg_faults ;;
    distributed) leg_distributed ;;
    chaos) leg_chaos ;;
  esac
done

# Lint the shell tooling when shellcheck is available (CI always has
# it; skip with a notice on bare development machines).
leg="shellcheck"
leg_dir="tools"
if command -v shellcheck >/dev/null 2>&1; then
  echo "== shellcheck tools/*.sh =="
  shellcheck tools/*.sh
else
  echo "== shellcheck not installed; skipping shell lint =="
fi

leg=""
echo "== all checks passed =="
