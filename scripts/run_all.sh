#!/usr/bin/env bash
# Regenerates every figure (`sos_campaign run all`) and stores CSVs + full
# text output under results/.
#
#   scripts/run_all.sh [build-dir] [results-dir] [extra sweep flags...]
#
# Example: scripts/run_all.sh build results --mc-trials=60
#
# The suite's campaign store is $results_dir/.campaign; without --resume it
# is removed first, so the suite computes cold. Pass --resume (anywhere in
# the extra flags) to keep it: results are checkpointed per figure, so an
# interrupted suite picks up where it left off and an unchanged rerun is
# served entirely from the warm cache. The final $results_dir/*.{csv,txt}
# files are byte-identical either way.
#
# Pass --supervised to additionally route that campaign through the
# loopback worker pool: each figure computes in a forked worker process,
# worker crashes/hangs are retried and, past the retry budget,
# quarantined — so one poisoned figure degrades the suite instead of
# killing it. Implies --resume. The script fails (exit 3) if the run
# completes degraded.
#
# Pass --chaos-tests=DIR to run the chaos harness (`ctest -L chaos`) from
# build tree DIR before the figure sweep — the worker pool's own
# fault-injection suite.
#
# Pass --asan-build=DIR (anywhere in the extra flags) to additionally run
# the ASan-labelled fault-subsystem tests from an address-sanitized build
# tree (cmake -B DIR -DSOS_SANITIZE=address && cmake --build DIR) via
# `ctest -L asan` before the figure sweep.
#
# Pass --scale to run the million-node substrate pass: the scale-smoke
# acceptance tests (`ctest -L scale-smoke`: N=1e6 end-to-end trial,
# dirty-vs-full reset identity, memory budget) followed by the
# bench/perf_macro BM_Scale* macrobenches (steady-state vs forced-full-reset
# vs cold trials at N up to 1e7, the BENCH_scale.json workload).
#
# Pass --sampling to run the rare-event estimator pass: the sampling-smoke
# acceptance tests (`ctest -L sampling-smoke`: trials=auto campaigns through
# every estimator, checkpoint/crash/resume byte identity, supervised parity)
# followed by the bench/perf_micro BM_Sampling* microbenches (naive /
# sequential / stratified at a matched CI target, the BENCH_sampling.json
# workload).
#
# Pass --distributed to run the distributed-execution pass: the
# distributed-smoke acceptance tests (`ctest -L distributed-smoke`: TCP
# worker registration, heartbeat eviction, network chaos, cross-executor
# store bit-identity) followed by the bench/perf_micro BM_Distributed*
# microbenches (coordinator throughput over loopback TCP workers, the
# BENCH_distributed.json workload).
#
# Pass --optimize to run the design-space optimizer pass: the
# optimize-smoke acceptance tests (`ctest -L optimize-smoke`: frontier
# search, campaign-routed winner validation with warm-cache reruns,
# supervised quarantine) followed by the bench/perf_micro BM_Optimizer*
# microbenches (batched design scoring throughput and cold-vs-warm
# frontier runs, the BENCH_optimizer.json workload).
#
# Pass --fsck to run the store-integrity pass: the integrity-smoke
# acceptance tests (`ctest -L integrity-smoke`: checksummed containers,
# fsck scan/quarantine/heal, coordinator crash-recovery, authenticated
# transport) followed by the bench/perf_micro BM_Integrity* microbenches
# (sealed-transport campaign throughput, the BENCH_integrity.json
# workload); the suite store is additionally fscked after the figure sweep
# so at-rest corruption fails the script (exit 3).
set -euo pipefail

build_dir="${1:-build}"
results_dir="${2:-results}"
shift $(( $# >= 2 ? 2 : $# )) || true

asan_build=""
chaos_tests=""
resume=0
supervised=0
scale=0
sampling=0
distributed=0
optimize=0
fsck=0
filtered=()
for arg in "$@"; do
  case "$arg" in
    --asan-build=*) asan_build="${arg#--asan-build=}" ;;
    --chaos-tests=*) chaos_tests="${arg#--chaos-tests=}" ;;
    --resume) resume=1 ;;
    --supervised) supervised=1; resume=1 ;;
    --scale) scale=1 ;;
    --sampling) sampling=1 ;;
    --distributed) distributed=1 ;;
    --optimize) optimize=1 ;;
    --fsck) fsck=1 ;;
    *) filtered+=("$arg") ;;
  esac
done
set -- ${filtered+"${filtered[@]}"}

if [[ -n "$asan_build" ]]; then
  echo "== asan-labelled fault tests ($asan_build)"
  ctest --test-dir "$asan_build" -L asan --output-on-failure
fi

if [[ -n "$chaos_tests" ]]; then
  echo "== chaos harness ($chaos_tests)"
  ctest --test-dir "$chaos_tests" -L chaos --output-on-failure
fi

campaign_cli="$build_dir/tools/sos_campaign"
if [[ ! -x "$campaign_cli" ]]; then
  echo "error: $campaign_cli not found; build first:" >&2
  echo "  cmake -B $build_dir && cmake --build $build_dir" >&2
  exit 1
fi

mkdir -p "$results_dir"

run_perf_micro() {
  local bench="$build_dir/bench/perf_micro"
  [[ -x "$bench" ]] || return 0
  echo "== perf_micro"
  "$bench" "$@" | tee "$results_dir/perf_micro.txt" >/dev/null || true
}

if [[ "$scale" == 1 ]]; then
  echo "== scale-smoke acceptance tests ($build_dir)"
  ctest --test-dir "$build_dir" -L scale-smoke --output-on-failure
  macro="$build_dir/bench/perf_macro"
  if [[ -x "$macro" ]]; then
    echo "== perf_macro (BM_Scale*)"
    "$macro" --benchmark_filter='BM_Scale' \
      | tee "$results_dir/perf_macro.txt" >/dev/null || true
  fi
fi

if [[ "$sampling" == 1 ]]; then
  echo "== sampling-smoke acceptance tests ($build_dir)"
  ctest --test-dir "$build_dir" -L sampling-smoke --output-on-failure
  micro="$build_dir/bench/perf_micro"
  if [[ -x "$micro" ]]; then
    echo "== perf_micro (BM_Sampling*)"
    "$micro" --benchmark_filter='BM_Sampling' \
      | tee "$results_dir/perf_sampling.txt" >/dev/null || true
  fi
fi

if [[ "$distributed" == 1 ]]; then
  echo "== distributed-smoke acceptance tests ($build_dir)"
  ctest --test-dir "$build_dir" -L distributed-smoke --output-on-failure
  micro="$build_dir/bench/perf_micro"
  if [[ -x "$micro" ]]; then
    echo "== perf_micro (BM_Distributed*)"
    "$micro" --benchmark_filter='BM_Distributed' \
      | tee "$results_dir/perf_distributed.txt" >/dev/null || true
  fi
fi

if [[ "$optimize" == 1 ]]; then
  echo "== optimize-smoke acceptance tests ($build_dir)"
  ctest --test-dir "$build_dir" -L optimize-smoke --output-on-failure
  micro="$build_dir/bench/perf_micro"
  if [[ -x "$micro" ]]; then
    echo "== perf_micro (BM_Optimizer*)"
    "$micro" --benchmark_filter='BM_Optimizer' \
      | tee "$results_dir/perf_optimizer.txt" >/dev/null || true
  fi
fi

if [[ "$fsck" == 1 ]]; then
  echo "== integrity-smoke acceptance tests ($build_dir)"
  ctest --test-dir "$build_dir" -L integrity-smoke --output-on-failure
  micro="$build_dir/bench/perf_micro"
  if [[ -x "$micro" ]]; then
    echo "== perf_micro (BM_Integrity*)"
    "$micro" --benchmark_filter='BM_Integrity' \
      | tee "$results_dir/perf_integrity.txt" >/dev/null || true
  fi
fi

# Without --resume the suite computes cold: the store is removed first.
if [[ "$resume" != 1 ]]; then
  rm -rf "$results_dir/.campaign"
fi
supervise_flags=()
if [[ "$supervised" == 1 ]]; then
  supervise_flags=(--supervised)
  echo "== figure suite via supervised campaign (store: $results_dir/.campaign)"
else
  echo "== figure suite via campaign engine (store: $results_dir/.campaign)"
fi
# A degraded (exit 3) supervised run still wrote every completed figure;
# surface the failure after the summary instead of dying mid-script.
campaign_rc=0
"$campaign_cli" run all --store="$results_dir/.campaign" \
  --results="$results_dir" ${supervise_flags+"${supervise_flags[@]}"} "$@" \
  || campaign_rc=$?
if [[ "$campaign_rc" != 0 && "$campaign_rc" != 3 ]]; then
  exit "$campaign_rc"
fi
if [[ "$fsck" == 1 ]]; then
  echo "== fsck over the suite store ($results_dir/.campaign)"
  fsck_rc=0
  "$campaign_cli" fsck "$results_dir/.campaign" || fsck_rc=$?
  if [[ "$fsck_rc" != 0 ]]; then
    echo "suite store is corrupt; rerun to recompute the damaged" \
         "figures" >&2
    exit 3
  fi
fi
run_perf_micro  # perf_micro takes google-benchmark flags, not sweep flags
grep -hE '\[(PASS|FAIL)\]' "$results_dir"/*.txt || true

echo
echo "results written to $results_dir/"
grep -h '\[FAIL\]' "$results_dir"/*.txt 2>/dev/null && exit 1
if [[ "$campaign_rc" == 3 ]]; then
  echo "campaign completed DEGRADED (quarantined points; see" \
       "$build_dir/tools/sos_campaign status $results_dir/.campaign)" >&2
  exit 3
fi
echo "all qualitative checks PASS"
