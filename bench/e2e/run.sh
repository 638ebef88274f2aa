#!/usr/bin/env bash
#===----------------------------------------------------------------------===//
#
# Part of AlgSpec. MIT license.
#
#===----------------------------------------------------------------------===//
#
# The end-to-end benchmark. Builds the real `algspec` binary and the load
# driver from this checkout into build/e2e/ (a project of its own, see
# CMakeLists.txt here), then runs workloads against them.
#
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is the result JSON
#   bench/e2e/run.sh [--seed N] [--seconds S] [--smoke] [--trace]
#       every workload in turn; --smoke runs each for about a second and
#       checks correctness only
#   bench/e2e/run.sh --baseline [--runs N]
#       re-records bench/e2e/baseline/: two sets of N runs (default 10)
#       of every workload, with a stamp of the machine and build
#
# Results land in build/e2e-results/; compare two directories of them
# with bench/e2e/compare.py.
#
set -euo pipefail

cd "$(dirname "$0")/../.."
if [ ! -d src ] || [ ! -f tools/algspec/main.cpp ]; then
  echo "error: src/ and tools/ are missing; run from an AlgSpec checkout" >&2
  exit 2
fi

BUILD=build/e2e
mkdir -p "$BUILD"
if ! {
  { [ -f "$BUILD/CMakeCache.txt" ] ||
    cmake -S bench/e2e -B "$BUILD" -DCMAKE_BUILD_TYPE=Release; } &&
    cmake --build "$BUILD" -j 4
} > "$BUILD/build.log" 2>&1; then
  tail -n 30 "$BUILD/build.log" >&2
  echo "error: build failed; see $BUILD/build.log" >&2
  exit 2
fi
DRIVER=$BUILD/e2e_driver
WORKLOADS=(cli_paper sweeps symbolic_eval served)

# One run of one workload: everything is passed through to the driver.
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$DRIVER" "$@"
  fi
done

seed=1 seconds=25 smoke=() trace=0 baseline=0 runs=10
while [ $# -gt 0 ]; do
  case $1 in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    --trace) trace=1; shift ;;
    --baseline) baseline=1; shift ;;
    --runs) runs=$2; shift 2 ;;
    *) echo "error: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [ "$baseline" = 1 ]; then
  out=bench/e2e/baseline
  rm -rf "$out"
  mkdir -p "$out/set1" "$out/set2"
  {
    echo "{\"nproc\": $(nproc),"
    echo " \"cpu_mhz\": \"$(awk -F': ' '/^cpu MHz/ {print $2; exit}' /proc/cpuinfo)\","
    echo " \"algspec\": \"$("$BUILD/tools/algspec" version)\","
    echo " \"seconds\": $seconds, \"runs_per_set\": $runs}"
  } > "$out/stamp.json"
  # The sets interleave run by run, as a parent/change comparison would.
  for ((i = 1; i <= runs; i++)); do
    for set in set1 set2; do
      for w in "${WORKLOADS[@]}"; do
        "$DRIVER" --workload "$w" --seed $((seed + i)) --seconds "$seconds" \
          --trace 0 --results "$out/$set" > /dev/null
      done
    done
  done
  exec python3 bench/e2e/compare.py "$out/set1" "$out/set2"
fi

status=0
for w in "${WORKLOADS[@]}"; do
  "$DRIVER" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" "${smoke[@]}" || status=1
done
exit $status
