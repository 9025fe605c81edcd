#!/usr/bin/env bash
# dynfb-e2e: builds the end-to-end benchmark and runs its workloads.
#
#   bench/e2e/run.sh [--trace] [--seed S] [--seconds T] [--out-dir DIR]
#       Runs all four workloads, one after another, each serially in its
#       own process; prints every metric with its unit and writes one
#       result JSON per workload into DIR (default build/e2e/results).
#       Exits nonzero if any simulated output is wrong.
#
#   bench/e2e/run.sh --workload NAME [--seed S] [--seconds T] [--trace 0|1]
#       Runs one workload. The last line of output is its JSON result:
#       {"correct", "attempted", "failed", "metrics"}; the exit status is
#       nonzero if any simulated output is wrong.
#
# --trace runs the traced variant: per-layer metrics instead of end-to-end
# ones. Works from any directory; builds into build/e2e of the repository
# the script sits in (a first run compiles the library, about a minute).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

workload="" seed=0 seconds=25 trace=0 outdir=build/e2e/results
while [ $# -gt 0 ]; do
  case "$1" in
    --workload|--seed|--seconds|--out-dir)
      [ $# -gt 1 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --out-dir) outdir="$2" ;;
      esac
      shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && [[ "$2" =~ ^[01]$ ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [ ! -f src/CMakeLists.txt ] || [ ! -f tests/baselines/bench_paper_scale0.125.json ]; then
  echo "run.sh: $root does not hold the dynfb sources" >&2
  exit 2
fi

# Build output goes to stderr: stdout carries only results.
build=build/e2e
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target dynfb-e2e -j 4 >&2
mkdir -p "$outdir"

run_one() {
  "$build/dynfb-e2e" --workload "$1" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --out "$outdir/$1-seed$seed-trace$trace.json"
}

if [ -n "$workload" ]; then
  run_one "$workload"
  exit
fi

status=0
for w in paper_suite dynamic_mix whatif_replay serving_numa; do
  run_one "$w" || status=1
  echo
done
echo "results in $outdir"
exit "$status"
