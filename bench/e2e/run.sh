#!/usr/bin/env bash
# End-to-end benchmark, the single command. Run from the repository root;
# the first call builds bench_e2e (and the eend library) from source into
# .bench_build/e2e, later calls only rebuild what changed.
#
#   bench/e2e/run.sh --workload NAME --seed S --seconds T --trace 0|1
#       one workload in one process; the last stdout line is the JSON
#       result {"correct","attempted","failed","metrics"}
#   bench/e2e/run.sh [--trace 0|1] [--seed S] [--seconds T] [--repeat R]
#                    [--out FILE]
#       every workload, each in its own process, R times (default 1);
#       prints `workload metric value unit` lines and writes the summary,
#       BENCH_e2e.json (--trace 0, the default) or BENCH_e2e_trace.json
#       (--trace 1, which also writes TRACE_e2e_<workload>.json)
#   bench/e2e/run.sh --compare A.json,B.json
#       better / same / worse / unresolved per (workload, metric)
#   bench/e2e/run.sh --list
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
bin="$build/bench_e2e"

# Build logs go to stderr: stdout carries results only. Re-configuring an
# existing build directory is a no-op that also repairs a failed first try.
gen=()
if [[ ! -f "$build/CMakeCache.txt" ]] && command -v ninja > /dev/null; then
  gen=(-G Ninja)
fi
cmake -S "$here" -B "$build" "${gen[@]}" -DCMAKE_BUILD_TYPE=Release >&2
jobs="$(nproc 2> /dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
cmake --build "$build" --target bench_e2e -j "$jobs" >&2

for arg in "$@"; do
  case "$arg" in
    --workload|--workload=*|--compare|--compare=*|--list) exec "$bin" "$@" ;;
  esac
done

seed=1 seconds=30 trace=0 repeat=1 out=""
while (( $# )); do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [[ -z "$out" ]]; then
  if [[ "$trace" == 1 ]]; then out=BENCH_e2e_trace.json; else out=BENCH_e2e.json; fi
fi

records="$build/records"
rm -rf "$records"
mkdir -p "$records"
status=0
# Repeats interleave the workloads, so slow drift on the host spreads over
# all of them instead of landing on one.
for (( r = 0; r < repeat; ++r )); do
  for w in $("$bin" --list); do
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" --json "$records/$w.$r.json" | sed '$d' || status=1
  done
done
commit="$(git -C "$root" rev-parse --short HEAD 2> /dev/null || echo unknown)"
"$bin" --summarize "$out" --commit "$commit" "$records"/*.json || status=1
echo "run.sh: wrote $out" >&2
exit "$status"
