#!/usr/bin/env bash
# Build clio_suite, run all four workloads (one process each), print one
# table of every metric by name and unit, and write the runs combined
# into one JSON.
#
#   bench/suite/run_all.sh [--seed N] [--trace] [--out DIR]
#
# DIR (default build-suite/runs/seed<N>[-trace]) receives one
# <workload>.json per run (plus .log, and .trace.json when traced) and
# set.json, the combined set compare.py takes. Exits non-zero if any run
# failed an integrity check.
set -euo pipefail

seed=1
trace=()
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --trace) trace=(--trace); shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "usage: $0 [--seed N] [--trace] [--out DIR]" >&2; exit 2 ;;
  esac
done

root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
cmake -S bench/suite -B build-suite -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build build-suite -j4 --target clio_suite >&2

out="${out:-build-suite/runs/seed${seed}${trace:+-trace}}"
mkdir -p "$out"
status=0
runs=()
for w in kv_ycsb_b rw_async_1k tlb_zipf_64b fabric_open; do
  echo "running $w (seed $seed${trace:+, traced})" >&2
  build-suite/clio_suite --workload "$w" --seed "$seed" "${trace[@]}" \
    --out "$out/$w.json" > "$out/$w.log" || status=1
  runs+=("$out/$w.json")
done
python3 bench/suite/compare.py table --out "$out/set.json" "${runs[@]}" || status=1
echo "combined JSON: $out/set.json" >&2
exit $status
