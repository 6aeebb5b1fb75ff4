#!/usr/bin/env bash
# Prints the smoke-mode stdout of every bench_* binary and then every
# example of a build tree, each in sorted order, followed by the three
# BENCH_*.smoke.json files the benches write. The stream is pinned in
# tests/bench_smoke.golden:
#
#   tests/bench_smoke.sh build | diff tests/bench_smoke.golden -
#
# Regenerate the golden only in a commit that says it changes modeled
# behaviour:
#
#   tests/bench_smoke.sh build > tests/bench_smoke.golden
set -euo pipefail
export LC_ALL=C
build=$(cd "${1:?usage: $0 BUILD_DIR}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

for bin in "$build"/bench/bench_*; do
    [[ -f $bin && -x $bin ]] || continue
    name=${bin##*/}
    echo "==> $name <=="
    CLIO_BENCH_SMOKE=1 CLIO_BENCH_JSON_OUT="BENCH_${name#bench_}.smoke.json" \
        "$bin"
done
for bin in "$build"/examples/*; do
    [[ -f $bin && -x $bin ]] || continue
    echo "==> ${bin##*/} <=="
    "$bin"
done
for json in BENCH_*.smoke.json; do
    echo "==> $json <=="
    cat "$json"
done
