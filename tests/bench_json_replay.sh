#!/usr/bin/env bash
# Runs the full-mode bench_offload, bench_recovery and bench_scaleout of
# a build tree, each writing its JSON into a temp dir, and compares every
# file byte for byte with the tracked BENCH_*.json at the repo root:
#
#   tests/bench_json_replay.sh build
#
# Prints one line per file and exits 1 if any differs. A change that is
# meant to move a tracked JSON regenerates it with a full run from the
# repo root (./build/bench/bench_<name>) and says why in its commit.
set -euo pipefail
export LC_ALL=C
unset CLIO_BENCH_SMOKE
build=$(cd "${1:?usage: $0 BUILD_DIR}" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

status=0
for name in offload recovery scaleout; do
    json=BENCH_$name.json
    CLIO_BENCH_JSON_OUT=$json "$build/bench/bench_$name" > /dev/null
    if cmp "$json" "$root/$json"; then
        echo "$json: identical"
    else
        status=1
    fi
done
exit $status
