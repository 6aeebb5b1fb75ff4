#!/usr/bin/env bash
# Run test_chaos once per CLIO_SEED in [first, last], `jobs` at a time,
# print the seeds that fail, and exit nonzero if any does. A run that
# takes over 120 s counts as failing (a hung seed).
#
#   tests/chaos_sweep.sh [build-dir] [first] [last] [jobs]
#
# Defaults: build 1 1000 4. Rerun one failing seed with its output:
#   CLIO_SEED=<n> <build-dir>/tests/test_chaos
set -euo pipefail

build=${1:-build}
first=${2:-1}
last=${3:-1000}
jobs=${4:-4}
bin="$build/tests/test_chaos"
if [ ! -x "$bin" ]; then
    echo "chaos_sweep: $bin is not built" >&2
    exit 2
fi

failed=$(seq "$first" "$last" |
    xargs -P "$jobs" -I{} sh -c \
        'CLIO_SEED={} timeout 120 "$0" >/dev/null 2>&1 || echo {}' "$bin" |
    sort -n | tr '\n' ' ')
total=$((last - first + 1))
if [ -n "$failed" ]; then
    echo "chaos_sweep: $(wc -w <<<"$failed") of $total seeds failed: $failed"
    exit 1
fi
echo "chaos_sweep: all $total seeds passed (CLIO_SEED $first-$last)"
