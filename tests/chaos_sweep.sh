#!/usr/bin/env bash
# Run test_chaos once per CLIO_SEED in [first, last], `jobs` at a time,
# print each failing seed with its exit status, and exit nonzero if any
# fails. A run that takes over 120 s counts as failing (a hung seed).
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

# One "seed status" line per failing run, in seed order.
failed=$(seq "$first" "$last" |
    xargs -P "$jobs" -I{} sh -c \
        'CLIO_SEED={} timeout 120 "$0" >/dev/null 2>&1 || echo "{} $?"' \
        "$bin" |
    sort -n)
total=$((last - first + 1))
if [ -n "$failed" ]; then
    echo "chaos_sweep: $(wc -l <<<"$failed") of $total seeds failed:"
    while read -r seed status; do
        case $status in
        124) what="hung: killed at the 120 s limit" ;;
        134) what="aborted: SIGABRT, e.g. clio_panic" ;;
        139) what="crashed: SIGSEGV" ;;
        1) what="a test failed (or a sanitizer reported)" ;;
        *) what="exit status $status" ;;
        esac
        echo "  seed $seed: exit $status, $what"
    done <<<"$failed"
    exit 1
fi
echo "chaos_sweep: all $total seeds passed (CLIO_SEED $first-$last)"
