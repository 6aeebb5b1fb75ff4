#!/usr/bin/env bash
# Count heap calls per attempted op of one clio_suite workload. A small
# malloc/calloc/realloc interposer, compiled with `cc` into a temp dir
# and loaded with LD_PRELOAD, counts the calls of the whole run (set-up
# included); the count is divided by the run's `attempted` ops.
#
#   tests/heap_calls.sh SUITE_BUILD WORKLOAD [SEED] [SECONDS]
#
# SUITE_BUILD holds a built clio_suite (see bench/suite/run.py for how
# to build it). Defaults: seed 1, 4 seconds. Prints one line, e.g.
#   rw_async_1k seed 1: 8185938 heap calls / 4800000 ops = 1.71 per op
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 SUITE_BUILD WORKLOAD [SEED] [SECONDS]" >&2
    exit 2
fi
suite="$1/clio_suite"
workload=$2
seed=${3:-1}
seconds=${4:-4}
if [ ! -x "$suite" ]; then
    echo "heap_calls: $suite is not built" >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cat >"$tmp/count.c" <<'EOF'
#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>

extern void *__libc_malloc(size_t n);
extern void *__libc_calloc(size_t n, size_t size);
extern void *__libc_realloc(void *p, size_t n);

static unsigned long long calls;

static void
count(void)
{
    __atomic_fetch_add(&calls, 1, __ATOMIC_RELAXED);
}

void *malloc(size_t n) { count(); return __libc_malloc(n); }
void *calloc(size_t n, size_t size) { count(); return __libc_calloc(n, size); }
void *realloc(void *p, size_t n) { count(); return __libc_realloc(p, n); }

__attribute__((destructor)) static void
report(void)
{
    const unsigned long long n = calls;
    const char *path = getenv("HEAP_CALLS_OUT");
    FILE *f = path != NULL ? fopen(path, "w") : NULL;
    if (f != NULL) {
        fprintf(f, "%llu\n", n);
        fclose(f);
    }
}
EOF
cc -O2 -shared -fPIC -o "$tmp/count.so" "$tmp/count.c"

HEAP_CALLS_OUT="$tmp/calls" LD_PRELOAD="$tmp/count.so" \
    "$suite" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    >"$tmp/out"
ops=$(tail -n 1 "$tmp/out" | sed -n 's/.*"attempted": \([0-9]*\).*/\1/p')
calls=$(cat "$tmp/calls")
if [ -z "$ops" ] || [ "$ops" -eq 0 ]; then
    echo "heap_calls: no attempted ops in the suite's result line" >&2
    exit 1
fi
awk -v w="$workload" -v s="$seed" -v c="$calls" -v o="$ops" 'BEGIN {
    printf "%s seed %s: %.0f heap calls / %.0f ops = %.2f per op\n",
           w, s, c, o, c / o
}'
