#!/usr/bin/env sh
# Line-coverage gate (the ci.sh coverage stage) for the files listed in
# tools/coverage_baseline.txt: the session layer, the JobServer
# dispatch layer, the DEFLATE decoder and encoder, the encoder's match
# finder and Huffman builder, and the gzip and zlib containers.
#
# Expects a build tree configured with the `coverage` preset
# (NXSIM_COVERAGE=ON) in which the `session`-, `load`-, `codec`- and
# `concurrency`-labeled ctest suites have already run, so the .gcda
# counters exist. Runs gcov over each listed source file and fails when
# its executed-line percentage falls below the checked-in minimum in
# tools/coverage_baseline.txt — a one-way ratchet: raise the baseline
# when coverage improves, never lower it to make a regression pass.
#
# Usage: tools/coverage_gate.sh [build-dir]   (default: build-coverage)
set -eu

cd "$(dirname "$0")/.."
build=${1:-build-coverage}
baseline_file=tools/coverage_baseline.txt

if ! command -v gcov >/dev/null 2>&1; then
    echo "coverage_gate: gcov not found; cannot gate" >&2
    exit 1
fi
if [ ! -f "$baseline_file" ]; then
    echo "coverage_gate: missing $baseline_file" >&2
    exit 1
fi

fail=0
# Baseline format: "<source-file> <min-percent>" per line, # comments.
grep -v '^[[:space:]]*#' "$baseline_file" | while read -r src min; do
    [ -n "$src" ] || continue
    name=$(basename "$src")
    gcda=$(find "$build" -name "$name.gcda" | head -n 1)
    if [ -z "$gcda" ]; then
        echo "coverage_gate: no $name.gcda under $build — did the" \
             "labeled tests run in the coverage build?" >&2
        exit 1
    fi
    # gcov prints "File '<path>'" then "Lines executed:P% of N"; take
    # the percentage reported for the gated source file itself. The
    # .gcda is passed directly: CMake's <src>.cc.o object naming breaks
    # gcov's -o <dir> <source> stem resolution.
    pct=$(gcov -n "$gcda" 2>/dev/null |
        awk -v f="$src" '
            /^File/ { cur = $0 }
            /^Lines executed/ && index(cur, f) {
                sub(/^Lines executed:/, "");
                sub(/% of.*/, "");
                print; exit
            }')
    if [ -z "$pct" ]; then
        echo "coverage_gate: gcov produced no line data for $src" >&2
        exit 1
    fi
    ok=$(awk -v p="$pct" -v m="$min" 'BEGIN { print (p + 0 >= m + 0) }')
    if [ "$ok" = 1 ]; then
        echo "coverage_gate: $src ${pct}% >= ${min}% minimum — OK"
    else
        echo "coverage_gate: $src ${pct}% is below the ${min}%" \
             "minimum in $baseline_file" >&2
        exit 1
    fi
done || fail=1
exit "$fail"
