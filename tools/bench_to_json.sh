#!/usr/bin/env sh
# Regenerate a repo-root BENCH_*.json from a bench's JSON output, with a
# schema sanity gate between the run and the move so a broken emitter
# can never clobber the checked-in trajectory file.
#
# Two benches are wired:
#   - bench_l1_serving --json -> BENCH_l1_serving.json (the default);
#   - bench_a3_sw_codec --benchmark_format=json -> BENCH_a3_sw_codec.json
#     (mode `a3`): google-benchmark's JSON, one entry per software-codec
#     case, whose `ratio` and `dynamic_blocks` counters ci.sh stage 11
#     diffs exactly.
# Every serving-class bench emits one schema-versioned JSON at the repo
# root (see DESIGN.md, "BENCH_*.json trajectory convention").
#
# Usage: tools/bench_to_json.sh [--smoke] [a3] [build-dir]
#   --smoke     run the scaled-down CI sweep (default: full sweep;
#               bench_l1_serving only)
#   a3          regenerate BENCH_a3_sw_codec.json instead
#   build-dir   build tree holding the bench (default: first of build,
#               build-ci that has it)
set -eu

cd "$(dirname "$0")/.."

mode=""
build=""
bench=bench_l1_serving
for a in "$@"; do
    case "$a" in
      --smoke) mode="--smoke" ;;
      a3) bench=bench_a3_sw_codec ;;
      *) build="$a" ;;
    esac
done
if [ -z "$build" ]; then
    for d in build build-ci; do
        if [ -x "$d/bench/$bench" ]; then
            build=$d
            break
        fi
    done
fi
bin="$build/bench/$bench"
if [ ! -x "$bin" ]; then
    echo "bench_to_json: $bin not built" >&2
    exit 2
fi

tmp=$(mktemp "${TMPDIR:-/tmp}/bench_json.XXXXXX")
trap 'rm -f "$tmp"' EXIT

# Schema gate: every key must be present before the file may land at
# the root.
require() {
    for key in "$@"; do
        if ! grep -q "$key" "$tmp"; then
            echo "bench_to_json: emitted JSON is missing $key — refusing" \
                 "to update $out" >&2
            exit 1
        fi
    done
}

if [ "$bench" = bench_a3_sw_codec ]; then
    out=BENCH_a3_sw_codec.json
    "$bin" --benchmark_format=json > "$tmp"
    # Every case, by its google-benchmark name.
    for c in DeflateLevel/1 DeflateLevel/3 DeflateLevel/5 DeflateLevel/7 \
             DeflateLevel/9 Inflate/1 Inflate/6 InflateStream/1 \
             InflateStream/6 Lz77Only/1 Lz77Only/6 Lz77Only/9 HuffmanOnly \
             DeflateRecord/256 DeflateRecord/1024 DeflateRecord/4096 \
             InflateRecord/256 InflateRecord/1024 InflateRecord/4096 \
             InflateRecord/131072 Crc32/4096 Crc32/1048576 Adler32/4096 \
             Adler32/1048576; do
        require "\"name\": \"BM_$c\""
    done
else
    out=BENCH_l1_serving.json
    # shellcheck disable=SC2086  # $mode is intentionally word-split
    "$bin" $mode --json > "$tmp"
    # The keys the golden test and downstream diffs key on.
    require '"schema_version": 1' '"bench": "bench_l1_serving"' \
            '"scenarios"' '"schedule_digest"' '"p999"' \
            '"fairness_min_over_max"'
fi

mv "$tmp" "$out"
trap - EXIT
echo "bench_to_json: wrote $out ($(wc -c < "$out") bytes," \
     "$(grep -c '"name"' "$out") entries)"
