#!/usr/bin/env sh
# CI pipeline for nxsim. Stages:
#
#   1. ci preset       warnings-as-errors build + full ctest
#   2. nxlint          project static analysis over the whole tree
#                      (tools/nxlint; also registered as a ctest, the
#                      explicit stage gives findings on stdout)
#   3. nxdeps          include-graph layering checker over the whole
#                      tree (tools/nxdeps; also a ctest); its --dot
#                      output must match DESIGN.md's architecture
#                      diagram
#   4. nxtaint         untrusted-input dataflow analysis from BitReader
#                      sources to memory sinks (tools/nxtaint; also a
#                      ctest)
#   5. nxstate         typestate protocol + lock-order analyzer
#                      (tools/nxstate; also a ctest); its --dot output
#                      must match DESIGN.md's lock-order graph
#   6. nxown           resource-ownership analyzer (tools/nxown; also
#                      a ctest)
#   7. asan-ubsan      full ctest under ASan+UBSan (no recover)
#   8. tsan            ThreadSanitizer build; runs the `concurrency`
#                      and `load` ctest labels (JobServer dispatch,
#                      multi-session stress, load-generator suites)
#   9. coverage        gcov build; runs the `session`, `load`,
#                      `codec` and `concurrency` ctest labels and gates
#                      the line coverage of src/core/session.cc,
#                      src/core/job_server.cc,
#                      src/deflate/inflate_stream.cc,
#                      src/deflate/deflate_stream.cc,
#                      src/deflate/lz77.cc and src/deflate/huffman.cc
#                      against tools/coverage_baseline.txt
#  10. clang-tsa       Clang -Wthread-safety over the lock annotations
#                      (src/util/thread_annotations.h); skipped with a
#                      notice when clang++ is absent
#  11. bench smoke     bench_l1_serving --smoke --json out of build-ci:
#                      schema-checks the emitted BENCH json and diffs
#                      its scenario names/digests against the committed
#                      BENCH_l1_serving.json (plan determinism); then
#                      re-runs bench_a3_sw_codec's BM_DeflateLevel and
#                      BM_InflateRecord at a minimal min-time and diffs
#                      their ratio and dynamic_blocks counters exactly
#                      against the committed BENCH_a3_sw_codec.json
#                      (timings are recorded there, not diffed)
#  12. perfbench       configures and builds the benchmark package
#                      (perfbench/CMakeLists.txt) in build-perfbench and
#                      runs its ctest: the self-tests (every workload in
#                      both modes, output verification, plan repeats)
#                      and the BENCHMARK.json name/unit check; then runs
#                      every workload for 1 s at seeds 1 and 424242 and
#                      diffs the plan digest and `deterministic:` lines
#                      against tools/perfbench_deterministic.txt
#  13. lint            clang-tidy over files changed vs origin/main
#                      (skipped with a notice when clang-tidy absent)
#  14. fuzz smoke      30 s of each fuzz target on the seeded corpus
#                      (libFuzzer with Clang; the standalone driver
#                      otherwise — see fuzz/standalone_main.cc)
#
# Stages 2-6 are all binaries out of the stage-1 build-ci tree: one
# configure, one build, five analyzers. Each stage prints its wall time
# when it finishes, and a summary table prints at the end.
#
# Usage: ./ci.sh [--quick]   --quick skips stages 13 and 14.
set -eu

cd "$(dirname "$0")"
jobs=$(nproc 2>/dev/null || echo 4)
quick=${1:-}

stage_times=""
stage_name=""
stage_t0=0

stage() {
    stage_end
    stage_name=$1
    stage_t0=$(date +%s)
    echo "=== [$2] $1 ==="
}

stage_end() {
    if [ -n "$stage_name" ]; then
        dt=$(( $(date +%s) - stage_t0 ))
        echo "--- $stage_name: ${dt}s ---"
        stage_times="${stage_times}  ${dt}s\t$stage_name\n"
        stage_name=""
    fi
}

# Run one whole-tree analyzer under the 30 s wall-time budget. The
# analyzers gate every push via tools/analyze_changed.sh, so a slow
# analyzer is itself a CI failure, not a curiosity.
analyzer_budget=30
analyzer() {
    a_t0=$(date +%s)
    "./build-ci/tools/$1/$1" .
    a_dt=$(( $(date +%s) - a_t0 ))
    if [ "$a_dt" -gt "$analyzer_budget" ]; then
        echo "FAIL: $1 took ${a_dt}s (budget: ${analyzer_budget}s)" >&2
        exit 1
    fi
}

# DESIGN.md embeds the graph a tool prints with --dot as a fenced block
# starting `digraph <name> {`; any difference from a fresh run fails,
# so the documented diagram is always the tool's own output.
design_dot() {
    "./build-ci/tools/$1/$1" --dot . > "build-ci/$1.dot"
    awk "/^digraph $2 /,/^}/" DESIGN.md | diff -u - "build-ci/$1.dot"
}

stage "ci preset (warnings-as-errors)" "1/14"
cmake --preset ci
cmake --build build-ci -j "$jobs"
ctest --test-dir build-ci --output-on-failure -j "$jobs"

stage "nxlint (project static analysis)" "2/14"
analyzer nxlint

stage "nxdeps (include-graph layering)" "3/14"
analyzer nxdeps
design_dot nxdeps nxdeps_modules

stage "nxtaint (untrusted-input dataflow)" "4/14"
analyzer nxtaint

stage "nxstate (typestate + lock order)" "5/14"
analyzer nxstate
design_dot nxstate nxstate_locks

stage "nxown (resource ownership)" "6/14"
analyzer nxown

stage "asan-ubsan preset" "7/14"
cmake --preset asan-ubsan
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs"

stage "tsan preset (concurrency|load labels)" "8/14"
cmake --preset tsan
cmake --build build-tsan -j "$jobs"
ctest --test-dir build-tsan -L 'concurrency|load' --output-on-failure -j "$jobs"

stage "coverage (session|load|codec|concurrency labels + gcov gate)" "9/14"
cmake --preset coverage
cmake --build build-coverage -j "$jobs"
ctest --test-dir build-coverage -L 'session|load|codec|concurrency' \
    --output-on-failure -j "$jobs"
tools/coverage_gate.sh build-coverage

stage "clang-tsa (thread-safety annotations)" "10/14"
if command -v clang++ >/dev/null 2>&1; then
    cmake --preset clang-tsa
    cmake --build build-clang-tsa -j "$jobs"
else
    echo "clang++ not found; skipping clang-tsa stage"
fi

stage "bench smoke (L1 serving harness, A3 counters)" "11/14"
./build-ci/bench/bench_l1_serving --smoke --json \
    > build-ci/bench_l1_smoke.json
grep -q '"schema_version": 1' build-ci/bench_l1_smoke.json
grep -q '"bench": "bench_l1_serving"' build-ci/bench_l1_smoke.json
# Plan determinism: a fresh smoke run must agree with the committed
# trajectory file on scenario names, arrival kinds and schedule
# digests. Measured numbers (latency, throughput) may differ.
if grep -q '"smoke": true' BENCH_l1_serving.json; then
    for f in build-ci/bench_l1_smoke.json BENCH_l1_serving.json; do
        grep -E '"(name|arrival|schedule_digest)":' "$f" \
            > "build-ci/$(basename "$f").schema"
    done
    diff -u build-ci/BENCH_l1_serving.json.schema \
        build-ci/bench_l1_smoke.json.schema
fi
# Software-codec output: the multi-block deflate of the 2 MiB sample at
# five levels and the record inflates must reproduce the committed
# counters exactly. The encoder is deterministic, so any move here is
# an output change, never noise.
./build-ci/bench/bench_a3_sw_codec \
    --benchmark_filter='BM_(DeflateLevel|InflateRecord)/' \
    --benchmark_min_time=0.01 --benchmark_format=json \
    > build-ci/bench_a3_smoke.json
for f in build-ci/bench_a3_smoke.json BENCH_a3_sw_codec.json; do
    awk '/"name":/ { keep = /"BM_(DeflateLevel|InflateRecord)\// }
         keep && /"(name|ratio|dynamic_blocks)":/' "$f" \
        > "build-ci/$(basename "$f").counters"
done
grep -q '"ratio":' build-ci/bench_a3_smoke.json.counters
grep -q '"dynamic_blocks":' build-ci/bench_a3_smoke.json.counters
diff -u build-ci/BENCH_a3_sw_codec.json.counters \
    build-ci/bench_a3_smoke.json.counters

stage "perfbench (package, self-tests, deterministic lines)" "12/14"
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-perfbench -j "$jobs"
ctest --test-dir build-perfbench --output-on-failure
# The modelled outputs (plan digest, ratio, modelled rate, engine
# cycles, routes) are deterministic, so any move here is a model
# change, never noise.
for w in sw-small accel-bulk serve-mixed; do
    for s in 1 424242; do
        ./build-perfbench/perfbench --workload "$w" --seed "$s" \
            --seconds 1 --trace 0 > build-perfbench/run.txt
        grep -E '^(workload |deterministic: )' build-perfbench/run.txt
    done
done > build-perfbench/deterministic.txt
grep -v '^#' tools/perfbench_deterministic.txt |
    diff -u - build-perfbench/deterministic.txt

if [ "$quick" = "--quick" ]; then
    stage_end
    echo "=== --quick: skipping lint and fuzz smoke ==="
    printf "=== stage times ===\n$stage_times"
    exit 0
fi

stage "clang-tidy on changed files" "13/14"
if git rev-parse --verify origin/main >/dev/null 2>&1; then
    changed=$(git diff --name-only origin/main -- 'src/*.cc' || true)
else
    changed=$(git diff --name-only HEAD~1 -- 'src/*.cc' || true)
fi
if [ -n "$changed" ]; then
    # shellcheck disable=SC2086
    tools/run_clang_tidy.sh -p build-ci $changed
else
    echo "no changed src/*.cc files; skipping clang-tidy"
fi

stage "fuzz smoke (30 s per target)" "14/14"
cmake --preset fuzz
cmake --build build-fuzz -j "$jobs"
for t in fuzz_inflate fuzz_gzip fuzz_e842 fuzz_roundtrip fuzz_session; do
    echo "--- $t ---"
    # libFuzzer and the standalone driver share this CLI subset; both
    # default to the target's dir under fuzz/corpus when built here.
    if ./build-fuzz/fuzz/$t -help 2>&1 | grep -q libFuzzer; then
        ./build-fuzz/fuzz/$t -max_total_time=30 -max_len=4096 \
            "fuzz/corpus/${t#fuzz_}"
    else
        ./build-fuzz/fuzz/$t -time=30
    fi
done

stage_end
printf "=== stage times ===\n$stage_times"
echo "=== CI green ==="
