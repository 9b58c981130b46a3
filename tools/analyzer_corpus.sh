#!/usr/bin/env sh
# Build the allow-defused analyzer corpus: every .cc/.h under src,
# tools, bench, examples, fuzz, tests and perfbench, copied to
# OUT/src/<same path> with each `nx<tool>: allow(` rewritten to
# `allowed-off(`. Every analyzer reads OUT/src, and with no allow()
# left to hide a finding, the corpus shows everything each analyzer
# reports on real code, justified exceptions included.
#
# An analyzer change diffs this corpus, built once from the parent
# tree, under the parent's binaries and the change's:
#
#   tools/analyzer_corpus.sh /tmp/corpus
#   for t in nxlint nxdeps nxtaint nxstate nxown; do
#       parent/build/tools/$t/$t --format=json /tmp/corpus > $t.before
#       build/tools/$t/$t --format=json /tmp/corpus > $t.after
#       diff $t.before $t.after
#   done
#
# Usage: tools/analyzer_corpus.sh OUT    (OUT must not exist yet)
set -eu

if [ $# -ne 1 ]; then
    echo "usage: tools/analyzer_corpus.sh OUT" >&2
    exit 2
fi
out=$1
if [ -e "$out" ]; then
    echo "analyzer_corpus: $out already exists" >&2
    exit 2
fi

cd "$(dirname "$0")/.."
mkdir -p "$out/src"
out=$(cd "$out" && pwd)

n=0
for dir in src tools bench examples fuzz tests perfbench; do
    [ -d "$dir" ] || continue
    for f in $(find "$dir" -type f \( -name '*.cc' -o -name '*.h' \) | sort); do
        mkdir -p "$out/src/$(dirname "$f")"
        sed 's/nx[a-z]*: allow(/allowed-off(/g' "$f" > "$out/src/$f"
        n=$((n + 1))
    done
done
echo "analyzer_corpus: $n files in $out/src"
