#!/usr/bin/env sh
# Smoke test for the nxzip command-line tool (tools/nxzip_cli.cc).
# Checks what a user of the tool relies on rather than exact bytes:
#
#  1. every mode round-trips a text file over 4 KiB: the output is
#     accepted by `gunzip -c`, and `nxzip -d` with the same flags gives
#     the input back (default, -m sw, -m fht, -m dht2, -c z15, -1, -9,
#     -j 2);
#  2. -j 2 splits a file over 1 MiB into several gzip members, gunzip
#     reads them as one stream, and -d inflates every member back, with
#     -j 2, in the default mode and with -m sw;
#  3. a file under 4 KiB and an empty file stay on the software path,
#     and a larger one takes the accelerator path;
#  4. an unknown chip and -j with -m sw are usage errors (exit 2).
#
# Usage: nxzip_cli_smoke.sh <nxzip-binary>
#
# Exits 77 (ctest SKIP_RETURN_CODE) when gzip is unavailable.
set -eu

nxzip=${1:?usage: nxzip_cli_smoke.sh <nxzip-binary>}

command -v gzip >/dev/null 2>&1 || {
    echo "nxzip_cli_smoke: gzip not available, skipping"
    exit 77
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

fail()
{
    echo "nxzip_cli_smoke: FAIL: $1" >&2
    exit 1
}

# Deterministic log-shaped text: about 130 KB and 2.6 MB.
gen()
{
    awk -v n="$1" 'BEGIN {
        for (i = 0; i < n; i++)
            printf "%06d request served in %d us from shard %d\n",
                   i, (i * 7919) % 1000, i % 13
    }'
}
gen 3000 > "$tmp/text"
gen 60000 > "$tmp/big"
head -c 1000 "$tmp/text" > "$tmp/small"
: > "$tmp/empty"

# round_trip <name> <input> [flags...]: compress with the flags, check
# gunzip accepts the result, then decompress with the same flags.
round_trip()
{
    name=$1
    in=$2
    shift 2
    "$nxzip" "$@" "$in" "$tmp/$name.gz" 2> "$tmp/$name.log" ||
        fail "$name: compress failed: $(cat "$tmp/$name.log")"
    gunzip -c "$tmp/$name.gz" > "$tmp/$name.gunzip" ||
        fail "$name: gunzip rejected the output"
    cmp -s "$in" "$tmp/$name.gunzip" ||
        fail "$name: gunzip output differs from the input"
    "$nxzip" -d "$@" "$tmp/$name.gz" "$tmp/$name.out" 2>> "$tmp/$name.log" ||
        fail "$name: decompress failed: $(cat "$tmp/$name.log")"
    cmp -s "$in" "$tmp/$name.out" ||
        fail "$name: nxzip -d output differs from the input"
}

# --- 1. Every mode round-trips. -----------------------------------
round_trip default "$tmp/text"
round_trip sw "$tmp/text" -m sw
round_trip fht "$tmp/text" -m fht
round_trip dht2 "$tmp/text" -m dht2
round_trip z15 "$tmp/text" -c z15
round_trip level1 "$tmp/text" -1
round_trip level9 "$tmp/text" -9
round_trip jobs "$tmp/text" -j 2

# --- 2. -j 2 writes a multi-member file that -d reads back. -------
round_trip multi "$tmp/big" -j 2
members=$(sed -n 's/.*parallel x[0-9]*, \([0-9]*\) jobs.*/\1/p' \
    "$tmp/multi.log" | head -n 1)
[ "${members:-0}" -gt 1 ] ||
    fail "-j 2 wrote ${members:-no} member(s) for a 2.6 MB input"
# restore <name> [flags...]: -d without -j gives back every member.
restore()
{
    name=$1
    shift
    "$nxzip" -d "$@" "$tmp/multi.gz" "$tmp/multi.$name" \
        2>> "$tmp/multi.log" ||
        fail "-d ($name) of the -j 2 file failed: $(cat "$tmp/multi.log")"
    cmp -s "$tmp/big" "$tmp/multi.$name" ||
        fail "-d ($name) did not restore every member of the -j 2 file"
}
restore default
restore sw -m sw

# --- 3. Routing by size. ------------------------------------------
grep -q "accelerator path" "$tmp/default.log" ||
    fail "a 130 KB file did not take the accelerator path"
for f in small empty; do
    round_trip "$f" "$tmp/$f"
    grep -q "software path" "$tmp/$f.log" ||
        fail "$f file not reported on the software path: $(cat "$tmp/$f.log")"
done

# --- 4. Usage errors exit 2. --------------------------------------
status=0
"$nxzip" -c bogus "$tmp/text" "$tmp/x.gz" 2> /dev/null || status=$?
[ "$status" = 2 ] || fail "-c bogus: expected exit 2, got $status"
status=0
"$nxzip" -j 2 -m sw "$tmp/text" "$tmp/x.gz" 2> /dev/null || status=$?
[ "$status" = 2 ] || fail "-j 2 -m sw: expected exit 2, got $status"

echo "nxzip_cli_smoke: PASS"
