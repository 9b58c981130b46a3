/**
 * @file
 * 842-class codec tests: round trips over every corpus shape, opcode
 * coverage (zeros, repeat, short-data, indices), malformed-stream
 * rejection, and the engine timing model.
 */

#include <gtest/gtest.h>

#include "e842/e842.h"
#include "e842/e842_engine.h"
#include "util/bitstream.h"
#include "util/prng.h"
#include "workloads/corpus.h"

using e842::compress;
using e842::decompress;

namespace {

void
roundTrip(const std::vector<uint8_t> &input, const char *what)
{
    auto c = compress(input);
    auto d = decompress(c.bytes);
    ASSERT_TRUE(d.ok) << what << ": status "
                      << static_cast<int>(d.status);
    EXPECT_EQ(d.bytes, input) << what;
}

} // namespace

TEST(E842, EmptyInput)
{
    roundTrip({}, "empty");
    auto c = compress({});
    EXPECT_LE(c.bytes.size(), 2u);    // just OP_END
}

TEST(E842, SubChunkSizes)
{
    // 1..7 bytes exercise SHORT_DATA alone.
    for (size_t n = 1; n <= 7; ++n) {
        std::vector<uint8_t> input(n);
        for (size_t i = 0; i < n; ++i)
            input[i] = static_cast<uint8_t>(0x41 + i);
        roundTrip(input, "short");
        auto c = compress(input);
        EXPECT_EQ(c.stats.shortDataOps, 1u);
        EXPECT_EQ(c.stats.chunks, 0u);
    }
}

TEST(E842, UnalignedTail)
{
    auto input = workloads::makeText(1003, 21);    // 125 chunks + 3
    roundTrip(input, "tail");
}

TEST(E842, ZerosUseZeroOp)
{
    auto input = workloads::makeZeros(4096);
    auto c = compress(input);
    auto d = decompress(c.bytes);
    ASSERT_TRUE(d.ok);
    EXPECT_EQ(d.bytes, input);
    // First chunk is ZEROS, the rest collapse into REPEAT ops.
    EXPECT_GE(c.stats.zeroOps, 1u);
    EXPECT_GE(c.stats.repeatOps, 1u);
    EXPECT_LT(c.bytes.size(), 64u);
}

TEST(E842, RepeatRunCompresses)
{
    std::vector<uint8_t> input;
    for (int i = 0; i < 512; ++i) {
        const uint8_t pat[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        input.insert(input.end(), pat, pat + 8);
    }
    auto c = compress(input);
    auto d = decompress(c.bytes);
    ASSERT_TRUE(d.ok);
    EXPECT_EQ(d.bytes, input);
    EXPECT_GE(c.stats.repeatOps, 8u);    // 511 repeats / 64 per op
    EXPECT_LT(c.bytes.size(), 64u);
}

TEST(E842, IndexReuseAcrossChunks)
{
    // Two interleaved 8-byte patterns: after warmup everything should
    // hit the I8 ring.
    std::vector<uint8_t> input;
    const uint8_t a[8] = {9, 9, 1, 1, 2, 2, 3, 3};
    const uint8_t b[8] = {7, 7, 4, 4, 5, 5, 6, 6};
    for (int i = 0; i < 100; ++i) {
        input.insert(input.end(), a, a + 8);
        input.insert(input.end(), b, b + 8);
    }
    auto c = compress(input);
    auto d = decompress(c.bytes);
    ASSERT_TRUE(d.ok);
    EXPECT_EQ(d.bytes, input);
    EXPECT_GT(c.stats.indexBits, c.stats.literalBits);
    // ~13 bits per chunk once warmed: far below 8 bytes.
    EXPECT_LT(c.bytes.size(), input.size() / 3);
}

TEST(E842, AllCorpusMembersRoundTrip)
{
    for (const auto &file : workloads::standardCorpus(64 * 1024))
        roundTrip(file.data, file.name.c_str());
}

TEST(E842, RandomDataExpandsOnlySlightly)
{
    auto input = workloads::makeRandom(64 * 1024, 31);
    auto c = compress(input);
    auto d = decompress(c.bytes);
    ASSERT_TRUE(d.ok);
    EXPECT_EQ(d.bytes, input);
    // 5 opcode bits per 64 data bits worst case: <= ~8 % expansion.
    EXPECT_LT(c.bytes.size(),
              input.size() + input.size() / 11 + 16);
}

TEST(E842, RatioBelowDeflateOnText)
{
    // 842 trades ratio for latency — DEFLATE should beat it on text.
    auto input = workloads::makeText(256 * 1024, 32);
    auto c842 = compress(input);
    EXPECT_GT(c842.bytes.size(), input.size() / 4);
    auto d = decompress(c842.bytes);
    ASSERT_TRUE(d.ok);
    EXPECT_EQ(d.bytes, input);
}

TEST(E842, DeterministicOutput)
{
    auto input = workloads::makeMixed(32 * 1024, 33);
    auto a = compress(input);
    auto b = compress(input);
    EXPECT_EQ(a.bytes, b.bytes);
}

TEST(E842, TruncatedStreamRejected)
{
    auto input = workloads::makeText(8192, 34);
    auto c = compress(input);
    for (size_t cut : {size_t{1}, c.bytes.size() / 2,
                       c.bytes.size() - 1}) {
        std::vector<uint8_t> trunc(c.bytes.begin(),
                                   c.bytes.begin() +
                                       static_cast<long>(cut));
        auto d = decompress(trunc);
        // Truncation may expose a valid END opcode early in rare
        // alignments; a wrong-but-ok result is acceptable only if it
        // is a strict prefix mismatch — require not-ok or smaller out.
        if (d.ok) {
            EXPECT_LT(d.bytes.size(), input.size());
        }
    }
}

TEST(E842, BitFlipsNeverCrash)
{
    auto input = workloads::makeJson(16384, 35);
    auto c = compress(input);
    util::Xoshiro256 rng(36);
    for (int trial = 0; trial < 200; ++trial) {
        auto corrupted = c.bytes;
        size_t byte = rng.below(corrupted.size());
        corrupted[byte] ^= static_cast<uint8_t>(
            1u << rng.below(8));
        auto d = decompress(corrupted, input.size() * 4);
        // Must terminate with ok or a clean error — the harness
        // reaching this line is the assertion.
        (void)d;
    }
    SUCCEED();
}

TEST(E842, RepeatWithNoHistoryRejected)
{
    // Hand-build: opcode REPEAT (28) first. 5 bits LSB-first.
    util::BitWriter bw;
    bw.writeBits(28, 5);
    bw.writeBits(0, 6);
    auto stream = bw.take();
    auto d = decompress(stream);
    EXPECT_FALSE(d.ok);
}

TEST(E842, IndexBeyondHistoryRejected)
{
    // I8 opcode referencing slot 200 with empty history.
    util::BitWriter bw;
    bw.writeBits(1, 5);      // kOpI8
    bw.writeBits(200, 8);
    bw.writeBits(30, 5);     // END
    auto stream = bw.take();
    auto d = decompress(stream);
    EXPECT_FALSE(d.ok);
}

TEST(E842Engine, TimingScalesAndIsFast)
{
    e842::E842Engine eng;
    auto small = workloads::makeBinary(64 * 1024, 37);
    auto large = workloads::makeBinary(1 << 20, 37);
    auto js = eng.compressJob(small);
    auto jl = eng.compressJob(large);
    ASSERT_TRUE(js.ok);
    ASSERT_TRUE(jl.ok);
    EXPECT_GT(jl.cycles, js.cycles);
    // 8 B/cycle at 2 GHz = 16 GB/s engine bound.
    double bps = static_cast<double>(large.size()) / jl.seconds;
    EXPECT_GT(bps, 4e9);
    EXPECT_LE(bps, 16.1e9);
}

TEST(E842Engine, DecompressJobRoundTrip)
{
    e842::E842Engine eng;
    auto input = workloads::makeCsv(256 * 1024, 38);
    auto c = eng.compressJob(input);
    ASSERT_TRUE(c.ok);
    auto d = eng.decompressJob(c.output);
    ASSERT_TRUE(d.ok);
    EXPECT_EQ(d.output, input);
}

TEST(E842Engine, BadStreamReportsNotOk)
{
    e842::E842Engine eng;
    std::vector<uint8_t> garbage(100, 0xff);
    auto d = eng.decompressJob(garbage);
    EXPECT_FALSE(d.ok);
}
