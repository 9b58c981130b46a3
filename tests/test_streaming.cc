/**
 * @file
 * Streaming codec tests: DeflateStream window carry and flush
 * semantics, InflateStream resumability at arbitrary split points,
 * and property-style random chunking round trips between all four
 * encoder/decoder combinations.
 */

#include <gtest/gtest.h>

#include "deflate/deflate_encoder.h"
#include "deflate/deflate_stream.h"
#include "deflate/inflate_decoder.h"
#include "deflate/inflate_stream.h"
#include "util/bitstream.h"
#include "util/prng.h"
#include "workloads/corpus.h"

using deflate::DeflateOptions;
using deflate::DeflateStream;
using deflate::Flush;
using deflate::InflateStream;
using deflate::StreamStatus;

namespace {

/** Compress via the streaming encoder in chunks of @p chunk bytes. */
std::vector<uint8_t>
streamCompress(std::span<const uint8_t> input, size_t chunk,
               int level = 6)
{
    DeflateOptions opts;
    opts.level = level;
    DeflateStream ds(opts);
    std::vector<uint8_t> out;
    size_t off = 0;
    while (off < input.size()) {
        size_t n = std::min(chunk, input.size() - off);
        bool last = off + n >= input.size();
        ds.write(input.subspan(off, n),
                 last ? Flush::Finish : Flush::None, out);
        off += n;
    }
    if (input.empty())
        ds.write({}, Flush::Finish, out);
    return out;
}

/** Decompress via the streaming decoder in chunks of @p chunk bytes. */
bool
streamDecompress(std::span<const uint8_t> stream, size_t chunk,
                 std::vector<uint8_t> &out)
{
    InflateStream is;
    size_t off = 0;
    while (off < stream.size()) {
        size_t n = std::min(chunk, stream.size() - off);
        auto st = is.feed(stream.subspan(off, n), out);
        if (st == StreamStatus::Error)
            return false;
        off += n;
        if (st == StreamStatus::Done)
            return true;
    }
    return is.feed({}, out) == StreamStatus::Done;
}

} // namespace

TEST(DeflateStream, SingleShotMatchesOneShotSemantics)
{
    auto input = workloads::makeText(100000, 81);
    auto stream = streamCompress(input, input.size());
    auto res = deflate::inflateDecompress(stream);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.bytes, input);
}

TEST(DeflateStream, TinyChunksRoundTrip)
{
    auto input = workloads::makeLog(50000, 82);
    auto stream = streamCompress(input, 777);
    auto res = deflate::inflateDecompress(stream);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.bytes, input);
}

TEST(DeflateStream, WindowCarryCompressesAcrossChunks)
{
    // The same 4 KiB page fed repeatedly in separate chunks: with
    // window carry, chunks 2..N should compress to almost nothing.
    auto page = workloads::makeText(4096, 83);
    DeflateStream ds;
    std::vector<uint8_t> out;
    for (int i = 0; i < 16; ++i)
        ds.write(page, Flush::None, out);
    ds.write({}, Flush::Finish, out);

    auto res = deflate::inflateDecompress(out);
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res.bytes.size(), page.size() * 16);
    // Cross-chunk matches must make this far smaller than 16
    // independent compressions of the page.
    deflate::DeflateOptions opts;
    auto one = deflate::deflateCompress(page, opts);
    EXPECT_LT(out.size(), one.bytes.size() * 4);
}

TEST(DeflateStream, SyncFlushMakesPrefixDecodable)
{
    auto part1 = workloads::makeJson(20000, 84);
    auto part2 = workloads::makeJson(20000, 85);

    DeflateStream ds;
    std::vector<uint8_t> out;
    ds.write(part1, Flush::Sync, out);
    size_t sync_point = out.size();

    // The bytes up to the sync point must decode to exactly part1
    // through the *streaming* decoder.
    InflateStream is;
    std::vector<uint8_t> decoded;
    auto st = is.feed(std::span<const uint8_t>(out.data(), sync_point),
                      decoded);
    EXPECT_EQ(st, StreamStatus::NeedMoreInput);    // stream not final
    EXPECT_EQ(decoded, part1);

    ds.write(part2, Flush::Finish, out);
    st = is.feed(std::span<const uint8_t>(out.data() + sync_point,
                                          out.size() - sync_point),
                 decoded);
    EXPECT_EQ(st, StreamStatus::Done);
    std::vector<uint8_t> both(part1);
    both.insert(both.end(), part2.begin(), part2.end());
    EXPECT_EQ(decoded, both);
}

TEST(DeflateStream, SyncFlushEndsOnByteBoundaryWithMarker)
{
    auto input = workloads::makeText(10000, 86);
    DeflateStream ds;
    std::vector<uint8_t> out;
    ds.write(input, Flush::Sync, out);
    ASSERT_GE(out.size(), 4u);
    // Z_SYNC_FLUSH marker tail: 00 00 FF FF.
    EXPECT_EQ(out[out.size() - 4], 0x00);
    EXPECT_EQ(out[out.size() - 3], 0x00);
    EXPECT_EQ(out[out.size() - 2], 0xff);
    EXPECT_EQ(out[out.size() - 1], 0xff);
}

TEST(DeflateStream, EmptyInputFinish)
{
    DeflateStream ds;
    std::vector<uint8_t> out;
    ds.write({}, Flush::Finish, out);
    EXPECT_TRUE(ds.finished());
    auto res = deflate::inflateDecompress(out);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.bytes.empty());
}

TEST(DeflateStream, TotalsTrack)
{
    auto input = workloads::makeText(30000, 87);
    DeflateStream ds;
    std::vector<uint8_t> out;
    ds.write(input, Flush::Finish, out);
    EXPECT_EQ(ds.totalIn(), input.size());
    EXPECT_EQ(ds.totalOut(), out.size());
}

TEST(DeflateStream, LevelZeroWritesOnlyStoredBlocks)
{
    auto input = workloads::makeText(10000, 95);
    std::span<const uint8_t> in(input);
    DeflateOptions opts;
    opts.level = 0;
    DeflateStream ds(opts);
    std::vector<uint8_t> out;
    ds.write(in.first(3000), Flush::None, out);
    ds.write(in.subspan(3000, 3000), Flush::Sync, out);
    ds.write(in.subspan(6000), Flush::Finish, out);

    auto res = deflate::inflateDecompress(out);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.bytes, input);
    EXPECT_EQ(res.stats.fixedBlocks, 0u);
    EXPECT_EQ(res.stats.dynamicBlocks, 0u);

    // A single Finish feed is the one-call compress.
    DeflateStream single(opts);
    std::vector<uint8_t> one;
    single.write(input, Flush::Finish, one);
    EXPECT_EQ(one, deflate::deflateCompress(input, opts).bytes);
}

TEST(DeflateStream, FinishOnWholeBlocksAddsNoEmptyBlock)
{
    // 8 KiB in 4 KiB blocks is two blocks, whether the Finish carries
    // the data or follows it.
    auto input = workloads::makeText(8192, 96);
    DeflateOptions opts;
    opts.blockBytes = 4096;
    for (Flush first : {Flush::Finish, Flush::None}) {
        DeflateStream ds(opts);
        std::vector<uint8_t> out;
        ds.write(input, first, out);
        if (first == Flush::None)
            ds.write({}, Flush::Finish, out);
        auto res = deflate::inflateDecompress(out);
        ASSERT_TRUE(res.ok());
        EXPECT_EQ(res.bytes, input);
        EXPECT_EQ(res.stats.storedBlocks + res.stats.fixedBlocks +
                      res.stats.dynamicBlocks,
                  2u);
    }
}

TEST(DeflateStream, StatsCountBlocksLikeTheDecoder)
{
    // Random chunking with Sync flushes, at a level that stores
    // (0) and ones that code (1, 6): the encoder's block counts, Sync
    // markers included, are what the decoder sees.
    auto input = workloads::makeMixed(50000, 97);
    for (int level : {0, 1, 6}) {
        util::Xoshiro256 rng(static_cast<uint64_t>(level) + 98);
        DeflateOptions opts;
        opts.level = level;
        opts.blockBytes = 8192;
        DeflateStream ds(opts);
        std::vector<uint8_t> out;
        std::span<const uint8_t> in(input);
        while (!in.empty()) {
            size_t n = std::min<size_t>(1 + rng.below(12000), in.size());
            ds.write(in.first(n), rng.chance(0.3) ? Flush::Sync : Flush::None,
                     out);
            in = in.subspan(n);
        }
        ds.write({}, Flush::Finish, out);

        auto res = deflate::inflateDecompress(out);
        ASSERT_TRUE(res.ok()) << level;
        EXPECT_EQ(res.bytes, input) << level;
        const deflate::DeflateStats &st = ds.stats();
        EXPECT_EQ(st.storedBlocks, res.stats.storedBlocks) << level;
        EXPECT_EQ(st.fixedBlocks, res.stats.fixedBlocks) << level;
        EXPECT_EQ(st.dynamicBlocks, res.stats.dynamicBlocks) << level;
        EXPECT_EQ(st.tokenCount == 0, level == 0) << level;
    }
}

TEST(DeflateStreamDeathTest, ZeroBlockBytesIsAContractViolation)
{
    DeflateOptions opts;
    opts.blockBytes = 0;
    EXPECT_DEATH(DeflateStream{opts}, "blockBytes must be positive");
}

TEST(InflateStream, ByteAtATime)
{
    auto input = workloads::makeCsv(20000, 88);
    auto stream = deflate::deflateCompress(input).bytes;
    std::vector<uint8_t> out;
    ASSERT_TRUE(streamDecompress(stream, 1, out));
    EXPECT_EQ(out, input);
}

TEST(InflateStream, AllBlockTypesByteAtATime)
{
    // Level 0 (stored), 1 (mostly fixed for small), 6 (dynamic).
    for (int level : {0, 1, 6}) {
        auto input = workloads::makeText(30000, 89);
        deflate::DeflateOptions opts;
        opts.level = level;
        opts.blockBytes = 8192;    // several blocks
        auto stream = deflate::deflateCompress(input, opts).bytes;
        std::vector<uint8_t> out;
        ASSERT_TRUE(streamDecompress(stream, 1, out)) << level;
        EXPECT_EQ(out, input) << level;
    }
}

TEST(InflateStream, ErrorOnGarbage)
{
    std::vector<uint8_t> garbage(64, 0x6e);    // BTYPE=3 quickly
    InflateStream is;
    std::vector<uint8_t> out;
    auto st = is.feed(garbage, out);
    EXPECT_EQ(st, StreamStatus::Error);
}

TEST(InflateStream, CodeLengthRunOvershootRejected)
{
    // Dynamic header whose symbol-18 run overshoots the declared
    // hlit+hdist total (same stream as the one-shot decoder test and
    // fuzz/corpus/inflate/dynhdr-run-overflow.bin): the incremental
    // decoder must reject the run before growing its length array.
    util::BitWriter bw;
    bw.writeBits(1, 1);      // BFINAL
    bw.writeBits(2, 2);      // BTYPE=10 dynamic
    bw.writeBits(0, 5);      // HLIT  = 257
    bw.writeBits(0, 5);      // HDIST = 1 -> 258 lengths declared
    bw.writeBits(14, 4);     // HCLEN = 18
    for (int i = 0; i < 18; ++i)
        bw.writeBits(i == 2 || i == 17 ? 1 : 0, 3);
    for (int i = 0; i < 200; ++i)
        bw.writeBits(0, 1);    // sym 1 x200
    bw.writeBits(1, 1);        // sym 18 ...
    bw.writeBits(127, 7);      // ... run of 138 zeros -> 338 > 258
    auto stream = bw.take();

    InflateStream is;
    std::vector<uint8_t> out;
    auto st = is.feed(stream, out);
    EXPECT_EQ(st, StreamStatus::Error);
    EXPECT_EQ(is.error(), deflate::InflateStatus::BadCodeLengths);
}

TEST(InflateStream, TrailingBytesLeftBuffered)
{
    auto input = workloads::makeText(5000, 90);
    auto stream = deflate::deflateCompress(input).bytes;
    stream.push_back(0xAA);    // trailer-like extra byte
    stream.push_back(0xBB);
    InflateStream is;
    std::vector<uint8_t> out;
    auto st = is.feed(stream, out);
    EXPECT_EQ(st, StreamStatus::Done);
    EXPECT_EQ(out, input);
    EXPECT_GE(is.bufferedBits(), 16u);
}

/** Property sweep: random chunk sizes on both sides. */
class StreamingChunks : public ::testing::TestWithParam<int>
{
};

TEST_P(StreamingChunks, RandomSplitRoundTrip)
{
    util::Xoshiro256 rng(static_cast<uint64_t>(GetParam()) * 7919);
    auto input = workloads::makeMixed(
        40000 + rng.below(100000),
        static_cast<uint64_t>(9000 + GetParam()));

    // Random write chunking with occasional sync flushes.
    DeflateStream ds;
    std::vector<uint8_t> stream;
    size_t off = 0;
    while (off < input.size()) {
        size_t n = 1 + rng.below(9000);
        n = std::min(n, input.size() - off);
        bool last = off + n >= input.size();
        Flush f = last ? Flush::Finish
                       : (rng.chance(0.2) ? Flush::Sync : Flush::None);
        ds.write(std::span<const uint8_t>(input).subspan(off, n), f,
                 stream);
        off += n;
    }

    // Random read chunking.
    InflateStream is;
    std::vector<uint8_t> out;
    size_t roff = 0;
    StreamStatus st = StreamStatus::NeedMoreInput;
    while (roff < stream.size()) {
        size_t n = 1 + rng.below(5000);
        n = std::min(n, stream.size() - roff);
        st = is.feed(std::span<const uint8_t>(stream).subspan(roff, n),
                     out);
        ASSERT_NE(st, StreamStatus::Error);
        roff += n;
    }
    EXPECT_EQ(st, StreamStatus::Done);
    EXPECT_EQ(out, input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingChunks,
                         ::testing::Range(0, 12));

TEST(Streaming, OneShotDecoderAcceptsStreamedOutput)
{
    auto input = workloads::makeBinary(60000, 91);
    auto stream = streamCompress(input, 4096);
    auto res = deflate::inflateDecompress(stream);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.bytes, input);
}

TEST(Streaming, StreamingDecoderAcceptsOneShotOutput)
{
    auto input = workloads::makeHtml(60000, 92);
    auto stream = deflate::deflateCompress(input).bytes;
    std::vector<uint8_t> out;
    ASSERT_TRUE(streamDecompress(stream, 313, out));
    EXPECT_EQ(out, input);
}

namespace {

/** Tokenize @p text at level 6 into @p tokens; append it to @p out. */
void
tokenize(const std::string &text, std::vector<uint8_t> &out,
         std::vector<deflate::Token> &tokens)
{
    deflate::Lz77Matcher matcher(deflate::levelParams(6));
    auto bytes = std::vector<uint8_t>(text.begin(), text.end());
    tokens = matcher.tokenize(bytes);
    out.insert(out.end(), bytes.begin(), bytes.end());
}

/**
 * One stored, one fixed and one final dynamic block, hand-assembled so
 * each type is present whatever the encoder's block choice. Returns the
 * stream and its decoded bytes.
 */
std::pair<std::vector<uint8_t>, std::vector<uint8_t>>
threeBlockStream()
{
    util::BitWriter bw;
    std::vector<uint8_t> text;

    const std::string stored = "stored bytes, ";
    bw.writeBits(0, 1);
    bw.writeBits(0, 2);
    bw.alignToByte();
    bw.writeU16le(static_cast<uint16_t>(stored.size()));
    bw.writeU16le(static_cast<uint16_t>(~stored.size()));
    for (char c : stored)
        bw.writeByte(static_cast<uint8_t>(c));
    text.insert(text.end(), stored.begin(), stored.end());

    std::vector<deflate::Token> tokens;
    tokenize("fixed codes, fixed codes, fixed codes, ", text, tokens);
    bw.writeBits(0, 1);
    bw.writeBits(1, 2);
    deflate::emitTokens(bw, tokens, deflate::HuffmanCode::fixedLitLen(),
                        deflate::HuffmanCode::fixedDist());

    tokenize("dynamic codes, dynamic codes, dynamic codes.", text, tokens);
    deflate::SymbolFreqs freqs;
    freqs.accumulate(tokens);
    auto codes = deflate::buildDynamicCodes(freqs);
    bw.writeBits(1, 1);
    bw.writeBits(2, 2);
    deflate::writeDynamicHeader(bw, codes);
    deflate::emitTokens(bw, tokens, codes.litlen, codes.dist);
    return {bw.take(), text};
}

} // namespace

TEST(InflateStream, EveryTwoFeedSplitMatchesOneFeed)
{
    auto [stream, text] = threeBlockStream();
    auto one = deflate::inflateDecompress(stream);
    ASSERT_TRUE(one.ok());
    ASSERT_EQ(one.bytes, text);
    EXPECT_EQ(one.stats.storedBlocks, 1u);
    EXPECT_EQ(one.stats.fixedBlocks, 1u);
    EXPECT_EQ(one.stats.dynamicBlocks, 1u);

    std::span<const uint8_t> in(stream);
    for (size_t k = 0; k <= in.size(); ++k) {
        InflateStream is;
        std::vector<uint8_t> out;
        auto first = is.feed(in.first(k), out);
        EXPECT_EQ(first, k == in.size() ? StreamStatus::Done
                                        : StreamStatus::NeedMoreInput) << k;
        EXPECT_EQ(is.feed(in.subspan(k), out), StreamStatus::Done) << k;
        EXPECT_EQ(out, text) << k;
        EXPECT_EQ(is.stats().inputBits, one.stats.inputBits) << k;
        // Only the final byte's padding is left unread.
        EXPECT_EQ(is.bufferedBits(), in.size() * 8 - one.stats.inputBits)
            << k;
    }
}

TEST(InflateStream, DictionaryByteAtATimeMatchesOneCall)
{
    auto dict = workloads::makeText(40000, 93);
    auto input = workloads::makeText(20000, 93);    // shares the dict's text
    auto stream = deflate::deflateCompressWithDict(input, dict).bytes;
    auto one = deflate::inflateDecompressWithDict(stream, dict);
    ASSERT_TRUE(one.ok());
    ASSERT_EQ(one.bytes, input);
    ASSERT_FALSE(deflate::inflateDecompress(stream).ok());    // needs dict

    InflateStream is(dict);
    std::vector<uint8_t> out;
    auto st = StreamStatus::NeedMoreInput;
    for (size_t i = 0; i < stream.size(); ++i)
        st = is.feed(std::span<const uint8_t>(&stream[i], 1), out);
    EXPECT_EQ(st, StreamStatus::Done);
    EXPECT_EQ(out, one.bytes);
}

TEST(InflateStream, OutputCapStopsWhereOneCallStops)
{
    auto input = workloads::makeLog(50000, 94);
    for (int level : {0, 1, 6}) {
        deflate::DeflateOptions opts;
        opts.level = level;
        auto stream = deflate::deflateCompress(input, opts).bytes;
        for (size_t cap : {size_t{0}, size_t{777}, size_t{40000}}) {
            auto one = deflate::inflateDecompress(stream, cap);
            ASSERT_EQ(one.status, deflate::InflateStatus::OutputLimit)
                << level << " " << cap;

            InflateStream is({}, cap);
            std::vector<uint8_t> out;
            auto st = StreamStatus::NeedMoreInput;
            for (size_t off = 0;
                 off < stream.size() && st == StreamStatus::NeedMoreInput;
                 off += 100) {
                auto n = std::min<size_t>(100, stream.size() - off);
                st = is.feed(std::span(stream).subspan(off, n), out);
            }
            EXPECT_EQ(st, StreamStatus::Error) << level << " " << cap;
            EXPECT_EQ(is.error(), deflate::InflateStatus::OutputLimit);
            EXPECT_EQ(out, one.bytes) << level << " " << cap;
            EXPECT_LE(is.totalOut(), cap);
        }
    }
}

TEST(InflateStream, TruncationIsAnErrorOnlyAtEndOfInput)
{
    auto [stream, text] = threeBlockStream();
    for (size_t k : {size_t{0}, size_t{1}, size_t{9}, stream.size() / 2,
                     stream.size() - 1}) {
        std::span<const uint8_t> cut(stream.data(), k);

        InflateStream waiting;
        std::vector<uint8_t> out;
        EXPECT_EQ(waiting.feed(cut, out), StreamStatus::NeedMoreInput) << k;
        // Declaring the end later, with no more bytes, is the same cut.
        EXPECT_EQ(waiting.feed({}, out, true), StreamStatus::Error) << k;
        EXPECT_EQ(waiting.error(), deflate::InflateStatus::TruncatedInput);

        InflateStream finishing;
        out.clear();
        EXPECT_EQ(finishing.feed(cut, out, true), StreamStatus::Error) << k;
        EXPECT_EQ(finishing.error(), deflate::InflateStatus::TruncatedInput);
        EXPECT_EQ(deflate::inflateDecompress(cut).status,
                  deflate::InflateStatus::TruncatedInput) << k;
    }
}
