/**
 * @file
 * Preset-dictionary and multi-member tests: deflate/inflate with
 * dictionaries, the zlib FDICT container and gzip member concatenation.
 */

#include <gtest/gtest.h>

#include "deflate/deflate_encoder.h"
#include "deflate/gzip_stream.h"
#include "deflate/inflate_decoder.h"
#include "deflate/zlib_stream.h"
#include "workloads/corpus.h"
#include "workloads/tpcds_gen.h"

using deflate::deflateCompress;
using deflate::deflateCompressWithDict;
using deflate::inflateDecompressWithDict;

TEST(Dictionary, RoundTripWithSharedPrefix)
{
    auto dict = workloads::makeJson(16384, 101);
    // Input that shares structure with the dictionary.
    auto input = workloads::makeJson(8192, 101);

    auto res = deflateCompressWithDict(input, dict);
    auto out = inflateDecompressWithDict(res.bytes, dict);
    ASSERT_TRUE(out.ok()) << deflate::toString(out.status);
    EXPECT_EQ(out.bytes, input);
}

TEST(Dictionary, ImprovesRatioOnSmallSimilarPayloads)
{
    // The DB-page use case: many small pages sharing a schema.
    workloads::TpcdsConfig cfg;
    auto dict = workloads::makeStoreSales(32768, cfg);
    cfg.seed = 777;
    auto page = workloads::makeStoreSales(4096, cfg);

    auto plain = deflateCompress(page);
    auto with = deflateCompressWithDict(page, dict);
    EXPECT_LT(with.bytes.size(), plain.bytes.size());

    auto out = inflateDecompressWithDict(with.bytes, dict);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.bytes, page);
}

TEST(Dictionary, WrongDictionaryFailsOrCorrupts)
{
    auto dict = workloads::makeText(8192, 102);
    auto wrong = workloads::makeText(8192, 103);
    auto input = workloads::makeText(4096, 102);

    auto res = deflateCompressWithDict(input, dict);
    auto out = inflateDecompressWithDict(res.bytes, wrong);
    // Decoding with the wrong dictionary either errors or produces
    // different bytes; it must never return the original content.
    if (out.ok()) {
        EXPECT_NE(out.bytes, input);
    }
}

TEST(Dictionary, EmptyDictEqualsPlain)
{
    auto input = workloads::makeLog(20000, 104);
    auto plain = deflateCompress(input);
    auto with = deflateCompressWithDict(input, {});
    auto out = inflateDecompressWithDict(with.bytes, {});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.bytes, input);
    // Same matcher, same blocks: identical streams expected.
    EXPECT_EQ(with.bytes, plain.bytes);
}

TEST(Dictionary, OnlyLast32KUsed)
{
    // A dictionary larger than the window: matches can only come from
    // the tail; the encoder must not emit distances past 32 KiB.
    auto dict = workloads::makeText(100000, 105);
    auto input = workloads::makeText(4096, 105);
    auto res = deflateCompressWithDict(input, dict);
    std::span<const uint8_t> tail(dict);
    tail = tail.subspan(dict.size() - deflate::kWindowSize);
    auto out = inflateDecompressWithDict(res.bytes, tail);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.bytes, input);
}

TEST(Dictionary, IncompressibleInputIsStored)
{
    // A dictionary does not stop a random input from being stored:
    // one stored block, 5 bytes of framing.
    auto dict = workloads::makeText(32768, 113);
    auto input = workloads::makeRandom(4096, 114);
    auto res = deflateCompressWithDict(input, dict);
    EXPECT_LE(res.bytes.size(), input.size() + 5);
    auto out = inflateDecompressWithDict(res.bytes, dict);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.bytes, input);
}

TEST(Dictionary, KeptAcrossSmallBlocks)
{
    // The second block repeats the dictionary's first 4 KiB. It costs
    // a few long matches only if the dictionary is still in the window
    // after the first block.
    auto dict = workloads::makeText(16384, 115);
    auto input = workloads::makeRandom(4096, 116);
    input.insert(input.end(), dict.begin(), dict.begin() + 4096);
    deflate::DeflateOptions opts;
    opts.blockBytes = 4096;
    auto res = deflateCompressWithDict(input, dict, opts);
    EXPECT_LT(res.bytes.size(), 4096u + 5 + 256);
    auto out = inflateDecompressWithDict(res.bytes, dict);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.bytes, input);
}

TEST(ZlibFdict, RoundTrip)
{
    auto dict = workloads::makeCsv(16384, 106);
    auto input = workloads::makeCsv(8192, 107);
    auto raw = deflateCompressWithDict(input, dict);
    auto stream = deflate::zlibWrapWithDict(raw.bytes, input, dict);
    auto res = deflate::zlibUnwrapWithDict(stream, dict);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.inflate.bytes, input);
}

TEST(ZlibFdict, MissingDictionaryRejected)
{
    auto dict = workloads::makeCsv(4096, 108);
    auto input = workloads::makeCsv(2048, 109);
    auto raw = deflateCompressWithDict(input, dict);
    auto stream = deflate::zlibWrapWithDict(raw.bytes, input, dict);
    auto res = deflate::zlibUnwrapWithDict(stream, {});
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "dictionary required");
}

TEST(ZlibFdict, DictIdMismatchRejected)
{
    auto dict = workloads::makeCsv(4096, 110);
    auto wrong = workloads::makeCsv(4096, 111);
    auto input = workloads::makeCsv(2048, 112);
    auto raw = deflateCompressWithDict(input, dict);
    auto stream = deflate::zlibWrapWithDict(raw.bytes, input, dict);
    auto res = deflate::zlibUnwrapWithDict(stream, wrong);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "DICTID mismatch");
}

TEST(ZlibFdict, PlainStreamStillDecodes)
{
    auto input = workloads::makeText(10000, 113);
    auto raw = deflateCompress(input);
    auto stream = deflate::zlibWrap(raw.bytes, input);
    auto res = deflate::zlibUnwrapWithDict(stream, {});
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.inflate.bytes, input);
}

TEST(GzipMultiMember, ConcatenationDecodes)
{
    auto a = workloads::makeText(30000, 114);
    auto b = workloads::makeLog(40000, 115);
    auto ma = deflate::gzipWrap(deflateCompress(a).bytes, a);
    auto mb = deflate::gzipWrap(deflateCompress(b).bytes, b);
    std::vector<uint8_t> file(ma);
    file.insert(file.end(), mb.begin(), mb.end());

    auto res = deflate::gzipUnwrapAll(file);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.members, 2u);
    std::vector<uint8_t> both(a);
    both.insert(both.end(), b.begin(), b.end());
    EXPECT_EQ(res.bytes, both);
}

TEST(GzipMultiMember, SingleMemberStillWorks)
{
    auto a = workloads::makeText(5000, 116);
    auto ma = deflate::gzipWrap(deflateCompress(a).bytes, a);
    auto res = deflate::gzipUnwrapAll(ma);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.members, 1u);
    EXPECT_EQ(res.bytes, a);
}

TEST(GzipMultiMember, TrailingGarbageRejected)
{
    auto a = workloads::makeText(5000, 117);
    auto file = deflate::gzipWrap(deflateCompress(a).bytes, a);
    file.push_back(0x42);
    auto res = deflate::gzipUnwrapAll(file);
    EXPECT_FALSE(res.ok);
}
