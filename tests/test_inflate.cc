/**
 * @file
 * Inflater tests against hand-constructed streams (independent of our
 * encoder) and malformed-input error paths.
 */

#include <gtest/gtest.h>

#include <string>

#include "deflate/constants.h"
#include "deflate/deflate_encoder.h"
#include "deflate/gzip_stream.h"
#include "deflate/inflate_decoder.h"
#include "deflate/inflate_stream.h"
#include "util/bitstream.h"

using deflate::inflateDecompress;
using deflate::InflateStatus;
using util::BitWriter;

namespace {

/** Write a fixed-Huffman literal symbol (RFC 1951 3.2.6). */
void
writeFixedLiteral(BitWriter &bw, int sym)
{
    ASSERT_LT(sym, 144);
    // Symbols 0..143: 8-bit codes 00110000..10111111, MSB first.
    uint32_t code = 0b00110000 + static_cast<uint32_t>(sym);
    bw.writeBits(util::reverseBits(code, 8), 8);
}

/** Write the fixed-Huffman end-of-block symbol (7 zero bits). */
void
writeFixedEob(BitWriter &bw)
{
    bw.writeBits(0, 7);
}

} // namespace

TEST(Inflate, HandBuiltFixedBlock)
{
    // BFINAL=1, BTYPE=01 (fixed), literals "Hi", EOB.
    BitWriter bw;
    bw.writeBits(1, 1);
    bw.writeBits(1, 2);
    writeFixedLiteral(bw, 'H');
    writeFixedLiteral(bw, 'i');
    writeFixedEob(bw);
    auto stream = bw.take();

    auto res = inflateDecompress(stream);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(std::string(res.bytes.begin(), res.bytes.end()), "Hi");
    EXPECT_EQ(res.stats.fixedBlocks, 1u);
    EXPECT_EQ(res.stats.literals, 2u);
}

TEST(Inflate, HandBuiltFixedBlockWithMatch)
{
    // "abcabc": 3 literals then match(len=3, dist=3).
    BitWriter bw;
    bw.writeBits(1, 1);
    bw.writeBits(1, 2);
    writeFixedLiteral(bw, 'a');
    writeFixedLiteral(bw, 'b');
    writeFixedLiteral(bw, 'c');
    // Length 3 = code 257 -> fixed code space 0000001 (7 bits), no extra.
    bw.writeBits(util::reverseBits(0b0000001, 7), 7);
    // Distance 3 = code 2 -> 5-bit code 00010, no extra.
    bw.writeBits(util::reverseBits(0b00010, 5), 5);
    writeFixedEob(bw);
    auto stream = bw.take();

    auto res = inflateDecompress(stream);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(std::string(res.bytes.begin(), res.bytes.end()), "abcabc");
    EXPECT_EQ(res.stats.matches, 1u);
    EXPECT_EQ(res.stats.matchedBytes, 3u);
}

TEST(Inflate, HandBuiltStoredBlock)
{
    BitWriter bw;
    bw.writeBits(1, 1);    // BFINAL
    bw.writeBits(0, 2);    // stored
    bw.alignToByte();
    bw.writeU16le(5);
    bw.writeU16le(static_cast<uint16_t>(~5));
    const char *payload = "hello";
    bw.writeBytes(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t *>(payload), 5));
    auto stream = bw.take();

    auto res = inflateDecompress(stream);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(std::string(res.bytes.begin(), res.bytes.end()), "hello");
    EXPECT_EQ(res.stats.storedBlocks, 1u);
}

TEST(Inflate, MultipleBlocks)
{
    BitWriter bw;
    // Non-final stored block "ab".
    bw.writeBits(0, 1);
    bw.writeBits(0, 2);
    bw.alignToByte();
    bw.writeU16le(2);
    bw.writeU16le(static_cast<uint16_t>(~2));
    bw.writeByte('a');
    bw.writeByte('b');
    // Final fixed block "c".
    bw.writeBits(1, 1);
    bw.writeBits(1, 2);
    writeFixedLiteral(bw, 'c');
    writeFixedEob(bw);
    auto stream = bw.take();

    auto res = inflateDecompress(stream);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(std::string(res.bytes.begin(), res.bytes.end()), "abc");
}

TEST(Inflate, EmptyInputIsTruncated)
{
    auto res = inflateDecompress({});
    EXPECT_EQ(res.status, InflateStatus::TruncatedInput);
}

TEST(Inflate, BadBlockTypeRejected)
{
    BitWriter bw;
    bw.writeBits(1, 1);
    bw.writeBits(3, 2);    // BTYPE=11 reserved
    bw.writeBits(0, 16);
    auto stream = bw.take();
    auto res = inflateDecompress(stream);
    EXPECT_EQ(res.status, InflateStatus::BadBlockType);
}

TEST(Inflate, StoredLengthComplementChecked)
{
    BitWriter bw;
    bw.writeBits(1, 1);
    bw.writeBits(0, 2);
    bw.alignToByte();
    bw.writeU16le(5);
    bw.writeU16le(1234);    // wrong NLEN
    auto stream = bw.take();
    auto res = inflateDecompress(stream);
    EXPECT_EQ(res.status, InflateStatus::BadStoredLength);
}

TEST(Inflate, TruncatedStoredPayload)
{
    BitWriter bw;
    bw.writeBits(1, 1);
    bw.writeBits(0, 2);
    bw.alignToByte();
    bw.writeU16le(100);
    bw.writeU16le(static_cast<uint16_t>(~100));
    bw.writeByte('x');    // only 1 of 100 bytes
    auto stream = bw.take();
    auto res = inflateDecompress(stream);
    EXPECT_EQ(res.status, InflateStatus::TruncatedInput);
}

TEST(Inflate, DistanceBeyondOutputRejected)
{
    BitWriter bw;
    bw.writeBits(1, 1);
    bw.writeBits(1, 2);
    writeFixedLiteral(bw, 'a');
    // match len 3, dist 4 (> 1 byte of history).
    bw.writeBits(util::reverseBits(0b0000001, 7), 7);
    bw.writeBits(util::reverseBits(0b00011, 5), 5);    // dist code 3 = 4
    writeFixedEob(bw);
    auto stream = bw.take();
    auto res = inflateDecompress(stream);
    EXPECT_EQ(res.status, InflateStatus::BadDistance);
}

TEST(Inflate, TruncatedMidSymbol)
{
    BitWriter bw;
    bw.writeBits(1, 1);
    bw.writeBits(1, 2);
    writeFixedLiteral(bw, 'a');
    // Stream ends with no EOB; the trailing zero padding of take()
    // decodes as part of an incomplete symbol or EOB+overrun.
    auto stream = bw.take();
    auto res = inflateDecompress(stream);
    // Zero padding happens to look like EOB (0000000) here, so Ok is
    // acceptable; anything but a crash/garbage is fine. Accept either
    // Ok with "a" or TruncatedInput.
    if (res.ok())
        EXPECT_EQ(res.bytes.size(), 1u);
    else
        EXPECT_EQ(res.status, InflateStatus::TruncatedInput);
}

TEST(Inflate, OutputLimitEnforced)
{
    // 1 MiB of zeros compresses tiny; cap output at 1000 bytes.
    BitWriter bw;
    bw.writeBits(1, 1);
    bw.writeBits(1, 2);
    writeFixedLiteral(bw, 0);
    // Repeat match(len=258, dist=1) many times.
    for (int i = 0; i < 100; ++i) {
        // Length 258 = code 285: fixed litlen code 11000101 (8 bits).
        bw.writeBits(util::reverseBits(0b11000101, 8), 8);
        bw.writeBits(util::reverseBits(0b00000, 5), 5);    // dist 1
    }
    writeFixedEob(bw);
    auto stream = bw.take();
    auto res = inflateDecompress(stream, 1000);
    EXPECT_EQ(res.status, InflateStatus::OutputLimit);
}

TEST(Inflate, GarbageInputDoesNotCrash)
{
    util::BitWriter bw;
    for (int i = 0; i < 256; ++i)
        bw.writeByte(static_cast<uint8_t>(i * 37 + 11));
    auto stream = bw.take();
    auto res = inflateDecompress(stream);
    // Any error status is acceptable; only Ok would be suspicious for
    // this particular byte pattern (and even Ok is legal in principle).
    SUCCEED();
}

TEST(Inflate, OverSubscribedDynamicCodeLengths)
{
    // Dynamic block whose code-length alphabet assigns 1-bit codes to
    // all 19 symbols: only two 1-bit codes exist, so the Kraft sum is
    // over-subscribed and table construction must fail cleanly.
    BitWriter bw;
    bw.writeBits(1, 1);     // BFINAL
    bw.writeBits(2, 2);     // BTYPE=10 dynamic
    bw.writeBits(0, 5);     // HLIT  = 257
    bw.writeBits(0, 5);     // HDIST = 1
    bw.writeBits(15, 4);    // HCLEN = 19
    for (int i = 0; i < 19; ++i)
        bw.writeBits(1, 3);
    auto stream = bw.take();
    auto res = inflateDecompress(stream);
    EXPECT_EQ(res.status, InflateStatus::BadCodeLengths);
}

namespace {

/**
 * A dynamic block whose code-length run overshoots the declared
 * hlit+hdist total: 200 one-length codes followed by a symbol-18 run
 * of 138 zeros lands at 338 of the 258 declared lengths. The decoder
 * must reject the run before growing the length array past the
 * declared total (the nxtaint-found bug; also the corpus entry
 * fuzz/corpus/inflate/dynhdr-run-overflow.bin).
 */
std::vector<uint8_t>
buildRunOvershootStream()
{
    BitWriter bw;
    bw.writeBits(1, 1);      // BFINAL
    bw.writeBits(2, 2);      // BTYPE=10 dynamic
    bw.writeBits(0, 5);      // HLIT  = 257
    bw.writeBits(0, 5);      // HDIST = 1 -> 258 lengths declared
    bw.writeBits(14, 4);     // HCLEN = 18 CL-code lengths follow
    // kClcOrder positions 2 (symbol 18) and 17 (symbol 1) get 1-bit
    // codes — exactly Kraft-complete: sym 1 -> code 0, sym 18 -> 1.
    for (int i = 0; i < 18; ++i)
        bw.writeBits(i == 2 || i == 17 ? 1 : 0, 3);
    for (int i = 0; i < 200; ++i)
        bw.writeBits(0, 1);    // sym 1: two hundred lengths of one
    bw.writeBits(1, 1);        // sym 18 ...
    bw.writeBits(127, 7);      // ... run of 11+127 = 138 zeros
    return bw.take();
}

} // namespace

TEST(Inflate, CodeLengthRunOvershootRejected)
{
    auto stream = buildRunOvershootStream();
    auto res = inflateDecompress(stream);
    EXPECT_EQ(res.status, InflateStatus::BadCodeLengths);
}

TEST(Inflate, DynamicHeaderCountsOutOfRange)
{
    // HLIT=31 encodes 288 litlen codes, above the legal 286.
    BitWriter bw;
    bw.writeBits(1, 1);
    bw.writeBits(2, 2);
    bw.writeBits(31, 5);    // HLIT = 288
    bw.writeBits(0, 5);
    bw.writeBits(0, 4);
    bw.writeBits(0, 32);    // padding so the header itself isn't short
    auto stream = bw.take();
    auto res = inflateDecompress(stream);
    EXPECT_EQ(res.status, InflateStatus::BadCodeLengths);
}

namespace {

/**
 * A foreign dynamic block (zlib accepts it; our encoder never writes
 * this shape): HLIT 257 and HDIST 1 with that one length 0, which RFC
 * 1951 3.2.7 defines as "no distance codes used at all". It decodes to
 * "abba".
 */
const std::vector<uint8_t> kNoDistanceCodes = {
    0x05, 0xc0, 0x01, 0x09, 0x00, 0x00, 0x00, 0x80,
    0xa0, 0xad, 0xf5, 0x7f, 0x84, 0xf4, 0x01,
};

} // namespace

TEST(Inflate, DynamicBlockWithoutDistanceCodes)
{
    auto res = inflateDecompress(kNoDistanceCodes);
    ASSERT_EQ(res.status, InflateStatus::Ok);
    EXPECT_EQ(std::string(res.bytes.begin(), res.bytes.end()), "abba");
    EXPECT_EQ(res.stats.dynamicBlocks, 1u);
    EXPECT_EQ(res.consumedBytes, kNoDistanceCodes.size());

    deflate::InflateStream is;
    std::vector<uint8_t> out;
    auto st = deflate::StreamStatus::NeedMoreInput;
    for (uint8_t b : kNoDistanceCodes)
        st = is.feed(std::span<const uint8_t>(&b, 1), out);
    EXPECT_EQ(st, deflate::StreamStatus::Done);
    EXPECT_EQ(std::string(out.begin(), out.end()), "abba");
}

TEST(Inflate, LengthSymbolWithoutDistanceCodesIsBadSymbol)
{
    // The same shape built by hand, but with a length symbol in the
    // block: the empty distance code rejects whatever follows it.
    deflate::SymbolFreqs freqs;
    freqs.litlen['a'] = 1;
    freqs.litlen[deflate::kEob] = 1;
    freqs.litlen[257] = 1;
    deflate::BlockCodes codes;
    codes.litlenLengths =
        deflate::buildCodeLengths(freqs.litlen, deflate::kMaxBits);
    codes.distLengths.assign(deflate::kNumDist, 0);
    codes.litlen = deflate::HuffmanCode(codes.litlenLengths);

    BitWriter bw;
    bw.writeBits(1, 1);    // BFINAL
    bw.writeBits(2, 2);    // dynamic
    deflate::writeDynamicHeader(bw, codes);
    codes.litlen.writeSymbol(bw, 'a');
    codes.litlen.writeSymbol(bw, 257);    // length 3, no distance code
    codes.litlen.writeSymbol(bw, deflate::kEob);
    auto stream = bw.take();

    auto res = inflateDecompress(stream);
    EXPECT_EQ(res.status, InflateStatus::BadSymbol);
}

TEST(Inflate, TruncatedGzipHeader)
{
    // Shorter than the 10-byte fixed header + 8-byte trailer.
    std::vector<uint8_t> shortHdr = {0x1f, 0x8b, 0x08, 0x00};
    auto res = deflate::gzipUnwrap(shortHdr);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());

    // Valid magic but FEXTRA length pointing past the end.
    std::vector<uint8_t> badExtra = {
        0x1f, 0x8b, 0x08, 0x04,    // magic, deflate, FLG=FEXTRA
        0, 0, 0, 0,                // MTIME
        0, 3,                      // XFL, OS
        0xff, 0x7f,                // XLEN = 32767, way past the end
        0, 0, 0, 0, 0, 0, 0, 0,    // filler so size >= 18
    };
    auto res2 = deflate::gzipUnwrap(badExtra);
    EXPECT_FALSE(res2.ok);
    EXPECT_EQ(res2.error, "truncated FEXTRA");

    // Wrong magic bytes.
    std::vector<uint8_t> badMagic(20, 0x00);
    auto res3 = deflate::gzipUnwrap(badMagic);
    EXPECT_FALSE(res3.ok);
    EXPECT_EQ(res3.error, "bad magic");
}

TEST(Inflate, StatusToStringCoversEveryValue)
{
    EXPECT_STREQ(toString(InflateStatus::Ok), "Ok");
    EXPECT_STREQ(toString(InflateStatus::TruncatedInput),
                 "TruncatedInput");
    EXPECT_STREQ(toString(InflateStatus::BadBlockType), "BadBlockType");
    EXPECT_STREQ(toString(InflateStatus::BadStoredLength),
                 "BadStoredLength");
    EXPECT_STREQ(toString(InflateStatus::BadCodeLengths),
                 "BadCodeLengths");
    EXPECT_STREQ(toString(InflateStatus::BadSymbol), "BadSymbol");
    EXPECT_STREQ(toString(InflateStatus::BadDistance), "BadDistance");
    EXPECT_STREQ(toString(InflateStatus::OutputLimit), "OutputLimit");
}
