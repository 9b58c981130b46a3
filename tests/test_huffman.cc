/**
 * @file
 * Huffman coder tests: canonical code construction, length limiting,
 * decode-table validity checks, encode/decode round trips, and a
 * differential check of the decode table against a bit-by-bit
 * canonical decoder.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "deflate/deflate_encoder.h"
#include "deflate/huffman.h"
#include "deflate/inflate_decoder.h"
#include "deflate/inflate_stream.h"
#include "util/prng.h"

using deflate::buildCodeLengths;
using deflate::HuffmanCode;
using deflate::HuffmanDecodeTable;

namespace {

/** Kraft sum in units of 2^-max over nonzero lengths. */
uint64_t
kraftSum(const std::vector<uint8_t> &lengths, int max_bits)
{
    uint64_t k = 0;
    for (uint8_t l : lengths)
        if (l)
            k += 1ull << (max_bits - l);
    return k;
}

} // namespace

TEST(BuildCodeLengths, EmptyFrequencies)
{
    std::vector<uint64_t> freqs(10, 0);
    auto lengths = buildCodeLengths(freqs, 15);
    for (uint8_t l : lengths)
        EXPECT_EQ(l, 0);
}

TEST(BuildCodeLengths, SingleSymbolGetsOneBit)
{
    std::vector<uint64_t> freqs(10, 0);
    freqs[3] = 100;
    auto lengths = buildCodeLengths(freqs, 15);
    EXPECT_EQ(lengths[3], 1);
    for (size_t i = 0; i < lengths.size(); ++i) {
        if (i != 3) {
            EXPECT_EQ(lengths[i], 0);
        }
    }
}

TEST(BuildCodeLengths, TwoSymbols)
{
    std::vector<uint64_t> freqs = {5, 0, 1000};
    auto lengths = buildCodeLengths(freqs, 15);
    EXPECT_EQ(lengths[0], 1);
    EXPECT_EQ(lengths[2], 1);
    EXPECT_EQ(lengths[1], 0);
}

TEST(BuildCodeLengths, KraftCompleteness)
{
    util::Xoshiro256 rng(123);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint64_t> freqs(286);
        for (auto &f : freqs)
            f = rng.below(1000);
        auto lengths = buildCodeLengths(freqs, 15);
        int used = 0;
        for (uint8_t l : lengths)
            if (l)
                ++used;
        if (used >= 2) {
            EXPECT_EQ(kraftSum(lengths, 15), 1ull << 15);
        }
    }
}

TEST(BuildCodeLengths, RespectsMaxBitsWithSkewedFreqs)
{
    // Fibonacci-like frequencies force deep unbalanced trees.
    std::vector<uint64_t> freqs(40);
    uint64_t a = 1, b = 1;
    for (auto &f : freqs) {
        f = a;
        uint64_t t = a + b;
        a = b;
        b = t;
    }
    auto lengths = buildCodeLengths(freqs, 15);
    for (uint8_t l : lengths) {
        EXPECT_GT(l, 0);
        EXPECT_LE(l, 15);
    }
    EXPECT_EQ(kraftSum(lengths, 15), 1ull << 15);

    auto lengths7 = buildCodeLengths(freqs, 7);
    // 40 symbols cannot all fit in 7 bits... 2^7=128 >= 40, they can.
    for (uint8_t l : lengths7)
        EXPECT_LE(l, 7);
    EXPECT_EQ(kraftSum(lengths7, 7), 1ull << 7);
}

TEST(BuildCodeLengths, FrequentSymbolsGetShorterCodes)
{
    std::vector<uint64_t> freqs = {1000, 1, 1, 1, 1, 1, 1, 1};
    auto lengths = buildCodeLengths(freqs, 15);
    for (size_t i = 1; i < freqs.size(); ++i)
        EXPECT_LE(lengths[0], lengths[i]);
}

TEST(HuffmanCode, FixedLitLenMatchesRfc)
{
    const auto &c = HuffmanCode::fixedLitLen();
    EXPECT_EQ(c.length(0), 8);
    EXPECT_EQ(c.length(143), 8);
    EXPECT_EQ(c.length(144), 9);
    EXPECT_EQ(c.length(255), 9);
    EXPECT_EQ(c.length(256), 7);
    EXPECT_EQ(c.length(279), 7);
    EXPECT_EQ(c.length(280), 8);
    EXPECT_EQ(c.length(287), 8);
    // RFC 1951: literal 0 encodes as 00110000 (MSB-first); our stored
    // code is bit-reversed for the LSB-first writer.
    EXPECT_EQ(c.code(0), util::reverseBits(0b00110000, 8));
    // Symbol 256 encodes as 0000000.
    EXPECT_EQ(c.code(256), 0u);
}

TEST(HuffmanCode, CanonicalOrdering)
{
    // lengths {2,1,3,3} -> canonical codes per RFC: B=0, A=10, C=110,
    // D=111.
    std::vector<uint8_t> lengths = {2, 1, 3, 3};
    HuffmanCode c(lengths);
    EXPECT_EQ(c.code(1), util::reverseBits(0b0, 1));
    EXPECT_EQ(c.code(0), util::reverseBits(0b10, 2));
    EXPECT_EQ(c.code(2), util::reverseBits(0b110, 3));
    EXPECT_EQ(c.code(3), util::reverseBits(0b111, 3));
}

TEST(HuffmanCode, CostBitsSums)
{
    std::vector<uint8_t> lengths = {2, 1, 3, 3};
    HuffmanCode c(lengths);
    std::vector<uint64_t> freqs = {10, 20, 5, 1};
    EXPECT_EQ(c.costBits(freqs), 10u * 2 + 20u * 1 + 5u * 3 + 1u * 3);
}

TEST(HuffmanDecodeTable, RejectsOversubscribed)
{
    std::vector<uint8_t> lengths = {1, 1, 1};    // Kraft sum 1.5
    HuffmanDecodeTable t;
    EXPECT_FALSE(t.init(lengths));
}

TEST(HuffmanDecodeTable, RejectsIncompleteMultiSymbol)
{
    std::vector<uint8_t> lengths = {2, 2, 2};    // Kraft sum 0.75
    HuffmanDecodeTable t;
    EXPECT_FALSE(t.init(lengths));
}

TEST(HuffmanDecodeTable, AcceptsDegenerateSingleSymbol)
{
    std::vector<uint8_t> lengths = {0, 1, 0};
    HuffmanDecodeTable t;
    EXPECT_TRUE(t.init(lengths));
}

TEST(HuffmanDecodeTable, RoundTripRandomAlphabets)
{
    util::Xoshiro256 rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        size_t nsyms = 2 + rng.below(280);
        std::vector<uint64_t> freqs(nsyms);
        for (auto &f : freqs)
            f = rng.below(500);
        freqs[0] = 1;    // ensure at least one used symbol
        auto lengths = buildCodeLengths(freqs, 15);
        HuffmanCode code(lengths);
        HuffmanDecodeTable table;
        ASSERT_TRUE(table.init(lengths));

        // Encode a random symbol sequence drawn from used symbols.
        std::vector<int> used;
        for (size_t s = 0; s < nsyms; ++s)
            if (lengths[s])
                used.push_back(static_cast<int>(s));
        ASSERT_FALSE(used.empty());

        std::vector<int> msg(200);
        util::BitWriter bw;
        for (auto &m : msg) {
            m = used[rng.below(used.size())];
            code.writeSymbol(bw, m);
        }
        auto bytes = bw.take();
        util::BitReader br(bytes);
        for (int expected : msg)
            ASSERT_EQ(table.decode(br), expected);
    }
}

TEST(HuffmanDecodeTable, SevenBitClcAlphabet)
{
    std::vector<uint64_t> freqs(19, 3);
    auto lengths = buildCodeLengths(freqs, 7);
    HuffmanCode code(lengths);
    HuffmanDecodeTable table;
    ASSERT_TRUE(table.init(lengths, 7));
    util::BitWriter bw;
    for (int s = 0; s < 19; ++s)
        code.writeSymbol(bw, s);
    auto bytes = bw.take();
    util::BitReader br(bytes);
    for (int s = 0; s < 19; ++s)
        ASSERT_EQ(table.decode(br), s);
}

namespace {

/** What one decode() did: its result, the reader's position, overrun. */
struct DecodeStep
{
    int symbol;
    uint64_t bitsConsumed;
    bool overrun;

    bool operator==(const DecodeStep &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const DecodeStep &d)
{
    return os << "{sym " << d.symbol << ", consumed " << d.bitsConsumed
              << ", overrun " << d.overrun << "}";
}

/**
 * Reference decoder: canonical codes per RFC 1951 3.2.2, matched one
 * bit at a time against an explicit (length, code) -> symbol map.
 * Bits past the end of the input read as zero; a code that needs
 * more bits than remain is an overrun, after which BitReader reports
 * the whole input consumed. A window that starts no code consumes
 * nothing.
 */
class ReferenceDecoder
{
  public:
    explicit ReferenceDecoder(const std::vector<uint8_t> &lengths)
    {
        std::vector<uint32_t> count(16, 0);
        for (uint8_t l : lengths)
            ++count[l];
        count[0] = 0;
        std::vector<uint32_t> next(16, 0);
        uint32_t code = 0;
        for (size_t bits = 1; bits <= 15; ++bits) {
            code = (code + count[bits - 1]) << 1;
            next[bits] = code;
        }
        for (size_t bits = 1; bits <= 15; ++bits)
            byCode_[bits].assign(size_t{1} << bits, -1);
        for (size_t s = 0; s < lengths.size(); ++s) {
            if (lengths[s] != 0)
                byCode_[lengths[s]][next[lengths[s]]++] =
                    static_cast<int>(s);
        }
    }

    DecodeStep
    decode(const std::vector<uint8_t> &bytes, uint64_t pos) const
    {
        const uint64_t total = bytes.size() * 8;
        uint32_t code = 0;
        for (uint64_t len = 1; len <= 15; ++len) {
            uint64_t at = pos + len - 1;
            uint32_t bit = at < total ? (bytes[at / 8] >> (at % 8)) & 1 : 0;
            code = (code << 1) | bit;
            int sym = byCode_[len][code];
            if (sym < 0)
                continue;
            if (pos + len > total)
                return {-1, total, true};
            return {sym, pos + len, false};
        }
        return {-1, pos, false};
    }

  private:
    std::array<std::vector<int>, 16> byCode_;
};

/** Decode one symbol with @p table starting @p pos bits into @p bytes. */
DecodeStep
tableDecode(const HuffmanDecodeTable &table,
            const std::vector<uint8_t> &bytes, uint64_t pos)
{
    util::BitReader br(bytes);
    for (uint64_t left = pos; left > 0;) {
        auto n = static_cast<unsigned>(std::min<uint64_t>(left, 16));
        br.readBits(n);
        left -= n;
    }
    int sym = table.decode(br);
    return {sym, br.bitsConsumed(), br.overrun()};
}

/**
 * Compare table and reference on every prefix of @p bytes, from every
 * start bit of the prefix, then decode each prefix front to back until
 * the first failure.
 */
void
expectSameDecodes(const std::vector<uint8_t> &lengths,
                  const HuffmanDecodeTable &table,
                  const ReferenceDecoder &ref,
                  const std::vector<uint8_t> &bytes)
{
    for (size_t n = 0; n <= bytes.size(); ++n) {
        std::vector<uint8_t> prefix(bytes.begin(),
                                    bytes.begin() + static_cast<long>(n));
        for (uint64_t pos = 0; pos <= n * 8; ++pos)
            ASSERT_EQ(tableDecode(table, prefix, pos),
                      ref.decode(prefix, pos))
                << "prefix " << n << " bytes, start bit " << pos;

        util::BitReader br(prefix);
        uint64_t pos = 0;
        while (true) {
            int sym = table.decode(br);
            DecodeStep got{sym, br.bitsConsumed(), br.overrun()};
            DecodeStep want = ref.decode(prefix, pos);
            ASSERT_EQ(got, want) << "sequential, prefix " << n;
            if (sym < 0)
                break;
            ASSERT_GT(lengths[static_cast<size_t>(sym)], 0);
            pos = got.bitsConsumed;
        }
    }
}

int
longestCode(const std::vector<uint8_t> &lengths)
{
    return *std::max_element(lengths.begin(), lengths.end());
}

/** Valid bit strings (random symbols of the code) and random bytes. */
void
differentialCheck(const std::vector<uint8_t> &lengths, int max_bits,
                  uint64_t seed)
{
    HuffmanDecodeTable table;
    ASSERT_TRUE(table.init(lengths, max_bits));
    ReferenceDecoder ref(lengths);
    HuffmanCode code(lengths);
    std::vector<int> used, longest;
    for (size_t s = 0; s < lengths.size(); ++s) {
        if (lengths[s] != 0)
            used.push_back(static_cast<int>(s));
        if (lengths[s] == longestCode(lengths))
            longest.push_back(static_cast<int>(s));
    }
    ASSERT_FALSE(used.empty());

    util::Xoshiro256 rng(seed);
    for (int trial = 0; trial < 24; ++trial) {
        util::BitWriter bw;
        for (int i = 0; i < 6; ++i) {
            // Half the draws take one of the longest codes.
            const auto &pool = rng.below(2) == 0 ? used : longest;
            code.writeSymbol(bw, pool[rng.below(pool.size())]);
        }
        expectSameDecodes(lengths, table, ref, bw.take());

        std::vector<uint8_t> garbage(6);
        for (auto &b : garbage)
            b = static_cast<uint8_t>(rng.below(256));
        expectSameDecodes(lengths, table, ref, garbage);
    }
}

/** Fibonacci-like frequencies: each symbol about 1.6x the last. */
std::vector<uint64_t>
fibonacciFreqs(size_t n)
{
    std::vector<uint64_t> freqs(n);
    uint64_t a = 1, b = 1;
    for (auto &f : freqs) {
        f = a;
        uint64_t t = a + b;
        a = b;
        b = t;
    }
    return freqs;
}

/**
 * Litlen lengths the way the engine's sampled DHT builds them: a
 * skewed sample count per symbol, scaled by 16, plus one so that all
 * 286 symbols are coded.
 */
std::vector<uint8_t>
sampledDhtLengths(uint64_t seed)
{
    util::Xoshiro256 rng(seed);
    std::vector<uint64_t> freqs(deflate::kNumLitLen, 0);
    for (int i = 0; i < 32768; ++i) {
        // Text-like: letters, then other printable bytes, then a few
        // short match lengths; most byte values never occur.
        uint64_t r = rng.below(1000);
        size_t sym = r < 700 ? 97 + rng.below(26)
                   : r < 950 ? 32 + rng.below(64)
                   : 257 + rng.below(10);
        ++freqs[sym];
    }
    freqs[deflate::kEob] = 1;
    for (auto &f : freqs)
        f = f * 16 + 1;
    return buildCodeLengths(freqs, deflate::kMaxBits);
}

} // namespace

TEST(HuffmanDecodeDifferential, LongestCodeElevenToFifteenBits)
{
    // n Fibonacci symbols make a tree n-1 deep, so n = 12..16 gives a
    // longest code of 11..15 bits, all beyond the 10-bit root.
    for (size_t n = 12; n <= 16; ++n) {
        auto lengths = buildCodeLengths(fibonacciFreqs(n), 15);
        ASSERT_EQ(longestCode(lengths), static_cast<int>(n) - 1);
        differentialCheck(lengths, 15, n);
    }
    // Length-limited: 40 Fibonacci symbols clamp to 15 bits, padded
    // with a flat tail so short and long codes share the root.
    auto freqs = fibonacciFreqs(40);
    freqs.resize(120, 3);
    auto lengths = buildCodeLengths(freqs, 15);
    ASSERT_EQ(longestCode(lengths), 15);
    differentialCheck(lengths, 15, 40);
}

TEST(HuffmanDecodeDifferential, SampledDhtShape)
{
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        auto lengths = sampledDhtLengths(seed);
        ASSERT_EQ(lengths.size(), size_t{286});
        ASSERT_EQ(std::count(lengths.begin(), lengths.end(), 0), 0);
        ASSERT_GE(std::count(lengths.begin(), lengths.end(), 15), 100);
        differentialCheck(lengths, 15, seed);
    }
}

TEST(HuffmanDecodeDifferential, DegenerateOneSymbolCode)
{
    // An incomplete one-symbol code: every other window is invalid.
    // Lengths past the root exercise the walk's miss path too.
    for (uint8_t len : {1, 3, 10, 11, 15}) {
        std::vector<uint8_t> lengths(30, 0);
        lengths[7] = len;
        differentialCheck(lengths, 15, len);
    }
}

TEST(HuffmanDecodeDifferential, SevenBitCodeLengthAlphabet)
{
    util::Xoshiro256 rng(7);
    auto skewed = buildCodeLengths(fibonacciFreqs(19), 7);
    ASSERT_EQ(longestCode(skewed), 7);
    differentialCheck(skewed, 7, 1);
    for (uint64_t trial = 0; trial < 4; ++trial) {
        std::vector<uint64_t> freqs(deflate::kNumClc);
        for (auto &f : freqs)
            f = rng.below(50);
        freqs[0] = 1;
        freqs[1] = 1;
        differentialCheck(buildCodeLengths(freqs, 7), 7, trial);
    }
}

TEST(HuffmanDecodeDifferential, FifteenBitDynamicBlockRoundTrips)
{
    // Synthetic frequencies give both alphabets 15-bit codes; every
    // symbol is coded, and the tokens pick length and distance codes
    // uniformly so the longest codes occur often.
    deflate::SymbolFreqs freqs;
    auto fib = fibonacciFreqs(30);
    for (size_t s = 0; s < freqs.litlen.size(); ++s)
        freqs.litlen[s] = 1 + (s % 7 == 0 ? fib[s % 30] : 0);
    freqs.dist = fib;
    auto codes = deflate::buildDynamicCodes(freqs);
    ASSERT_EQ(longestCode(codes.litlenLengths), 15);
    ASSERT_EQ(longestCode(codes.distLengths), 15);

    util::Xoshiro256 rng(2024);
    std::vector<deflate::Token> tokens;
    std::vector<uint8_t> expected;
    while (expected.size() < 120000) {
        if (expected.size() < 40000 || rng.below(2) == 0) {
            auto b = static_cast<uint8_t>(rng.below(256));
            tokens.push_back(deflate::Token::lit(b));
            expected.push_back(b);
            continue;
        }
        size_t lc = rng.below(29);
        int length = static_cast<int>(deflate::kLengthBase[lc] +
            rng.below(size_t{1} << deflate::kLengthExtra[lc]));
        size_t dc = rng.below(30);
        int dist = static_cast<int>(deflate::kDistBase[dc] +
            rng.below(size_t{1} << deflate::kDistExtra[dc]));
        tokens.push_back(deflate::Token::match(length, dist));
        size_t from = expected.size() - static_cast<size_t>(dist);
        for (int i = 0; i < length; ++i)
            expected.push_back(expected[from + static_cast<size_t>(i)]);
    }

    util::BitWriter bw;
    bw.writeBits(1, 1);    // BFINAL
    bw.writeBits(2, 2);    // dynamic Huffman
    deflate::writeDynamicHeader(bw, codes);
    deflate::emitTokens(bw, tokens, codes.litlen, codes.dist);
    auto stream = bw.take();

    auto one = deflate::inflateDecompress(stream);
    ASSERT_EQ(one.status, deflate::InflateStatus::Ok);
    EXPECT_EQ(one.bytes, expected);
    EXPECT_EQ(one.stats.dynamicBlocks, 1u);

    deflate::InflateStream is;
    std::vector<uint8_t> out;
    for (size_t i = 0; i < stream.size(); ++i) {
        auto st = is.feed(std::span<const uint8_t>(&stream[i], 1), out);
        ASSERT_NE(st, deflate::StreamStatus::Error) << "byte " << i;
    }
    EXPECT_TRUE(is.done());
    EXPECT_EQ(out, expected);
}
