/**
 * @file
 * End-to-end software codec round trips: deflateCompress -> inflate for
 * every level, several data shapes and sizes, including parameterized
 * property-style sweeps.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>

#include "deflate/deflate_encoder.h"
#include "deflate/inflate_decoder.h"
#include "util/prng.h"

using deflate::DeflateOptions;
using deflate::deflateCompress;
using deflate::inflateDecompress;

namespace {

enum class Shape
{
    Random,
    Zeros,
    Text,
    Cyclic,
    NearlyZero,
    Ascending,
};

const char *
shapeName(Shape s)
{
    switch (s) {
      case Shape::Random: return "Random";
      case Shape::Zeros: return "Zeros";
      case Shape::Text: return "Text";
      case Shape::Cyclic: return "Cyclic";
      case Shape::NearlyZero: return "NearlyZero";
      case Shape::Ascending: return "Ascending";
    }
    return "?";
}

std::vector<uint8_t>
makeData(Shape shape, size_t n, uint64_t seed)
{
    util::Xoshiro256 rng(seed);
    std::vector<uint8_t> v(n);
    switch (shape) {
      case Shape::Random:
        for (auto &b : v)
            b = static_cast<uint8_t>(rng.next());
        break;
      case Shape::Zeros:
        break;
      case Shape::Text: {
        static const char *words[] = {"lorem", "ipsum", "dolor", "sit",
            "amet", "consectetur", "adipiscing", "elit", "sed", "do"};
        size_t i = 0;
        while (i < n) {
            const char *w = words[rng.below(10)];
            size_t len = std::strlen(w);
            for (size_t j = 0; j < len && i < n; ++j)
                v[i++] = static_cast<uint8_t>(w[j]);
            if (i < n)
                v[i++] = ' ';
        }
        break;
      }
      case Shape::Cyclic:
        for (size_t i = 0; i < n; ++i)
            v[i] = static_cast<uint8_t>(i % 251);
        break;
      case Shape::NearlyZero:
        for (auto &b : v)
            b = rng.chance(0.02) ? static_cast<uint8_t>(rng.next()) : 0;
        break;
      case Shape::Ascending:
        for (size_t i = 0; i < n; ++i)
            v[i] = static_cast<uint8_t>(i & 0xff);
        break;
    }
    return v;
}

} // namespace

/** (level, shape, size) sweep. */
class RoundTrip : public ::testing::TestWithParam<
    std::tuple<int, Shape, size_t>>
{
};

TEST_P(RoundTrip, LosslessAtEveryLevel)
{
    auto [level, shape, size] = GetParam();
    auto input = makeData(shape, size,
                          0xc0ffee + size + static_cast<size_t>(level));

    DeflateOptions opts;
    opts.level = level;
    auto compressed = deflateCompress(input, opts);
    auto out = inflateDecompress(compressed.bytes);
    ASSERT_TRUE(out.ok()) << "level " << level << " shape "
        << shapeName(shape) << " size " << size << ": "
        << deflate::toString(out.status);
    ASSERT_EQ(out.bytes.size(), input.size());
    EXPECT_TRUE(out.bytes == input);
}

namespace {

std::string
roundTripName(
    const ::testing::TestParamInfo<std::tuple<int, Shape, size_t>> &info)
{
    int level = std::get<0>(info.param);
    Shape shape = std::get<1>(info.param);
    size_t size = std::get<2>(info.param);
    return std::string("L") + std::to_string(level) + "_" +
        shapeName(shape) + "_" + std::to_string(size);
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Levels, RoundTrip,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
        ::testing::Values(Shape::Random, Shape::Zeros, Shape::Text,
                          Shape::Cyclic, Shape::NearlyZero,
                          Shape::Ascending),
        ::testing::Values(size_t{0}, size_t{1}, size_t{100},
                          size_t{65536}, size_t{300000})),
    roundTripName);

TEST(DeflateEncoder, EmptyInputProducesValidStream)
{
    auto res = deflateCompress({});
    EXPECT_FALSE(res.bytes.empty());
    auto out = inflateDecompress(res.bytes);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out.bytes.empty());
}

TEST(DeflateEncoder, RandomDataFallsBackToStored)
{
    auto input = makeData(Shape::Random, 200000, 42);
    auto res = deflateCompress(input);
    // Incompressible data should mostly use stored blocks, keeping
    // expansion under the stored-block framing overhead (~0.03 %).
    EXPECT_GE(res.stats.storedBlocks, 1u);
    EXPECT_LT(res.bytes.size(), input.size() + input.size() / 100 + 64);
}

TEST(DeflateEncoder, TextUsesDynamicBlocksAndCompresses)
{
    auto input = makeData(Shape::Text, 200000, 43);
    auto res = deflateCompress(input);
    EXPECT_GE(res.stats.dynamicBlocks, 1u);
    EXPECT_LT(res.bytes.size(), input.size() / 3);
}

TEST(DeflateEncoder, ZerosCompressExtremely)
{
    auto input = makeData(Shape::Zeros, 1 << 20, 0);
    auto res = deflateCompress(input);
    EXPECT_LT(res.bytes.size(), 2048u);
    auto out = inflateDecompress(res.bytes);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.bytes, input);
}

TEST(DeflateEncoder, HigherLevelsNeverMuchWorse)
{
    auto input = makeData(Shape::Text, 300000, 45);
    size_t prev = SIZE_MAX;
    for (int level : {1, 6, 9}) {
        DeflateOptions opts;
        opts.level = level;
        auto res = deflateCompress(input, opts);
        // Allow 2 % slack (lazy heuristics are not strictly monotonic).
        EXPECT_LT(res.bytes.size(), prev + prev / 50 + 64)
            << "level " << level;
        prev = res.bytes.size();
        auto out = inflateDecompress(res.bytes);
        ASSERT_TRUE(out.ok());
        ASSERT_EQ(out.bytes, input);
    }
}

TEST(DeflateEncoder, SmallBlockSizeStillRoundTrips)
{
    auto input = makeData(Shape::Text, 100000, 46);
    DeflateOptions opts;
    opts.blockBytes = 4096;
    auto res = deflateCompress(input, opts);
    EXPECT_GE(res.stats.dynamicBlocks + res.stats.fixedBlocks +
                  res.stats.storedBlocks,
              20u);
    auto out = inflateDecompress(res.bytes);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.bytes, input);
}

TEST(DeflateEncoder, MatchesCrossBlockBoundaries)
{
    // Two copies of one page, one page per block: the second block is
    // one long match into the first, so the pair costs little more
    // than the page alone.
    auto page = makeData(Shape::Text, 4096, 48);
    std::vector<uint8_t> two(page);
    two.insert(two.end(), page.begin(), page.end());
    DeflateOptions opts;
    opts.blockBytes = 4096;
    auto one = deflateCompress(page, opts);
    auto res = deflateCompress(two, opts);
    EXPECT_LT(res.bytes.size() * 4, one.bytes.size() * 5);
    auto out = inflateDecompress(res.bytes);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.bytes, two);
}

TEST(DeflateEncoder, MultiBlockBoundariesExact)
{
    // Sizes straddling the block size expose off-by-one block loops.
    for (size_t size : {(1u << 18) - 1, 1u << 18, (1u << 18) + 1}) {
        auto input = makeData(Shape::Cyclic, size, size);
        auto res = deflateCompress(input);
        auto out = inflateDecompress(res.bytes);
        ASSERT_TRUE(out.ok()) << size;
        ASSERT_EQ(out.bytes, input) << size;
    }
}

TEST(DeflateEncoder, StatsAreConsistent)
{
    auto input = makeData(Shape::Text, 100000, 47);
    auto res = deflateCompress(input);
    EXPECT_GT(res.stats.tokenCount, 0u);
    EXPECT_GT(res.stats.chainSteps, 0u);
    EXPECT_EQ(res.stats.storedBlocks + res.stats.fixedBlocks +
                  res.stats.dynamicBlocks,
              1u);
}
