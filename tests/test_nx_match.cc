/**
 * @file
 * Accelerator match-stage tests: banked hash table semantics, the
 * match pipeline's functional correctness (token streams reproduce the
 * input) and its timing behaviour (streaming floor, stalls, the
 * compressible-runs-faster effect).
 */

#include <gtest/gtest.h>

#include "deflate/lz77.h"
#include "nx/hash_table.h"
#include "nx/match_pipeline.h"
#include "workloads/corpus.h"

using nx::BankedHashTable;
using nx::HashConfig;
using nx::MatchPipeline;
using nx::NxConfig;

TEST(BankedHashTable, InsertAndLookupRecencyOrder)
{
    HashConfig cfg;
    cfg.indexBits = 4;
    cfg.ways = 4;
    BankedHashTable t(cfg);
    t.insert(3, 100);
    t.insert(3, 200);
    t.insert(3, 300);
    auto hits = t.lookup(3);
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[0], 300u);
    EXPECT_EQ(hits[1], 200u);
    EXPECT_EQ(hits[2], 100u);
}

TEST(BankedHashTable, EvictsOldestBeyondWays)
{
    HashConfig cfg;
    cfg.indexBits = 4;
    cfg.ways = 2;
    BankedHashTable t(cfg);
    t.insert(7, 1);
    t.insert(7, 2);
    t.insert(7, 3);    // evicts 1
    auto hits = t.lookup(7);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0], 3u);
    EXPECT_EQ(hits[1], 2u);
}

TEST(BankedHashTable, ClearForgets)
{
    HashConfig cfg;
    BankedHashTable t(cfg);
    t.insert(0, 42);
    t.clear();
    EXPECT_TRUE(t.lookup(0).empty());
}

TEST(BankedHashTable, HashUsesMinMatchPrefix)
{
    HashConfig cfg;
    cfg.minMatch = 4;
    BankedHashTable t(cfg);
    const uint8_t a[] = {1, 2, 3, 4, 0};
    const uint8_t b[] = {1, 2, 3, 5, 0};
    // Differing 4th byte must (usually) change the hash; at minimum the
    // function must read it. Weak check: not guaranteed different, but
    // with this hash they are.
    EXPECT_NE(t.hashAt(a), t.hashAt(b));
}

TEST(BankedHashTable, SramBitsScaleWithGeometry)
{
    HashConfig small;
    small.indexBits = 10;
    HashConfig big;
    big.indexBits = 14;
    EXPECT_GT(BankedHashTable(big).sramBits(),
              BankedHashTable(small).sramBits() * 8);
}

class MatchPipelineTest : public ::testing::Test
{
  protected:
    NxConfig cfg_ = NxConfig::power9();
};

TEST_F(MatchPipelineTest, TokensReproduceText)
{
    auto input = workloads::makeText(256 * 1024, 21);
    MatchPipeline pipe(cfg_);
    auto res = pipe.run(input);
    EXPECT_TRUE(deflate::tokensReproduce(res.tokens, input));
}

TEST_F(MatchPipelineTest, TokensReproduceAllCorpusMembers)
{
    for (const auto &file : workloads::standardCorpus(64 * 1024)) {
        MatchPipeline pipe(cfg_);
        auto res = pipe.run(file.data);
        EXPECT_TRUE(deflate::tokensReproduce(res.tokens, file.data))
            << file.name;
    }
}

TEST_F(MatchPipelineTest, EmptyInput)
{
    MatchPipeline pipe(cfg_);
    auto res = pipe.run({});
    EXPECT_TRUE(res.tokens.empty());
    EXPECT_EQ(res.cycles, 0u);
}

TEST_F(MatchPipelineTest, StreamingFloorRespected)
{
    auto input = workloads::makeRandom(64 * 1024, 22);
    MatchPipeline pipe(cfg_);
    auto res = pipe.run(input);
    uint64_t floor = (input.size() +
        static_cast<size_t>(cfg_.compressBytesPerCycle) - 1) /
        static_cast<size_t>(cfg_.compressBytesPerCycle);
    EXPECT_GE(res.cycles, floor);
    EXPECT_EQ(res.rows, floor);
}

TEST_F(MatchPipelineTest, CompressibleDataRunsNoSlower)
{
    auto text = workloads::makeText(1 << 20, 23);
    auto rand = workloads::makeRandom(1 << 20, 24);
    MatchPipeline p1(cfg_);
    MatchPipeline p2(cfg_);
    auto rText = p1.run(text);
    auto rRand = p2.run(rand);
    // Matches cover bytes without lookups, so compressible input needs
    // no more cycles (typically fewer stalls).
    EXPECT_LE(rText.cycles, rRand.cycles + rRand.cycles / 10);
    EXPECT_LT(rText.lookups, rRand.lookups);
}

TEST_F(MatchPipelineTest, WindowLimitRespected)
{
    // Repeat a chunk beyond the 32 KiB window; matches must not refer
    // farther back than the window.
    auto chunk = workloads::makeText(1024, 25);
    std::vector<uint8_t> input;
    auto filler = workloads::makeRandom(40000, 26);
    input.insert(input.end(), chunk.begin(), chunk.end());
    input.insert(input.end(), filler.begin(), filler.end());
    input.insert(input.end(), chunk.begin(), chunk.end());

    MatchPipeline pipe(cfg_);
    auto res = pipe.run(input);
    ASSERT_TRUE(deflate::tokensReproduce(res.tokens, input));
    for (const auto &t : res.tokens) {
        if (!t.isLiteral()) {
            EXPECT_LE(t.dist, cfg_.windowBytes);
        }
    }
}

TEST_F(MatchPipelineTest, MinMatchRespected)
{
    auto input = workloads::makeMixed(128 * 1024, 27);
    MatchPipeline pipe(cfg_);
    auto res = pipe.run(input);
    for (const auto &t : res.tokens) {
        if (!t.isLiteral()) {
            EXPECT_GE(t.length, cfg_.hash.minMatch);
        }
    }
}

TEST_F(MatchPipelineTest, WiderPipeFewerCycles)
{
    auto input = workloads::makeText(1 << 20, 28);
    NxConfig narrow = cfg_;
    narrow.compressBytesPerCycle = 2;
    NxConfig wide = cfg_;
    wide.compressBytesPerCycle = 8;
    MatchPipeline pn(narrow);
    MatchPipeline pw(wide);
    auto rn = pn.run(input);
    auto rw = pw.run(input);
    EXPECT_LT(rw.cycles, rn.cycles);
    // Tokens are identical — the pipe width is timing-only.
    ASSERT_EQ(rw.tokens.size(), rn.tokens.size());
}

TEST_F(MatchPipelineTest, MatchQualityBelowSoftwareLevel9)
{
    // The paper's trade-off: hardware's way-limited table finds fewer /
    // shorter matches than software's deep chains.
    auto input = workloads::makeText(512 * 1024, 29);
    MatchPipeline pipe(cfg_);
    auto hw = pipe.run(input);

    deflate::Lz77Matcher sw(deflate::levelParams(9));
    auto swTokens = sw.tokenize(input);

    auto hwStats = deflate::summarize(hw.tokens);
    auto swStats = deflate::summarize(swTokens);
    // Software should cover at least as many bytes with matches.
    EXPECT_GE(swStats.matchedBytes + swStats.matchedBytes / 20,
              hwStats.matchedBytes);
}

TEST_F(MatchPipelineTest, DeterministicAcrossRuns)
{
    auto input = workloads::makeJson(128 * 1024, 30);
    MatchPipeline p1(cfg_);
    MatchPipeline p2(cfg_);
    auto r1 = p1.run(input);
    auto r2 = p2.run(input);
    EXPECT_EQ(r1.cycles, r2.cycles);
    ASSERT_EQ(r1.tokens.size(), r2.tokens.size());
}
