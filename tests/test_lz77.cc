/**
 * @file
 * LZ77 matcher tests: token validity (tokensReproduce), window limits,
 * lazy-vs-fast behaviour, and the token helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "deflate/lz77.h"
#include "util/prng.h"

using deflate::expandTokens;
using deflate::levelParams;
using deflate::Lz77Matcher;
using deflate::summarize;
using deflate::Token;
using deflate::tokensReproduce;

namespace {

std::vector<uint8_t>
bytesOf(const std::string &s)
{
    return {s.begin(), s.end()};
}

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    util::Xoshiro256 rng(seed);
    std::vector<uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<uint8_t>(rng.next());
    return v;
}

std::vector<uint8_t>
repetitiveText(size_t n, uint64_t seed)
{
    static const char *words[] = {"the", "quick", "brown", "fox",
        "jumps", "over", "lazy", "dog", "compression", "accelerator"};
    util::Xoshiro256 rng(seed);
    std::vector<uint8_t> v;
    while (v.size() < n) {
        const char *w = words[rng.below(10)];
        v.insert(v.end(), w, w + std::strlen(w));
        v.push_back(' ');
    }
    v.resize(n);
    return v;
}

/**
 * @p n bytes in which no 3-byte string occurs twice: each byte is drawn
 * at random and bumped until the string it ends is new.
 */
std::vector<uint8_t>
uniqueTrigrams(size_t n, uint64_t seed)
{
    util::Xoshiro256 rng(seed);
    std::vector<bool> seen(size_t{1} << 24);
    std::vector<uint8_t> v;
    while (v.size() < n) {
        auto b = static_cast<uint8_t>(rng.next());
        if (v.size() >= 2) {
            size_t key = (size_t{v[v.size() - 2]} << 16) |
                (size_t{v.back()} << 8);
            while (seen[key | b])
                ++b;
            seen[key | b] = true;
        }
        v.push_back(b);
    }
    return v;
}

/** Tokens equal field by field. */
bool
sameTokens(const std::vector<Token> &a, const std::vector<Token> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const Token &x, const Token &y) {
                          return x.length == y.length && x.dist == y.dist &&
                              x.literal == y.literal;
                      });
}

} // namespace

TEST(Token, Helpers)
{
    Token l = Token::lit(0x41);
    EXPECT_TRUE(l.isLiteral());
    EXPECT_EQ(l.literal, 0x41);
    Token m = Token::match(17, 300);
    EXPECT_FALSE(m.isLiteral());
    EXPECT_EQ(m.length, 17);
    EXPECT_EQ(m.dist, 300);
}

TEST(ExpandTokens, RebuildsOverlappedCopy)
{
    // "abcabcabc" via a classic overlapping match (dist 3, len 6).
    std::vector<Token> tokens = {
        Token::lit('a'), Token::lit('b'), Token::lit('c'),
        Token::match(6, 3),
    };
    auto out = expandTokens(tokens);
    EXPECT_EQ(std::string(out.begin(), out.end()), "abcabcabc");
}

TEST(ExpandTokens, InvalidDistanceReturnsEmpty)
{
    std::vector<Token> tokens = {Token::lit('x'), Token::match(3, 5)};
    EXPECT_TRUE(expandTokens(tokens).empty());
}

TEST(TokensReproduce, DetectsCorruption)
{
    auto input = bytesOf("abcabcabc");
    std::vector<Token> good = {
        Token::lit('a'), Token::lit('b'), Token::lit('c'),
        Token::match(6, 3),
    };
    EXPECT_TRUE(tokensReproduce(good, input));
    std::vector<Token> bad = good;
    bad[3] = Token::match(6, 2);
    EXPECT_FALSE(tokensReproduce(bad, input));
    std::vector<Token> shortTokens(good.begin(), good.end() - 1);
    EXPECT_FALSE(tokensReproduce(shortTokens, input));
}

TEST(Lz77, EmptyInput)
{
    Lz77Matcher m(levelParams(6));
    auto tokens = m.tokenize({});
    EXPECT_TRUE(tokens.empty());
}

TEST(Lz77, AllLiteralsOnRandomData)
{
    auto input = randomBytes(4096, 1);
    Lz77Matcher m(levelParams(6));
    auto tokens = m.tokenize(input);
    ASSERT_TRUE(tokensReproduce(tokens, input));
    auto s = summarize(tokens);
    // Random bytes have almost no 3-byte repeats within 32 KB; expect the
    // stream to be dominated by literals.
    EXPECT_GT(s.literals * 10, s.matchedBytes);
}

TEST(Lz77, FindsLongRunMatch)
{
    std::vector<uint8_t> input(1000, 'x');
    Lz77Matcher m(levelParams(6));
    auto tokens = m.tokenize(input);
    ASSERT_TRUE(tokensReproduce(tokens, input));
    auto s = summarize(tokens);
    // One literal then RLE-style matches at distance 1.
    EXPECT_LE(s.literals, 3u);
    EXPECT_GE(s.matchedBytes, 990u);
}

TEST(Lz77, MaxMatchLengthRespected)
{
    std::vector<uint8_t> input(10000, 'y');
    Lz77Matcher m(levelParams(9));
    auto tokens = m.tokenize(input);
    for (const Token &t : tokens) {
        if (!t.isLiteral()) {
            EXPECT_LE(t.length, deflate::kMaxMatch);
        }
    }
    EXPECT_TRUE(tokensReproduce(tokens, input));
}

TEST(Lz77, WindowLimitRespected)
{
    // Two identical 1 KB chunks separated by > 32 KB of random data:
    // the second copy must NOT be matched against the first.
    auto chunk = repetitiveText(1024, 3);
    auto filler = randomBytes(40000, 4);
    std::vector<uint8_t> input;
    input.insert(input.end(), chunk.begin(), chunk.end());
    input.insert(input.end(), filler.begin(), filler.end());
    input.insert(input.end(), chunk.begin(), chunk.end());

    Lz77Matcher m(levelParams(9));
    auto tokens = m.tokenize(input);
    ASSERT_TRUE(tokensReproduce(tokens, input));
    for (const Token &t : tokens) {
        if (!t.isLiteral()) {
            EXPECT_LE(t.dist, deflate::kWindowSize);
        }
    }
}

TEST(Lz77, TextCompressesWell)
{
    auto input = repetitiveText(64 * 1024, 5);
    Lz77Matcher m(levelParams(6));
    auto tokens = m.tokenize(input);
    ASSERT_TRUE(tokensReproduce(tokens, input));
    auto s = summarize(tokens);
    // Word-repetitive text should be mostly matches.
    EXPECT_GT(s.matchedBytes, s.literals * 4);
}

TEST(Lz77, HigherLevelNeverWorseTokens)
{
    auto input = repetitiveText(32 * 1024, 6);
    Lz77Matcher fast(levelParams(1));
    Lz77Matcher best(levelParams(9));
    auto tf = fast.tokenize(input);
    auto tb = best.tokenize(input);
    ASSERT_TRUE(tokensReproduce(tf, input));
    ASSERT_TRUE(tokensReproduce(tb, input));
    // Level 9 should produce no more tokens than level 1 (better
    // matching => fewer, longer tokens). Allow small slack for lazy
    // corner cases.
    EXPECT_LE(tb.size(), tf.size() + tf.size() / 20);
}

TEST(Lz77, FastModeMatchesGreedily)
{
    auto input = bytesOf("abcdXabcdabcd");
    Lz77Matcher m(levelParams(1));    // non-lazy
    auto tokens = m.tokenize(input);
    ASSERT_TRUE(tokensReproduce(tokens, input));
    auto s = summarize(tokens);
    EXPECT_GE(s.matches, 1u);
}

TEST(Lz77, StoreLevelEmitsOnlyLiterals)
{
    auto input = repetitiveText(1000, 7);
    Lz77Matcher m(levelParams(0));
    auto tokens = m.tokenize(input);
    EXPECT_EQ(tokens.size(), input.size());
    for (const Token &t : tokens)
        EXPECT_TRUE(t.isLiteral());
}

TEST(Lz77, DeterministicAcrossRuns)
{
    auto input = repetitiveText(8192, 8);
    Lz77Matcher m1(levelParams(6));
    Lz77Matcher m2(levelParams(6));
    auto t1 = m1.tokenize(input);
    auto t2 = m2.tokenize(input);
    ASSERT_EQ(t1.size(), t2.size());
    for (size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].length, t2[i].length);
        EXPECT_EQ(t1[i].dist, t2[i].dist);
        EXPECT_EQ(t1[i].literal, t2[i].literal);
    }
}

TEST(Lz77, HistoryPrimedTokenizeReferencesHistory)
{
    // tokenize(buf, start) must emit tokens only for [start, end) but
    // may reference the primed history — the streaming/dictionary
    // primitive.
    auto chunk = repetitiveText(4096, 10);
    std::vector<uint8_t> buf(chunk);
    buf.insert(buf.end(), chunk.begin(), chunk.end());

    Lz77Matcher m(levelParams(6));
    auto tokens = m.tokenize(buf, chunk.size());
    // Tokens cover exactly the second copy.
    size_t covered = 0;
    bool crossed = false;
    for (const auto &t : tokens) {
        if (t.isLiteral()) {
            ++covered;
        } else {
            if (t.dist > covered)
                crossed = true;    // reaches into the history
            covered += t.length;
        }
    }
    EXPECT_EQ(covered, chunk.size());
    EXPECT_TRUE(crossed);
    // The duplicate chunk should compress to almost pure matches.
    auto s = summarize(tokens);
    EXPECT_GT(s.matchedBytes, chunk.size() * 9 / 10);
}

TEST(LevelParams, TableMatchesZlibShape)
{
    // Spot-check the level table: effort knobs must grow with level.
    auto p1 = levelParams(1);
    auto p6 = levelParams(6);
    auto p9 = levelParams(9);
    EXPECT_FALSE(p1.lazy);
    EXPECT_TRUE(p6.lazy);
    EXPECT_LT(p1.maxChain, p6.maxChain);
    EXPECT_LT(p6.maxChain, p9.maxChain);
    EXPECT_LE(p6.niceLength, p9.niceLength);
    EXPECT_TRUE(levelParams(0).store);
    // Out-of-range clamps to the strongest setting.
    EXPECT_EQ(levelParams(42).maxChain, p9.maxChain);
}

TEST(Lz77, ChainStepsGrowWithLevel)
{
    auto input = repetitiveText(64 * 1024, 9);
    Lz77Matcher fast(levelParams(1));
    Lz77Matcher best(levelParams(9));
    fast.tokenize(input);
    uint64_t fastSteps = fast.chainSteps();
    best.tokenize(input);
    uint64_t bestSteps = best.chainSteps();
    EXPECT_GT(bestSteps, fastSteps);
}

TEST(Lz77, MatchLengthAtWordBoundaries)
{
    // A repeat of every length 3..258 at each distance, after filler in
    // which no 3-byte string recurs and ending 0-7 bytes before the end
    // of the input: the match extension must stop on exactly the last
    // equal byte, whichever 8-byte step it falls in. 32,767 is the
    // farthest distance the matcher reaches (pos - cand < kWindowSize).
    constexpr size_t kLead = 8;
    const auto filler = uniqueTrigrams(32767 + kLead, 21);
    for (int level : {1, 6, 9}) {
        Lz77Matcher m(levelParams(level));
        for (int d : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 4096, 32767}) {
            auto dist = static_cast<size_t>(d);
            for (size_t len = deflate::kMinMatch; len <= deflate::kMaxMatch;
                 ++len) {
                std::vector<uint8_t> in(filler.begin(),
                                        filler.begin() +
                                            static_cast<long>(dist + kLead));
                const size_t at = in.size();
                for (size_t i = 0; i < len; ++i)
                    in.push_back(in[in.size() - dist]);
                // The first byte after the repeat ends it.
                size_t tail = len % 8;
                for (size_t i = 0; i < tail; ++i)
                    in.push_back(static_cast<uint8_t>(~in[in.size() - dist]));

                auto tokens = m.tokenize(in);
                ASSERT_TRUE(tokensReproduce(tokens, in));
                size_t pos = 0;
                auto t = tokens.begin();
                for (; t != tokens.end() && pos < at; ++t)
                    pos += t->isLiteral() ? size_t{1} : size_t{t->length};
                ASSERT_EQ(pos, at) << "a token crosses the repeat's start";
                ASSERT_NE(t, tokens.end());
                ASSERT_EQ(t->length, len) << "level " << level << ", dist "
                                          << dist << ", tail " << tail;
                ASSERT_EQ(t->dist, dist);
            }
        }
    }
}

TEST(Lz77, ReusedMatcherMatchesFreshOne)
{
    // The hash chains are never cleared between calls, so a second call
    // on one matcher must not read a chain link the first call left.
    auto big = repetitiveText(100 * 1024, 11);
    auto small = repetitiveText(4 * 1024, 12);
    for (int level : {1, 4, 6, 9}) {
        Lz77Matcher reused(levelParams(level));
        reused.tokenize(big);
        auto again = reused.tokenize(small);
        Lz77Matcher fresh(levelParams(level));
        auto once = fresh.tokenize(small);
        EXPECT_TRUE(sameTokens(again, once)) << "level " << level;
        EXPECT_EQ(reused.chainSteps(), fresh.chainSteps()) << "level "
                                                           << level;
    }
}

TEST(Lz77DeathTest, StartPastTheInputIsAContractViolation)
{
    std::vector<uint8_t> input(16, 'a');
    Lz77Matcher m(levelParams(6));
    EXPECT_DEATH(m.tokenize(input, input.size() + 1),
                 "history longer than the input");
}
