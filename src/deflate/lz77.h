/**
 * @file
 * LZ77 string matching with hash chains and lazy evaluation — the same
 * algorithm family as zlib's deflate_slow/deflate_fast, parameterised by
 * the per-level tuning knobs in LevelParams.
 *
 * The matcher turns an input buffer into a stream of Tokens (literal or
 * length/distance reference). Token streams are the interchange format
 * between the match stage and the entropy-coding stage in both the
 * software codec and the accelerator model.
 */

#ifndef NXSIM_DEFLATE_LZ77_H
#define NXSIM_DEFLATE_LZ77_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "deflate/constants.h"
#include "deflate/level_params.h"
#include "util/checked.h"

namespace deflate {

/** One LZ77 token: a literal byte or a (length, distance) back-reference. */
struct Token
{
    uint16_t length = 0;    // 0 => literal
    uint16_t dist = 0;      // 1..32768 for matches
    uint8_t literal = 0;    // valid when length == 0

    static Token
    lit(uint8_t b)
    {
        return Token{0, 0, b};
    }

    static Token
    match(int len, int d)
    {
        return Token{nx::checked_cast<uint16_t>(len),
                     nx::checked_cast<uint16_t>(d), 0};
    }

    bool isLiteral() const { return length == 0; }
};

/** Aggregate statistics of a token stream, used by cost models. */
struct TokenStats
{
    uint64_t literals = 0;
    uint64_t matches = 0;
    uint64_t matchedBytes = 0;

    /** Bytes of input the stream covers. */
    uint64_t coveredBytes() const { return literals + matchedBytes; }
};

/** Compute aggregate stats of @p tokens. */
TokenStats summarize(std::span<const Token> tokens);

/**
 * Verify that a token stream reproduces @p input exactly (every match
 * points inside the 32 KB window at previously emitted data). Used by
 * tests and by the accelerator model's self-check mode.
 */
bool tokensReproduce(std::span<const Token> tokens,
                     std::span<const uint8_t> input);

/** Expand a token stream back into bytes (reference decoder for tests). */
std::vector<uint8_t> expandTokens(std::span<const Token> tokens);

/**
 * Hash-chain LZ77 matcher.
 *
 * Single-shot: feed the whole buffer, get the whole token stream. The
 * window behaviour (max distance 32 KB) matches streaming zlib; only the
 * buffering model differs, which does not affect ratio.
 */
class Lz77Matcher
{
  public:
    explicit Lz77Matcher(const LevelParams &params);

    /** Tokenize @p input. Deterministic for a given (input, params). */
    std::vector<Token> tokenize(std::span<const uint8_t> input);

    /**
     * Tokenize @p input starting at byte @p start, treating bytes
     * [0, start) as already-emitted history: they are inserted into
     * the hash table and matches may reference them, but no tokens
     * are produced for them. This is the streaming-compression
     * primitive — the caller passes [last-32K-window | new chunk].
     */
    std::vector<Token> tokenize(std::span<const uint8_t> input,
                                size_t start);

    /** Number of hash-chain links walked during the last tokenize(). */
    uint64_t chainSteps() const { return chainSteps_; }

  private:
    /** 3-byte rolling hash, zlib-style. */
    static uint32_t
    hash3(const uint8_t *p)
    {
        uint32_t v = nx::checked_cast<uint32_t>(p[0]) |
            (nx::checked_cast<uint32_t>(p[1]) << 8) |
            (nx::checked_cast<uint32_t>(p[2]) << 16);
        return (v * 0x9e3779b1u) >> (32 - kHashBits);
    }

    /**
     * Longest match at @p pos against chain candidates; the first
     * candidate reaching the longest length wins.
     * @return length (0 or >= kMinMatch) and sets @p match_dist
     */
    int findMatch(std::span<const uint8_t> in, size_t pos, int max_chain,
                  int nice_length, int &match_dist);

    void insert(std::span<const uint8_t> in, size_t pos);

    static constexpr int kHashBits = 15;
    static constexpr size_t kHashSize = size_t{1} << kHashBits;
    static constexpr uint32_t kNoPos = 0xffffffffu;

    LevelParams params_;
    std::unique_ptr<uint32_t[]> head_;   // hash -> most recent position
    std::unique_ptr<uint32_t[]> prev_;   // position & window mask -> older
    uint64_t chainSteps_ = 0;
};

} // namespace deflate

#endif // NXSIM_DEFLATE_LZ77_H
