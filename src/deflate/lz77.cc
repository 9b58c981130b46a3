#include "deflate/lz77.h"

#include <algorithm>
#include "util/checked.h"
#include "util/contracts.h"

namespace deflate {

TokenStats
summarize(std::span<const Token> tokens)
{
    TokenStats s;
    for (const Token &t : tokens) {
        if (t.isLiteral()) {
            ++s.literals;
        } else {
            ++s.matches;
            s.matchedBytes += t.length;
        }
    }
    return s;
}

std::vector<uint8_t>
expandTokens(std::span<const Token> tokens)
{
    std::vector<uint8_t> out;
    for (const Token &t : tokens) {
        if (t.isLiteral()) {
            out.push_back(t.literal);
            continue;
        }
        if (t.dist == 0 || t.dist > out.size())
            return {};    // invalid reference; caller treats as failure
        size_t start = out.size() - static_cast<size_t>(t.dist);
        for (size_t i = 0; i < static_cast<size_t>(t.length); ++i)
            out.push_back(out[start + i]);    // handles overlap correctly
    }
    return out;
}

bool
tokensReproduce(std::span<const Token> tokens,
                std::span<const uint8_t> input)
{
    size_t pos = 0;
    for (const Token &t : tokens) {
        if (t.isLiteral()) {
            if (pos >= input.size() || input[pos] != t.literal)
                return false;
            ++pos;
            continue;
        }
        if (t.length < kMinMatch || t.length > kMaxMatch)
            return false;
        if (t.dist == 0 || t.dist > pos || t.dist > kWindowSize)
            return false;
        if (pos + t.length > input.size())
            return false;
        for (size_t i = 0; i < static_cast<size_t>(t.length); ++i)
            if (input[pos + i] !=
                input[pos - static_cast<size_t>(t.dist) + i])
                return false;
        pos += static_cast<size_t>(t.length);
    }
    return pos == input.size();
}

Lz77Matcher::Lz77Matcher(const LevelParams &params)
    : params_(params),
      head_(std::make_unique_for_overwrite<uint32_t[]>(kHashSize)),
      prev_(std::make_unique_for_overwrite<uint32_t[]>(kWindowSize))
{
}

void
Lz77Matcher::insert(std::span<const uint8_t> in, size_t pos)
{
    if (pos + kMinMatch > in.size())
        return;
    uint32_t h = hash3(in.data() + pos);
    prev_[pos & (kWindowSize - 1)] = head_[h];
    head_[h] = nx::checked_cast<uint32_t>(pos);
}

int
Lz77Matcher::findMatch(std::span<const uint8_t> in, size_t pos,
                       int max_chain, int nice_length, int &match_dist)
{
    if (pos + kMinMatch > in.size())
        return 0;

    const uint8_t *cur = in.data() + pos;
    size_t max_len = std::min<size_t>(kMaxMatch, in.size() - pos);
    size_t limit = pos >= kWindowSize ? pos - kWindowSize + 1 : 0;

    int best_len = 0;
    int best_dist = 0;

    uint32_t cand = head_[hash3(cur)];
    int chain = max_chain;
    while (cand != kNoPos && cand >= limit && cand < pos && chain-- > 0) {
        ++chainSteps_;
        const uint8_t *ref = in.data() + cand;
        // Quick reject: match must beat best_len, so check that byte first.
        if (best_len > 0 &&
            (static_cast<size_t>(best_len) >= max_len ||
             ref[best_len] != cur[best_len])) {
            cand = prev_[cand & (kWindowSize - 1)];
            continue;
        }
        size_t len = commonPrefix(ref, cur, max_len);
        if (nx::checked_cast<int>(len) > best_len) {
            best_len = nx::checked_cast<int>(len);
            best_dist = nx::checked_cast<int>(pos - cand);
            if (best_len >= nice_length)
                break;
        }
        cand = prev_[cand & (kWindowSize - 1)];
    }

    if (best_len < kMinMatch)
        return 0;
    match_dist = best_dist;
    return best_len;
}

std::vector<Token>
Lz77Matcher::tokenize(std::span<const uint8_t> input)
{
    return tokenize(input, 0);
}

std::vector<Token>
Lz77Matcher::tokenize(std::span<const uint8_t> input, size_t start)
{
    NXSIM_EXPECT(start <= input.size(), "history longer than the input");
    chainSteps_ = 0;

    std::vector<Token> out;
    out.reserve((input.size() - start) / 3);

    if (params_.store) {
        for (size_t p = start; p < input.size(); ++p)
            out.push_back(Token::lit(input[p]));
        return out;
    }

    // prev_ is never cleared, as in zlib: a chain reads prev_[p & mask]
    // only for a position p that head_ or prev_ handed out, so this call
    // inserted p, and only while p is inside the window of the position
    // searched, so every later insert, being below that position and so
    // below p + kWindowSize, used another slot.
    std::fill_n(head_.get(), kHashSize, kNoPos);

    // Prime the hash table with the history prefix (only the last
    // window's worth can ever be referenced).
    size_t prime_from = start > static_cast<size_t>(kWindowSize)
        ? start - kWindowSize : 0;
    for (size_t p = prime_from; p < start; ++p)
        insert(input, p);

    size_t pos = start;
    // State for lazy matching: a pending match from the previous position.
    bool have_prev = false;
    int prev_len = 0;
    int prev_dist = 0;

    while (pos < input.size()) {
        int dist = 0;
        int len = 0;
        // A pending match of maxLazy or more is emitted whatever this
        // position holds, so zlib's deflate_slow skips the search.
        if (!have_prev || prev_len < params_.maxLazy) {
            int chain = params_.maxChain;
            // zlib quarters the chain effort when the previous match was
            // already "good"; model the same economy.
            if (have_prev && prev_len >= params_.goodLength)
                chain >>= 2;
            len = findMatch(input, pos, chain, params_.niceLength, dist);
        }

        if (!params_.lazy) {
            // deflate_fast: take matches greedily.
            if (len >= kMinMatch) {
                out.push_back(Token::match(len, dist));
                // Insert hash entries for the match body (bounded, as in
                // zlib, to keep long matches cheap).
                size_t end = pos + static_cast<size_t>(len);
                insert(input, pos);
                for (size_t p = pos + 1; p < end; ++p)
                    insert(input, p);
                pos = end;
            } else {
                out.push_back(Token::lit(input[pos]));
                insert(input, pos);
                ++pos;
            }
            continue;
        }

        // deflate_slow: defer the decision one byte to catch longer
        // matches starting at pos+1.
        if (have_prev) {
            if (len <= prev_len) {
                // Emit the previous match, which covers pos-1 ..
                // pos-1+prev_len-1; pos-1 is already inserted.
                out.push_back(Token::match(prev_len, prev_dist));
                size_t end = (pos - 1) + static_cast<size_t>(prev_len);
                for (size_t p = pos; p < end; ++p)
                    insert(input, p);
                pos = end;
                have_prev = false;
                continue;
            }
            // Current position has a longer match: previous byte becomes
            // a literal.
            out.push_back(Token::lit(input[pos - 1]));
        }

        if (len >= kMinMatch) {
            have_prev = true;
            prev_len = len;
            prev_dist = dist;
            insert(input, pos);
            ++pos;
        } else {
            have_prev = false;
            out.push_back(Token::lit(input[pos]));
            insert(input, pos);
            ++pos;
        }
    }

    if (have_prev) {
        // Input ended while holding a pending match: the final decision
        // defaults to emitting it.
        out.push_back(Token::match(prev_len, prev_dist));
    }

    return out;
}

} // namespace deflate
