#include "nx/match_pipeline.h"

#include <algorithm>
#include "util/checked.h"
#include "util/contracts.h"

namespace nx {

using deflate::commonPrefix;
using deflate::equalBytes;
using deflate::kMaxMatch;
using deflate::loadWord;
using deflate::Token;

MatchPipeline::MatchPipeline(const NxConfig &cfg)
    : cfg_(cfg), table_(cfg.hash)
{
    NXSIM_EXPECT(cfg_.compressBytesPerCycle >= 1,
                 "compressBytesPerCycle must be at least 1");
}

int
MatchPipeline::bestMatch(std::span<const uint8_t> in, size_t pos,
                         uint32_t set, uint64_t &tried,
                         int &out_dist) const
{
    const BankedHashTable::Ways ways = table_.lookup(set);
    tried += ways.size();

    const size_t n = in.size();
    const size_t max_len = std::min<size_t>(kMaxMatch, n - pos);
    const auto window = static_cast<size_t>(cfg_.windowBytes);
    const size_t limit = pos >= window ? pos - window + 1 : 0;
    const uint8_t *cur = in.data() + pos;

    // The winner's key is (length << 8) | (255 - way): the longest
    // length wins, and of equal lengths the most recent way. A stale
    // way (outside the window) keys 0 and so never wins.
    size_t best = 0;
    auto offer = [&best](size_t len, size_t way) {
        best = std::max(best, (len << 8) | (255 - way));
    };
    if (pos + 8 <= n) {
        // Every way at once: one 8-byte word per candidate, and the
        // winner by a max over keys. A stale way loads the position
        // itself, so every load stays inside the input. The ways whose
        // eight bytes all match are listed in `full` as they pass
        // (each slot is written before n_full covers it).
        const uint64_t word = loadWord(cur);
        size_t full[255];
        size_t n_full = 0;
        for (size_t i = 0; i < ways.size(); ++i) {
            const uint32_t cand = ways[i];
            const bool live = cand < pos && cand >= limit;
            const uint8_t *ref = live ? in.data() + cand : cur;
            const size_t len = equalBytes(loadWord(ref) ^ word);
            best = std::max(best, live ? (len << 8) | (255 - i) : 0);
            full[n_full] = i;
            n_full += live && len == 8;
        }
        // Only the ways whose eight bytes all matched extend further.
        for (size_t k = 0; k < n_full; ++k) {
            const size_t i = full[k];
            const size_t len = 8 +
                commonPrefix(in.data() + ways[i] + 8, cur + 8, max_len - 8);
            offer(len, i);
            if (len == max_len)
                break;    // no later way can beat it
        }
    } else {
        // The input's last few bytes: compare bytewise.
        for (size_t i = 0; i < ways.size(); ++i) {
            const uint32_t cand = ways[i];
            if (cand < pos && cand >= limit)
                offer(commonPrefix(in.data() + cand, cur, max_len), i);
        }
    }

    const size_t best_len = best >> 8;
    if (best_len < static_cast<size_t>(cfg_.hash.minMatch))
        return 0;
    out_dist = nx::checked_cast<int>(pos - ways[255 - (best & 255)]);
    return nx::checked_cast<int>(best_len);
}

MatchResult
MatchPipeline::run(std::span<const uint8_t> input)
{
    MatchResult res;
    table_.clear();

    const size_t n = input.size();
    const auto W = static_cast<size_t>(cfg_.compressBytesPerCycle);
    const auto min_match = static_cast<size_t>(cfg_.hash.minMatch);
    res.rows = sim::ceilDiv(n, W);

    // Per-row bank load tracking for stall accounting. A bank's load
    // belongs to the row its stamp names, so a new row starts every
    // bank at zero without clearing them. The current row holds the
    // positions [row_end - W, row_end).
    struct BankLoad
    {
        size_t row = 0;    // row_end of the row it was counted in
        uint32_t load = 0;
    };
    std::vector<BankLoad> bankLoad(static_cast<size_t>(cfg_.hash.banks));
    size_t row_end = W;
    uint32_t row_max_load = 0;
    auto flushRow = [&]() {
        if (row_max_load > 1)
            res.bankStallCycles += row_max_load - 1;
        row_max_load = 0;
    };
    auto ins = [&](size_t p) {
        if (p + min_match <= n)
            table_.insert(table_.hashAt(input.data() + p),
                          nx::checked_cast<uint32_t>(p));
    };

    size_t pos = 0;
    while (pos < n) {
        if (pos >= row_end) {
            flushRow();
            do
                row_end += W;
            while (row_end <= pos);
        }

        const bool can_hash = pos + min_match <= n;
        uint32_t set = 0;
        int dist = 0;
        int len = 0;
        if (can_hash) {
            set = table_.hashAt(input.data() + pos);
            ++res.lookups;
            BankLoad &bank = bankLoad[static_cast<size_t>(
                table_.bankOf(set))];
            bank.load = bank.row == row_end ? bank.load + 1 : 1;
            bank.row = row_end;
            row_max_load = std::max(row_max_load, bank.load);
            len = bestMatch(input, pos, set, res.candidatesTried, dist);
        }

        if (len > 0) {
            res.tokens.push_back(Token::match(len, dist));
            ++res.matches;
            res.matchedBytes += static_cast<uint64_t>(len);
            // The hardware inserts a bounded number of positions from
            // the match body (it cannot afford a table write per byte
            // of a 258-byte match). Inserting the *tail* keeps the
            // most recent window positions in the table, so runs and
            // periodic data keep matching at short distances.
            size_t end = pos + static_cast<size_t>(len);
            table_.insert(set, nx::checked_cast<uint32_t>(pos));
            if (len <= 8) {
                for (size_t p = pos + 1; p < end; ++p)
                    ins(p);
            } else {
                // Head keeps pattern starts findable; tail keeps the
                // most recent window positions hot (runs, periodic
                // data). Eight writes bound the port cost per match.
                for (size_t p = pos + 1; p < pos + 4; ++p)
                    ins(p);
                for (size_t p = end - 4; p < end; ++p)
                    ins(p);
            }
            pos = end;
        } else {
            res.tokens.push_back(Token::lit(input[pos]));
            if (can_hash)
                table_.insert(set, nx::checked_cast<uint32_t>(pos));
            ++pos;
        }
    }
    flushRow();

    res.cycles = res.rows + res.bankStallCycles;
    return res;
}

} // namespace nx
