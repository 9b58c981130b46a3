#include "nx/match_pipeline.h"

#include <algorithm>
#include "util/checked.h"

namespace nx {

using deflate::kMaxMatch;
using deflate::kWindowSize;
using deflate::Token;

MatchPipeline::MatchPipeline(const NxConfig &cfg)
    : cfg_(cfg), table_(cfg.hash)
{
}

int
MatchPipeline::bestMatch(std::span<const uint8_t> in, size_t pos,
                         uint64_t &tried, int &out_dist) const
{
    size_t max_len = std::min<size_t>(kMaxMatch, in.size() - pos);
    if (max_len < static_cast<size_t>(cfg_.hash.minMatch))
        return 0;

    size_t limit = pos >= static_cast<size_t>(cfg_.windowBytes)
        ? pos - static_cast<size_t>(cfg_.windowBytes) + 1 : 0;
    const uint8_t *cur = in.data() + pos;

    int best_len = 0;
    int best_dist = 0;
    for (uint32_t cand : table_.lookup(table_.hashAt(cur))) {
        ++tried;
        if (cand >= pos || cand < limit)
            continue;    // stale entry outside the window
        const uint8_t *ref = in.data() + cand;
        size_t len = 0;
        while (len < max_len && ref[len] == cur[len])
            ++len;
        if (nx::checked_cast<int>(len) > best_len) {
            best_len = nx::checked_cast<int>(len);
            best_dist = nx::checked_cast<int>(pos - cand);
        }
    }
    if (best_len < cfg_.hash.minMatch)
        return 0;
    out_dist = best_dist;
    return best_len;
}

MatchResult
MatchPipeline::run(std::span<const uint8_t> input)
{
    MatchResult res;
    table_.clear();

    const size_t n = input.size();
    const auto W = static_cast<size_t>(cfg_.compressBytesPerCycle);
    res.rows = sim::ceilDiv(n, W == 0 ? 1 : W);

    // Per-row bank load tracking for stall accounting.
    std::vector<uint16_t> bankLoad(
        static_cast<size_t>(cfg_.hash.banks), 0);
    size_t currentRow = 0;
    uint16_t rowMaxLoad = 0;
    auto flushRow = [&]() {
        if (rowMaxLoad > 1)
            res.bankStallCycles += rowMaxLoad - 1;
        std::fill(bankLoad.begin(), bankLoad.end(), 0);
        rowMaxLoad = 0;
    };

    size_t pos = 0;
    while (pos < n) {
        size_t row = pos / W;
        if (row != currentRow) {
            flushRow();
            currentRow = row;
        }

        bool can_hash =
            pos + static_cast<size_t>(cfg_.hash.minMatch) <= n;
        uint32_t set = 0;
        if (can_hash) {
            set = table_.hashAt(input.data() + pos);
            int bank = table_.bankOf(set);
            ++res.lookups;
            uint16_t load = ++bankLoad[static_cast<size_t>(bank)];
            rowMaxLoad = std::max(rowMaxLoad, load);
        }

        int dist = 0;
        int len = can_hash
            ? bestMatch(input, pos, res.candidatesTried, dist) : 0;

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
            auto ins = [&](size_t p) {
                if (p + static_cast<size_t>(cfg_.hash.minMatch) <= n)
                    table_.insert(table_.hashAt(input.data() + p),
                                  nx::checked_cast<uint32_t>(p));
            };
            if (len <= 8) {
                for (size_t p = pos; p < end; ++p)
                    ins(p);
            } else {
                // Head keeps pattern starts findable; tail keeps the
                // most recent window positions hot (runs, periodic
                // data). Eight writes bound the port cost per match.
                for (size_t p = pos; p < pos + 4; ++p)
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
