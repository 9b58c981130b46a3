/**
 * @file
 * Cycle-level model of the multi-byte-per-cycle LZ77 match pipeline.
 *
 * Each cycle the pipe accepts a row of W input bytes (W = 4 on POWER9,
 * 8 on z15). For every row position not already covered by an accepted
 * match, the engine looks up the banked hash table, extends the
 * candidate matches against the 32 KB history buffer, and greedily
 * accepts the longest one >= minMatch. Bank conflicts within a row cost
 * stall cycles (each bank serves one access per cycle).
 *
 * The model is *functional and timed at once*: it emits a real token
 * stream (verified reproducible by tests) and, from the same walk,
 * derives the cycle count:
 *
 *   cycles = rows + bankStalls
 *   rows   = ceil(n / W)                (input streaming floor)
 *   stalls = sum over rows of (max bank load - 1)
 *
 * Long matches reduce lookups (covered positions skip the table), which
 * is why highly compressible data runs *faster* than incompressible
 * data — a first-order effect the paper's throughput plots show.
 */

#ifndef NXSIM_NX_MATCH_PIPELINE_H
#define NXSIM_NX_MATCH_PIPELINE_H

#include <cstdint>
#include <span>
#include <vector>

#include "deflate/lz77.h"
#include "nx/hash_table.h"
#include "nx/nx_config.h"
#include "sim/ticks.h"

namespace nx {

/** Outcome of one pass through the match pipe. */
struct MatchResult
{
    std::vector<deflate::Token> tokens;
    sim::Tick cycles = 0;          ///< total match-stage cycles
    uint64_t rows = 0;             ///< streaming cycles (no stalls)
    uint64_t bankStallCycles = 0;
    uint64_t lookups = 0;
    uint64_t candidatesTried = 0;
    uint64_t matches = 0;
    uint64_t matchedBytes = 0;
};

/** The hardware LZ77 stage. */
class MatchPipeline
{
  public:
    explicit MatchPipeline(const NxConfig &cfg);

    /**
     * Tokenize @p input, counting cycles.
     *
     * @param input whole source of one CRB (window resets at entry,
     *              as the hardware resets per request)
     */
    [[nodiscard]] MatchResult run(std::span<const uint8_t> input);


  private:
    /** Longest valid match at @p pos among table candidates. */
    int bestMatch(std::span<const uint8_t> in, size_t pos,
                  uint64_t &tried, int &out_dist) const;

    NxConfig cfg_;
    BankedHashTable table_;
};

} // namespace nx

#endif // NXSIM_NX_MATCH_PIPELINE_H
