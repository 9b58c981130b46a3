/**
 * @file
 * One hardware compression engine: executes compress-class CRBs.
 *
 * Stage structure (all overlapped in hardware, so the job's engine time
 * is the max of the stage times plus a fixed pipeline fill):
 *
 *   source DMA -> [DHT sample pass] -> LZ77 match pipe -> Huffman
 *   encode -> checksum -> target DMA
 *
 * The engine produces a *real* gzip/zlib/raw stream (functionally
 * verified against the independent software inflater in tests) and a
 * cycle count derived from the modelled microarchitecture.
 */

#ifndef NXSIM_NX_COMPRESS_ENGINE_H
#define NXSIM_NX_COMPRESS_ENGINE_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "nx/crb.h"
#include "nx/dht_generator.h"
#include "nx/huffman_stage.h"
#include "nx/match_pipeline.h"
#include "nx/nx_config.h"
#include "sim/memory_model.h"
#include "sim/ticks.h"

namespace nx {

/** Per-job timing breakdown (E4 latency decomposition). */
struct CompressTiming
{
    sim::Tick dispatch = 0;     ///< paste + queue + CRB fetch
    sim::Tick dmaIn = 0;
    sim::Tick dhtGen = 0;
    sim::Tick match = 0;
    sim::Tick encode = 0;
    sim::Tick dmaOut = 0;
    sim::Tick completion = 0;

    /**
     * End-to-end cycles. DMA-in, match and encode stream concurrently;
     * the DHT sample pass (when present) serializes in front because
     * the tables must exist before encoding starts.
     */
    sim::Tick
    total() const
    {
        sim::Tick stream = std::max({dmaIn, match, encode, dmaOut});
        return dispatch + dhtGen + stream + completion;
    }
};

/** Result of one compress CRB execution. */
struct CompressJobResult
{
    Csb csb;
    std::vector<uint8_t> output;    ///< framed compressed stream
    CompressTiming timing;
    MatchResult matchInfo;          ///< match stage tokens and counters

    /** Original-size / compressed-size. */
    double
    ratio() const
    {
        return output.empty() ? 0.0
            : static_cast<double>(csb.processedBytes) /
                static_cast<double>(output.size());
    }
};

/** A single compression engine instance. */
class CompressEngine
{
  public:
    explicit CompressEngine(const NxConfig &cfg);

    /**
     * Execute a compress CRB over in-memory data.
     *
     * @param crb     request (func must be a compress/wrap code)
     * @param source  bytes the source DDEs describe
     * @param dht_mode  table strategy for CompressDht requests
     * @param dht_sample_bytes  sample-size override (0 = config)
     */
    [[nodiscard]] CompressJobResult run(const Crb &crb,
                          std::span<const uint8_t> source,
                          DhtMode dht_mode = DhtMode::Sampled,
                          uint64_t dht_sample_bytes = 0);

    const NxConfig &config() const { return cfg_; }

  private:
    NxConfig cfg_;
    MatchPipeline matchPipe_;
    DhtGenerator dhtGen_;
    HuffmanStage huffman_;
    sim::DmaPort dmaIn_;
    sim::DmaPort dmaOut_;
};

} // namespace nx

#endif // NXSIM_NX_COMPRESS_ENGINE_H
