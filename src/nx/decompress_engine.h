/**
 * @file
 * One hardware decompression engine: executes Decompress CRBs.
 *
 * The functional decode accepts any conforming DEFLATE/gzip/zlib stream
 * (delegating bit-exact parsing to the shared inflater), while the
 * timing model charges the microarchitecture's own costs:
 *
 *   cycles = max(symbol decode, output copy, DMA) per stream, where
 *     symbol decode = symbols / decodeSymbolsPerCycle
 *     output copy   = output bytes / decompressBytesPerCycle
 *   plus a per-dynamic-block table-load penalty (the hardware must
 *   build its decode tables from the block header before any symbol
 *   of that block can decode).
 */

#ifndef NXSIM_NX_DECOMPRESS_ENGINE_H
#define NXSIM_NX_DECOMPRESS_ENGINE_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "nx/crb.h"
#include "nx/nx_config.h"
#include "sim/memory_model.h"
#include "sim/ticks.h"

namespace nx {

/** Per-job decompress timing breakdown. */
struct DecompressTiming
{
    sim::Tick dispatch = 0;
    sim::Tick dmaIn = 0;
    sim::Tick tableLoads = 0;
    sim::Tick decode = 0;
    sim::Tick copyOut = 0;
    sim::Tick dmaOut = 0;
    sim::Tick completion = 0;

    sim::Tick
    total() const
    {
        sim::Tick stream = std::max({dmaIn, decode, copyOut, dmaOut});
        return dispatch + tableLoads + stream + completion;
    }
};

/** Result of one decompress CRB execution. */
struct DecompressJobResult
{
    Csb csb;
    std::vector<uint8_t> output;
    DecompressTiming timing;
};

/** A single decompression engine instance. */
class DecompressEngine
{
  public:
    explicit DecompressEngine(const NxConfig &cfg);

    /**
     * Execute a decompress CRB.
     *
     * @param crb    request (func must be Decompress; framing selects
     *               the parser)
     * @param source the compressed bytes the source DDEs describe
     */
    [[nodiscard]] DecompressJobResult run(const Crb &crb,
                            std::span<const uint8_t> source);

    const NxConfig &config() const { return cfg_; }

  private:
    NxConfig cfg_;
    sim::DmaPort dmaIn_;
    sim::DmaPort dmaOut_;
};

} // namespace nx

#endif // NXSIM_NX_DECOMPRESS_ENGINE_H
