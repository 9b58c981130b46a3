/**
 * @file
 * Cycle model of an NX 842 engine.
 *
 * The 842 design point is latency: no Huffman pass, no table
 * generation, fixed-format operands — the engine streams 8-byte
 * chunks per cycle through the template selector, so both directions
 * run at memory-ish speeds with microsecond request latency. That is
 * why POWER uses it for *memory* compression while DEFLATE serves
 * storage/network data.
 */

#ifndef NXSIM_E842_E842_ENGINE_H
#define NXSIM_E842_E842_ENGINE_H

#include <cstdint>
#include <span>
#include <vector>

#include "e842/e842.h"
#include "sim/memory_model.h"
#include "sim/ticks.h"

namespace e842 {

/** One executed 842 job. */
struct E842Job
{
    bool ok = false;
    std::vector<uint8_t> output;
    sim::Tick cycles = 0;
    double seconds = 0.0;
    E842Stats stats;
};

/** The 842 engine model (functional codec + closed-form timing). */
class E842Engine
{
  public:
    /** Compress @p input; returns output + modelled time. */
    E842Job compressJob(std::span<const uint8_t> input) const;

    /** Decompress @p stream; returns output + modelled time. */
    E842Job decompressJob(std::span<const uint8_t> stream,
                          size_t max_output = size_t{1} << 30) const;

  private:
    /** Engine clock. */
    static constexpr sim::Frequency kClock{2.0e9};
    /** Input chunks processed per cycle (one 8-byte chunk). */
    static constexpr uint64_t kChunksPerCycle = 1;
    static constexpr sim::Tick kDispatchCycles = 2000;
    static constexpr sim::Tick kCompletionCycles = 800;
    /** The engine's memory port. */
    static constexpr sim::DmaParams kDma{};

    static sim::Tick
    streamCycles(uint64_t raw_bytes, uint64_t stream_bytes)
    {
        sim::Tick chunks =
            sim::ceilDiv(raw_bytes, uint64_t{8} * kChunksPerCycle);
        sim::Tick dma = sim::DmaPort(kDma).transferCycles(
            std::max(raw_bytes, stream_bytes));
        return kDispatchCycles + std::max(chunks, dma) + kCompletionCycles;
    }
};

} // namespace e842

#endif // NXSIM_E842_E842_ENGINE_H
