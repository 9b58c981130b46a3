/**
 * @file
 * Bandwidth/latency model of the path between an on-chip accelerator and
 * memory: DMA reads of source data and writes of results, as issued by
 * the NX DMA engine from the CRB's scatter/gather lists.
 *
 * The model is deliberately coarse — fixed startup latency plus a
 * bytes/cycle ceiling — because the paper's throughput phenomena
 * (engine-bound vs DMA-bound crossover, queueing at high requester
 * counts) only need those two parameters.
 */

#ifndef NXSIM_SIM_MEMORY_MODEL_H
#define NXSIM_SIM_MEMORY_MODEL_H

#include <cstdint>

#include "sim/ticks.h"

namespace sim {

/** Parameters of one DMA port. */
struct DmaParams
{
    /** Sustained bytes per engine-clock cycle on this port. */
    double bytesPerCycle = 64.0;
    /** Fixed startup cost per transfer (address translation, setup). */
    Tick startupCycles = 100;
    /** Per-4KiB-page overhead (TCE/ERAT lookups on the nest bus). */
    Tick perPageCycles = 4;
};

/** One direction of DMA movement. */
class DmaPort
{
  public:
    explicit DmaPort(const DmaParams &params) : params_(params) {}

    /** Cycles to move @p bytes in one transfer. */
    Tick
    transferCycles(uint64_t bytes) const
    {
        if (bytes == 0)
            return 0;
        Tick data = ceilDiv(static_cast<uint64_t>(
            static_cast<double>(bytes) / params_.bytesPerCycle * 1024.0),
            1024);
        Tick pages = ceilDiv(bytes, 4096) * params_.perPageCycles;
        return params_.startupCycles + data + pages;
    }

    const DmaParams &params() const { return params_; }

  private:
    DmaParams params_;
};

} // namespace sim

#endif // NXSIM_SIM_MEMORY_MODEL_H
