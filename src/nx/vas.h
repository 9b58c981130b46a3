/**
 * @file
 * Virtual Accelerator Switchboard (VAS) model: user-mode job dispatch
 * and queueing in front of the chip's compression engines.
 *
 * On POWER9, a user thread memory-maps a VAS "window" and issues a CRB
 * with a single `paste` instruction — no system call, no interrupt on
 * the submit path. The switchboard enqueues the CRB on the accelerator
 * unit's receive FIFO; free engines pop requests in order. z15 reaches
 * its unit through a CP-chip-local queue with the same shape.
 *
 * This file provides a discrete-event simulation of that path for the
 * scaling experiments: many requester threads (closed-loop) feeding a
 * chip's engines, measuring aggregate throughput, queue depth and
 * latency percentiles. Service times come from the same closed-form
 * timing the cycle-level engines produce, so the two layers agree.
 */

#ifndef NXSIM_NX_VAS_H
#define NXSIM_NX_VAS_H

#include <cstdint>
#include <vector>

#include "nx/nx_config.h"
#include "nx/window.h"
#include "sim/event_queue.h"
#include "sim/ticks.h"
#include "util/stats.h"

namespace nx {

/** Closed-form service model of one compress/decompress engine. */
struct ServiceModel
{
    NxConfig cfg;

    /**
     * Engine-occupancy cycles for one compress job of @p bytes
     * (dispatch overhead is charged to the engine, as the engine
     * front-end fetches and decodes the CRB).
     */
    sim::Tick
    compressCycles(uint64_t bytes) const
    {
        sim::Tick stream = std::max<sim::Tick>(
            sim::ceilDiv(bytes,
                static_cast<uint64_t>(cfg.compressBytesPerCycle)),
            sim::DmaPort(cfg.dmaIn).transferCycles(bytes));
        return cfg.dispatchCycles + stream + cfg.completionCycles;
    }

    /** Engine-occupancy cycles for one decompress job. */
    sim::Tick
    decompressCycles(uint64_t out_bytes) const
    {
        sim::Tick stream = sim::ceilDiv(out_bytes,
            static_cast<uint64_t>(cfg.decompressBytesPerCycle));
        return cfg.dispatchCycles + stream + cfg.completionCycles;
    }
};

/** Configuration of one scaling simulation. */
struct VasSimConfig
{
    NxConfig chip;                 ///< engine + queue parameters
    int requesters = 8;            ///< closed-loop submitting threads
    uint64_t jobBytes = 1 << 20;   ///< source size per job
    sim::Tick thinkCycles = 2000;  ///< requester gap between jobs
    sim::Tick warmupCycles = 200000;
    sim::Tick horizonCycles = 10000000;
    bool decompress = false;

    /**
     * Open-arrival mode: instead of closed-loop requesters, jobs
     * arrive as a Poisson process at @p arrivalsPerSec (requesters is
     * then ignored). The regime of interest is latency vs offered
     * load approaching the engine's service rate.
     */
    bool openArrival = false;
    double arrivalsPerSec = 0.0;
    uint64_t seed = 1;

    /**
     * Receive-FIFO model. The default (fifoDepth 0, unbounded) keeps
     * the legacy analytic behaviour; a bounded window busy-rejects
     * pastes when full and the requester re-pastes after a fixed
     * 2,000-cycle back-off — the same contract core::JobServer
     * enforces with real threads.
     */
    WindowConfig window{.fifoDepth = 0};
};

/** Results of one scaling simulation. */
struct VasSimResult
{
    double aggregateBps = 0.0;       ///< source bytes/s through engines
    double utilization = 0.0;        ///< engine busy fraction
    double meanQueueDepth = 0.0;
    double meanLatencyCycles = 0.0;  ///< paste-to-CSB mean
    double p99LatencyCycles = 0.0;
    uint64_t jobsCompleted = 0;
    uint64_t busyRejects = 0;        ///< pastes bounced off a full FIFO
};

/** Run a closed-loop multi-requester simulation of one chip. */
[[nodiscard]] VasSimResult simulateChip(const VasSimConfig &cfg);

/**
 * Aggregate rate of a multi-chip system (chips are independent: VAS
 * windows bind a requester to its local chip's unit).
 */
[[nodiscard]] VasSimResult simulateSystem(const VasSimConfig &per_chip, int chips);

} // namespace nx

#endif // NXSIM_NX_VAS_H
