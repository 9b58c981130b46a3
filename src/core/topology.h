/**
 * @file
 * Chip and system topologies: how many accelerator units and cores a
 * chip carries and how many chips a system carries. Used by the
 * chip-level speedup comparison (E1), the scaling experiment (E6) and
 * the generation comparison (E11).
 */

#ifndef NXSIM_CORE_TOPOLOGY_H
#define NXSIM_CORE_TOPOLOGY_H

#include <string>

#include "nx/nx_config.h"

namespace core {

/** One processor chip: cores plus its accelerator unit(s). */
struct ChipTopology
{
    std::string name;
    nx::NxConfig accel;
    int cores = 0;
    int smtPerCore = 4;
    sim::Frequency coreClock{3.8e9};
};

/** A full system of identical chips. */
struct SystemTopology
{
    std::string name;
    ChipTopology chip;
    int chips = 1;

    /** Engine-bound aggregate compress rate (upper bound), bytes/s. */
    double
    peakSystemCompressBps() const
    {
        return chip.accel.peakCompressBps() *
            chip.accel.compressEnginesPerUnit *
            chip.accel.unitsPerChip * chips;
    }
};

/** POWER9 scale-out chip: 24 SMT4 cores, one NX unit. */
ChipTopology power9Chip();

/** z15 CP chip: 12 cores, one on-chip compression unit. */
ChipTopology z15Chip();

/** Two-socket POWER9 server (the Spark evaluation platform class). */
SystemTopology power9TwoSocket();

/** Sixteen-socket POWER9 enterprise system. */
SystemTopology power9MaxSystem();

/** Maximally configured z15: 5 CPC drawers x 4 CP chips. */
SystemTopology z15MaxSystem();

} // namespace core

#endif // NXSIM_CORE_TOPOLOGY_H
