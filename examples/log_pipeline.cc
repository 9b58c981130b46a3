/**
 * @file
 * Log-ingest pipeline scenario: a stream of log batches is compressed
 * for cold storage while the system keeps serving. Demonstrates the
 * throughput story (engine saturation under many submitting threads,
 * via the VAS queueing simulation) next to the functional API on real
 * batch bytes.
 */

#include <cstdio>

#include "core/session.h"
#include "core/topology.h"
#include "nx/vas.h"
#include "util/table.h"
#include "workloads/corpus.h"

int
main()
{
    // Functional slice: one batch through the API.
    nx::Session sess(core::power9Chip().accel);
    auto batch = workloads::makeLog(1 << 20, 31);
    auto c = sess.compress(batch);
    if (!c.ok) {
        std::fprintf(stderr, "compress failed: %s\n", c.error.c_str());
        return 1;
    }
    std::printf("one 1 MiB log batch: ratio %.2f, modelled %.1f us\n",
                c.ratio(), c.seconds * 1e6);

    // Capacity planning slice: how many ingest threads saturate the
    // chip's engine, and what latency do they see?
    util::Table t("log_pipeline: ingest threads vs chip capacity "
                  "(1 MiB batches, POWER9)");
    t.header({"ingest threads", "sustained rate", "mean latency us",
              "p99 latency us"});
    for (int threads : {1, 2, 4, 8, 16, 32}) {
        nx::VasSimConfig sc;
        sc.chip = core::power9Chip().accel;
        sc.requesters = threads;
        sc.jobBytes = 1 << 20;
        sc.horizonCycles = 10000000;
        sc.warmupCycles = 500000;
        auto res = simulateChip(sc);
        t.row({std::to_string(threads),
               util::Table::fmtRate(res.aggregateBps),
               util::Table::fmt(sc.chip.clock.toSeconds(
                   static_cast<sim::Tick>(res.meanLatencyCycles)) * 1e6,
                   1),
               util::Table::fmt(sc.chip.clock.toSeconds(
                   static_cast<sim::Tick>(res.p99LatencyCycles)) * 1e6,
                   1)});
    }
    t.note("a handful of threads saturate one engine; beyond that "
           "only queueing latency grows — provision accordingly");
    t.print();
    return 0;
}
