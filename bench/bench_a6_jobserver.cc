/**
 * @file
 * A6 [extension] — JobServer dispatch-path scaling: real threads
 * through the asynchronous dispatch layer (core::JobServer) vs the
 * analytic VAS queueing model (nx::ServiceModel / simulateChip).
 *
 * The measured half runs P producer threads pasting compress jobs into
 * bounded window FIFOs while W engine workers execute the actual
 * compression and charge modelled engine cycles. The analytic half
 * runs the discrete-event VAS simulation with the same engine count,
 * job size and FIFO depth. The two columns to compare are the
 * aggregate modelled rate (should scale with W until the paste path
 * saturates) and the busy-reject count (should fall as engines are
 * added, in both models).
 */

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/job_server.h"
#include "nx/vas.h"

namespace {

constexpr int kProducers = 8;
constexpr int kJobsPerProducer = 12;
constexpr size_t kJobBytes = size_t{128} << 10;
constexpr int kFifoDepth = 8;

core::JobServerStats
runPool(const nx::NxConfig &cfg, int workers)
{
    core::JobServerConfig jcfg;
    jcfg.workers = workers;
    jcfg.windows = 4;
    jcfg.window.fifoDepth = kFifoDepth;
    core::JobServer srv(cfg, jcfg);

    auto payload = workloads::makeMixed(kJobBytes, 0xa6);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&srv, &payload, p] {
            core::BackoffPolicy patient;
            patient.maxAttempts = 1 << 20;
            for (int j = 0; j < kJobsPerProducer; ++j) {
                core::JobSpec spec;
                spec.kind = core::JobKind::Compress;
                spec.mode = core::Mode::DhtSampled;
                spec.payload = payload;
                auto r = srv.submitWithRetry(
                    spec, (p + j) % srv.windowCount(), patient);
                NXSIM_EXPECT(r.accepted(), "bench submit must land");
            }
        });
    }
    for (auto &t : producers)
        t.join();
    (void)srv.drain();
    auto st = srv.stats();
    srv.drainAndStop();
    return st;
}

void
measuredSweep(const char *name, const nx::NxConfig &cfg)
{
    util::Table t(std::string("A6a: ") + name +
                  " JobServer worker sweep (" +
                  std::to_string(kProducers) + " producers, 128 KiB "
                  "jobs, FIFO depth " + std::to_string(kFifoDepth) +
                  ")");
    t.header({"workers", "jobs", "agg modelled rate", "wall p50 us",
              "wall p99 us", "busy-rejects", "mean q depth"});
    for (int w : {1, 2, 4, 8}) {
        auto st = runPool(cfg, w);
        double secs = st.modelledSeconds(cfg);
        t.row({std::to_string(w), std::to_string(st.completed),
               util::Table::fmtRate(secs > 0
                   ? static_cast<double>(st.bytesIn) / secs
                   : 0),
               util::Table::fmt(st.wait.p50 * 1e6, 1),
               util::Table::fmt(st.wait.p99 * 1e6, 1),
               std::to_string(st.busyRejects),
               util::Table::fmt(st.meanQueueDepth, 2)});
    }
    t.note("wall percentiles are host paste-to-CSB times; the rate "
           "column is bytesIn over the busiest worker's modelled "
           "engine cycles");
    t.print();
}

void
analyticSweep(const char *name, const nx::NxConfig &base)
{
    util::Table t(std::string("A6b: ") + name +
                  " analytic VAS model, same geometry");
    t.header({"engines", "agg rate", "engine util", "busy-rejects",
              "mean q depth"});
    for (int w : {1, 2, 4, 8}) {
        nx::VasSimConfig sc;
        sc.chip = base;
        sc.chip.compressEnginesPerUnit = w;
        // The measured producers fire-and-forget their whole burst, so
        // the offered load is the outstanding-job count, not the
        // thread count: model it as that many closed-loop requesters
        // hammering one bounded FIFO.
        sc.requesters = kProducers * kJobsPerProducer / 2;
        sc.jobBytes = kJobBytes;
        sc.window.fifoDepth = kFifoDepth;
        sc.horizonCycles = 20000000;
        sc.warmupCycles = 1000000;
        auto res = simulateChip(sc);
        t.row({std::to_string(w), util::Table::fmtRate(res.aggregateBps),
               util::Table::fmt(100.0 * res.utilization, 1) + "%",
               std::to_string(res.busyRejects),
               util::Table::fmt(res.meanQueueDepth, 1)});
    }
    t.note("expected shape match with A6a: rate grows with engines, "
           "busy-rejects collapse once service keeps up with pastes");
    t.print();
}

} // namespace

int
main()
{
    bench::banner("A6",
                  "asynchronous dispatch layer vs analytic VAS model");

    for (const auto &chip : {core::power9Chip(), core::z15Chip()}) {
        measuredSweep(chip.name.c_str(), chip.accel);
        analyticSweep(chip.name.c_str(), chip.accel);
    }
    return 0;
}
