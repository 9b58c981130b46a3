/**
 * @file
 * Concurrency suite for core::JobServer (ctest label: concurrency;
 * ci.sh runs it under ThreadSanitizer).
 *
 * Three families:
 *   - deterministic stress: M producer threads x mixed compress/
 *     decompress jobs with seeded PRNG payloads; every ticket
 *     completes, every output round-trips, per-window FIFO dispatch
 *     order holds.
 *   - backpressure: a full window busy-rejects (never blocks), the
 *     capped-backoff retry helper converges, and a saturated server
 *     drains cleanly on shutdown with no lost or double-completed
 *     jobs. Determinism comes from startPaused: FIFOs are filled
 *     while the engine pool is gated.
 *   - stats: the thread-safe stats block is consistent with the run.
 *   - ticket contracts: a ticket has one claimant. Claiming it twice,
 *     claiming one never issued, or a second thread waiting on it
 *     while the first still sleeps aborts instead of hanging.
 *
 * gtest assertions run on the main thread only (gtest's macros are
 * not thread-safe); producer threads just record tickets.
 *
 * Sized to finish well under 10 s with TSan instrumentation: payloads
 * are a few KiB and job counts are in the low hundreds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/job_server.h"
#include "deflate/gzip_stream.h"
#include "util/prng.h"
#include "workloads/corpus.h"

namespace {

using core::AsyncJob;
using core::JobKind;
using core::JobServer;
using core::JobServerConfig;
using core::JobSpec;
using core::Ticket;

nx::NxConfig
testChip()
{
    return nx::NxConfig::power9();
}

JobSpec
compressSpec(std::vector<uint8_t> payload,
             core::Mode mode = core::Mode::Auto)
{
    JobSpec s;
    s.kind = JobKind::Compress;
    s.mode = mode;
    s.payload = std::move(payload);
    return s;
}

JobSpec
decompressSpec(std::vector<uint8_t> stream)
{
    JobSpec s;
    s.kind = JobKind::Decompress;
    s.payload = std::move(stream);
    return s;
}

/** Mixed-shape payload from a seeded PRNG, 1 B .. ~16 KiB. */
std::vector<uint8_t>
seededPayload(uint64_t seed)
{
    util::Xoshiro256 rng(seed);
    size_t n = 1 + static_cast<size_t>(rng.below(16 * 1024));
    switch (rng.below(3)) {
      case 0: return workloads::makeText(n, seed);
      case 1: return workloads::makeRandom(n, seed);
      default: return workloads::makeMixed(n, seed);
    }
}

/** Per-window dispatch order must equal paste order. */
void
expectFifoOrderPerWindow(const std::vector<AsyncJob> &jobs)
{
    std::map<int, std::vector<const AsyncJob *>> byWindow;
    for (const AsyncJob &j : jobs)
        byWindow[j.window].push_back(&j);
    for (auto &[window, list] : byWindow) {
        std::sort(list.begin(), list.end(),
                  [](const AsyncJob *a, const AsyncJob *b) {
                      return a->dispatchSeq < b->dispatchSeq;
                  });
        for (size_t i = 1; i < list.size(); ++i) {
            EXPECT_LT(list[i - 1]->windowSeq, list[i]->windowSeq)
                << "window " << window
                << " dispatched out of paste order";
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic stress
// ---------------------------------------------------------------------------

TEST(JobServerStress, ManyProducersMixedJobsAllCompleteAndRoundTrip)
{
    const size_t kProducers = 4;
    const size_t kJobsPerProducer = 24;
    auto cfg = testChip();

    // Pre-build job inputs on the main thread so producers only paste.
    // Even-indexed jobs compress a payload; odd-indexed jobs decompress
    // a stream of the same payload produced by the synchronous device.
    core::NxDevice dev(cfg);
    std::vector<std::vector<JobSpec>> specs(kProducers);
    std::vector<std::vector<std::vector<uint8_t>>> expect(kProducers);
    for (size_t p = 0; p < kProducers; ++p) {
        for (size_t j = 0; j < kJobsPerProducer; ++j) {
            uint64_t seed = 1000u * p + j;
            auto payload = seededPayload(seed);
            if (j % 2 == 0) {
                specs[p].push_back(compressSpec(payload));
            } else {
                auto c = dev.compress(payload, nx::Framing::Gzip,
                                      core::Mode::Auto);
                ASSERT_TRUE(c.ok());
                specs[p].push_back(decompressSpec(std::move(c.data)));
            }
            expect[p].push_back(std::move(payload));
        }
    }

    JobServerConfig jcfg;
    jcfg.workers = 3;
    jcfg.windows = 2;
    jcfg.window.fifoDepth = 8;
    JobServer srv(cfg, jcfg);

    core::BackoffPolicy patient;
    patient.maxAttempts = 1000;    // acceptance must eventually happen
    patient.maxDelay = std::chrono::microseconds(1000);

    std::vector<std::vector<Ticket>> tickets(kProducers);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (size_t p = 0; p < kProducers; ++p) {
        tickets[p].resize(specs[p].size(), 0);
        producers.emplace_back([&, p] {
            for (size_t j = 0; j < specs[p].size(); ++j) {
                int window = static_cast<int>(
                    (p + j) %
                    static_cast<size_t>(srv.windowCount()));
                auto r = srv.submitWithRetry(specs[p][j], window, patient);
                if (r.accepted())
                    tickets[p][j] = r.ticket;
            }
        });
    }
    for (auto &t : producers)
        t.join();

    // Every ticket completes, and every output round-trips.
    std::vector<AsyncJob> all;
    for (size_t p = 0; p < kProducers; ++p) {
        for (size_t j = 0; j < tickets[p].size(); ++j) {
            ASSERT_NE(tickets[p][j], 0u)
                << "producer " << p << " job " << j << " never accepted";
            AsyncJob done = srv.wait(tickets[p][j]);
            ASSERT_TRUE(done.result.ok())
                << "producer " << p << " job " << j;
            if (specs[p][j].kind == JobKind::Compress) {
                auto res = deflate::gzipUnwrap(done.result.data);
                ASSERT_TRUE(res.ok);
                EXPECT_EQ(res.inflate.bytes, expect[p][j]);
            } else {
                EXPECT_EQ(done.result.data, expect[p][j]);
            }
            all.push_back(std::move(done));
        }
    }
    expectFifoOrderPerWindow(all);

    auto st = srv.stats();
    EXPECT_EQ(st.submitted, kProducers * kJobsPerProducer);
    EXPECT_EQ(st.completed, st.submitted);
    EXPECT_EQ(st.wait.count, st.completed);
}

TEST(JobServerStress, SingleWindowDispatchIsExactlyPasteOrder)
{
    auto cfg = testChip();
    JobServerConfig jcfg;
    jcfg.workers = 2;
    jcfg.windows = 1;
    jcfg.window.fifoDepth = 0;    // unbounded: all pastes accepted
    jcfg.startPaused = true;      // fill the FIFO before any pop
    JobServer srv(cfg, jcfg);

    const int kJobs = 32;
    std::vector<Ticket> tickets;
    for (int j = 0; j < kJobs; ++j) {
        auto r = srv.submitAsync(
            compressSpec(workloads::makeText(512, static_cast<uint64_t>(j))));
        ASSERT_TRUE(r.accepted());
        tickets.push_back(r.ticket);
    }
    srv.resume();

    auto jobs = srv.drain();
    ASSERT_EQ(jobs.size(), static_cast<size_t>(kJobs));
    expectFifoOrderPerWindow(jobs);
    // Paste order within the single window is the submission order.
    std::sort(jobs.begin(), jobs.end(),
              [](const AsyncJob &a, const AsyncJob &b) {
                  return a.dispatchSeq < b.dispatchSeq;
              });
    for (size_t j = 0; j < jobs.size(); ++j)
        EXPECT_EQ(jobs[j].ticket, tickets[j]);
}

// ---------------------------------------------------------------------------
// Backpressure: busy-reject, retry convergence, clean shutdown
// ---------------------------------------------------------------------------

TEST(JobServerBackpressure, FullWindowReturnsBusyWithoutBlocking)
{
    auto cfg = testChip();
    JobServerConfig jcfg;
    jcfg.workers = 1;
    jcfg.windows = 1;
    jcfg.window.fifoDepth = 3;
    jcfg.startPaused = true;
    JobServer srv(cfg, jcfg);

    auto spec = compressSpec(workloads::makeText(1024, 7));
    for (int j = 0; j < 3; ++j)
        ASSERT_TRUE(srv.submitAsync(spec).accepted());

    // FIFO full and the engine pool is gated: paste must be rejected,
    // not queued or blocked.
    for (int j = 0; j < 4; ++j) {
        auto r = srv.submitAsync(spec);
        EXPECT_EQ(r.status, nx::PasteStatus::Busy);
        EXPECT_EQ(r.ticket, 0u);
    }
    EXPECT_EQ(srv.stats().busyRejects, 4u);

    // Rejected pastes are not lost work — the client still owns the
    // spec and may re-paste once the engines drain the FIFO.
    srv.resume();
    auto jobs = srv.drain();
    EXPECT_EQ(jobs.size(), 3u);
    for (const auto &j : jobs)
        EXPECT_TRUE(j.result.ok());
}

TEST(JobServerBackpressure, RetryBackoffConvergesOnceServerDrains)
{
    auto cfg = testChip();
    JobServerConfig jcfg;
    jcfg.workers = 1;
    jcfg.windows = 1;
    jcfg.window.fifoDepth = 1;
    jcfg.startPaused = true;
    JobServer srv(cfg, jcfg);

    ASSERT_TRUE(
        srv.submitAsync(compressSpec(workloads::makeText(2048, 1)))
            .accepted());

    // Un-gate the engines shortly after the retry loop starts spinning.
    std::thread resumer([&srv] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        srv.resume();
    });

    core::BackoffPolicy policy;
    policy.maxAttempts = 200;
    policy.initialDelay = std::chrono::microseconds(100);
    policy.maxDelay = std::chrono::microseconds(2000);
    auto r = srv.submitWithRetry(
        compressSpec(workloads::makeText(2048, 2)), 0, policy);
    resumer.join();

    ASSERT_TRUE(r.accepted());
    EXPECT_GT(r.attempts, 1);    // it really was busy-rejected first
    EXPECT_GE(srv.stats().busyRejects, 1u);

    auto jobs = srv.drain();
    EXPECT_EQ(jobs.size(), 2u);
}

TEST(JobServerBackpressure, RetryGivesUpAfterMaxAttempts)
{
    auto cfg = testChip();
    JobServerConfig jcfg;
    jcfg.workers = 1;
    jcfg.windows = 1;
    jcfg.window.fifoDepth = 1;
    jcfg.startPaused = true;
    JobServer srv(cfg, jcfg);

    ASSERT_TRUE(
        srv.submitAsync(compressSpec(workloads::makeText(256, 1)))
            .accepted());

    core::BackoffPolicy policy;
    policy.maxAttempts = 3;
    policy.initialDelay = std::chrono::microseconds(10);
    policy.maxDelay = std::chrono::microseconds(50);
    auto r = srv.submitWithRetry(
        compressSpec(workloads::makeText(256, 2)), 0, policy);

    EXPECT_EQ(r.status, nx::PasteStatus::Busy);
    EXPECT_EQ(r.attempts, 3);
    EXPECT_EQ(srv.stats().busyRejects, 3u);

    srv.resume();
    auto jobs = srv.drain();
    EXPECT_EQ(jobs.size(), 1u);    // the rejected job was never enqueued
}

TEST(JobServerBackpressure, RetriedPasteCarriesItsPayload)
{
    // The retry loop keeps the spec across Busy attempts and moves it
    // only into the accepted paste; a paste that moved it on Busy
    // would send the engine an empty payload.
    auto cfg = testChip();
    JobServerConfig jcfg;
    jcfg.workers = 1;
    jcfg.windows = 1;
    jcfg.window.fifoDepth = 1;
    jcfg.startPaused = true;
    JobServer srv(cfg, jcfg);
    ASSERT_TRUE(
        srv.submitAsync(compressSpec(workloads::makeText(256, 1)))
            .accepted());

    // Un-gate the engines only once the retry loop has bounced.
    std::thread resumer([&srv] {
        while (srv.stats().busyRejects == 0)
            std::this_thread::yield();
        srv.resume();
    });
    core::BackoffPolicy policy;
    policy.maxAttempts = 1000;
    policy.initialDelay = std::chrono::microseconds(100);
    auto payload = workloads::makeLog(8 * 1024, 3);
    auto r = srv.submitWithRetry(compressSpec(payload), 0, policy);
    resumer.join();

    ASSERT_TRUE(r.accepted());
    EXPECT_GT(r.attempts, 1);
    AsyncJob job = srv.wait(r.ticket);
    ASSERT_TRUE(job.result.ok());
    auto res = deflate::gzipUnwrap(job.result.data);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.inflate.bytes, payload);
}

TEST(JobServerBackpressure, SaturatedServerDrainsCleanlyOnShutdown)
{
    auto cfg = testChip();
    JobServerConfig jcfg;
    jcfg.workers = 2;
    jcfg.windows = 4;
    jcfg.window.fifoDepth = 4;
    jcfg.startPaused = true;
    JobServer srv(cfg, jcfg);

    // Fill every window to capacity while the engine pool is gated.
    std::vector<Ticket> tickets;
    for (int w = 0; w < jcfg.windows; ++w) {
        for (int j = 0; j < jcfg.window.fifoDepth; ++j) {
            auto r = srv.submitAsync(
                compressSpec(seededPayload(
                    static_cast<uint64_t>(16 * w + j))),
                w);
            ASSERT_TRUE(r.accepted());
            tickets.push_back(r.ticket);
        }
        EXPECT_EQ(srv.submitAsync(compressSpec(seededPayload(99)), w)
                      .status,
                  nx::PasteStatus::Busy);
    }

    // Shutdown with everything still queued: drainAndStop must run
    // every accepted job to completion, not discard them.
    srv.drainAndStop();

    auto st = srv.stats();
    EXPECT_EQ(st.submitted, tickets.size());
    EXPECT_EQ(st.completed, tickets.size());
    EXPECT_EQ(st.busyRejects, static_cast<uint64_t>(jcfg.windows));

    // After shutdown the window is closed, not busy.
    EXPECT_EQ(srv.submitAsync(compressSpec(seededPayload(1))).status,
              nx::PasteStatus::Closed);

    // No lost and no double-completed jobs: each ticket claimable
    // exactly once, and drain() afterwards finds nothing left.
    std::set<Ticket> seen;
    for (Ticket t : tickets) {
        AsyncJob done;
        ASSERT_TRUE(srv.poll(t, &done));
        EXPECT_TRUE(done.result.ok());
        EXPECT_TRUE(seen.insert(done.ticket).second);
    }
    EXPECT_EQ(seen.size(), tickets.size());
    EXPECT_TRUE(srv.drain().empty());
}

// ---------------------------------------------------------------------------
// Stats block
// ---------------------------------------------------------------------------

TEST(JobServerStats, BusyExhaustionIsCountedServerSide)
{
    auto cfg = testChip();
    JobServerConfig jcfg;
    jcfg.workers = 1;
    jcfg.windows = 1;
    jcfg.window.fifoDepth = 1;
    jcfg.startPaused = true;
    JobServer srv(cfg, jcfg);
    ASSERT_TRUE(
        srv.submitAsync(compressSpec(workloads::makeText(256, 1)))
            .accepted());

    core::BackoffPolicy policy;
    policy.maxAttempts = 2;
    policy.initialDelay = std::chrono::microseconds(10);
    policy.maxDelay = std::chrono::microseconds(20);
    // Two retry helpers give up against the gated full FIFO; a raw
    // submitAsync busy-reject is NOT an exhaustion.
    EXPECT_EQ(srv.submitWithRetry(
                      compressSpec(workloads::makeText(256, 2)), 0,
                      policy)
                  .status,
              nx::PasteStatus::Busy);
    EXPECT_EQ(srv.submitWithRetry(
                      compressSpec(workloads::makeText(256, 3)), 0,
                      policy)
                  .status,
              nx::PasteStatus::Busy);
    EXPECT_EQ(srv.submitAsync(compressSpec(workloads::makeText(256, 4)))
                  .status,
              nx::PasteStatus::Busy);

    auto st = srv.stats();
    EXPECT_EQ(st.busyExhausted, 2u);
    EXPECT_EQ(st.busyRejects, 5u);   // 2 + 2 + 1 pastes bounced

    srv.resume();
    srv.drainAndStop();
}

TEST(JobServerFaults, InjectedFaultCompletesWithInjectedCode)
{
    auto cfg = testChip();
    nx::FaultInjector faults;
    faults.failNext(1, nx::CondCode::TranslationFault);
    JobServerConfig jcfg;
    jcfg.workers = 1;
    jcfg.faultInjector = &faults;
    JobServer srv(cfg, jcfg);

    auto r1 = srv.submitAsync(compressSpec(workloads::makeText(512, 1)));
    ASSERT_TRUE(r1.accepted());
    auto j1 = srv.wait(r1.ticket);
    EXPECT_FALSE(j1.result.ok());
    EXPECT_EQ(j1.result.csb.cc, nx::CondCode::TranslationFault);
    EXPECT_TRUE(j1.result.data.empty());

    // The injector plan is spent: the same job now succeeds.
    auto r2 = srv.submitAsync(compressSpec(workloads::makeText(512, 1)));
    ASSERT_TRUE(r2.accepted());
    auto j2 = srv.wait(r2.ticket);
    EXPECT_TRUE(j2.result.ok());

    srv.drainAndStop();
    auto st = srv.stats();
    EXPECT_EQ(st.jobFaults, 1u);
    EXPECT_EQ(st.faultsInjected, 1u);
    EXPECT_EQ(faults.injected(), 1u);
    EXPECT_EQ(st.completed, 2u);
}

TEST(JobServerE842, AsyncJobsMatchTheDirectEngine)
{
    auto cfg = testChip();
    JobServerConfig jcfg;
    jcfg.workers = 2;
    JobServer srv(cfg, jcfg);

    auto payload = workloads::makeText(8 * 1024, 9);
    e842::E842Engine direct;   // same (default) config as the server's

    JobSpec comp;
    comp.kind = JobKind::Compress;
    comp.codec = core::Codec::E842;
    comp.payload = payload;
    auto rc = srv.submitAsync(comp);
    ASSERT_TRUE(rc.accepted());
    auto jc = srv.wait(rc.ticket);
    ASSERT_TRUE(jc.result.ok());
    EXPECT_EQ(jc.result.data, direct.compressJob(payload).output);
    EXPECT_GT(jc.result.engineCycles, 0u);

    JobSpec dec;
    dec.kind = JobKind::Decompress;
    dec.codec = core::Codec::E842;
    dec.payload = jc.result.data;
    auto rd = srv.submitAsync(dec);
    ASSERT_TRUE(rd.accepted());
    auto jd = srv.wait(rd.ticket);
    ASSERT_TRUE(jd.result.ok());
    EXPECT_EQ(jd.result.data, payload);

    srv.drainAndStop();
    auto st = srv.stats();
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.jobFaults, 0u);
}

TEST(JobServerStats, RecordsDepthLatencyAndEngineCycles)
{
    auto cfg = testChip();
    JobServerConfig jcfg;
    jcfg.workers = 2;
    jcfg.windows = 2;
    jcfg.window.fifoDepth = 0;
    jcfg.startPaused = true;    // guarantees a non-trivial queue depth
    JobServer srv(cfg, jcfg);

    const int kJobs = 20;
    uint64_t bytesIn = 0;
    for (int j = 0; j < kJobs; ++j) {
        auto payload = workloads::makeMixed(
            4096, static_cast<uint64_t>(j));
        bytesIn += payload.size();
        ASSERT_TRUE(
            srv.submitAsync(compressSpec(std::move(payload)), j % 2)
                .accepted());
    }
    srv.resume();
    auto jobs = srv.drain();
    ASSERT_EQ(jobs.size(), static_cast<size_t>(kJobs));

    auto st = srv.stats();
    EXPECT_EQ(st.bytesIn, bytesIn);
    EXPECT_GT(st.bytesOut, 0u);
    EXPECT_GT(st.meanQueueDepth, 1.0);    // FIFO really backed up
    EXPECT_EQ(st.wait.count, static_cast<uint64_t>(kJobs));
    EXPECT_GE(st.wait.p99, st.wait.p50);
    EXPECT_GT(st.engineCyclesSum, 0u);
    // The parallel makespan can never exceed the serial sum (equality
    // is legal: a fast worker may drain the whole FIFO alone).
    EXPECT_GE(st.engineCyclesSum, st.engineCyclesMax);

    // Modelled aggregate rate is bounded by the engine-pool peak.
    double modelled = st.modelledSeconds(cfg);
    ASSERT_GT(modelled, 0.0);
    double bps = static_cast<double>(st.bytesIn) / modelled;
    EXPECT_LE(bps,
              cfg.peakCompressBps() * srv.workerCount() * 1.01);
}

TEST(JobServerStats, QueueHighWaterTracksTheDeepestBacklog)
{
    // Deterministic backlog: gate the engines, paste N jobs, and the
    // high-water mark must read exactly N (total across FIFOs), not a
    // sampled average.
    auto cfg = testChip();
    JobServerConfig jcfg;
    jcfg.workers = 1;
    jcfg.windows = 2;
    jcfg.window.fifoDepth = 0;   // unbounded: all pastes accepted
    jcfg.startPaused = true;
    JobServer srv(cfg, jcfg);

    EXPECT_EQ(srv.stats().queueDepthHighWater, 0u);
    const int kJobs = 7;
    for (int j = 0; j < kJobs; ++j)
        ASSERT_TRUE(srv.submitAsync(
                           compressSpec(workloads::makeText(
                               512, static_cast<uint64_t>(j))),
                           j % 2)
                        .accepted());
    EXPECT_EQ(srv.stats().queueDepthHighWater,
              static_cast<uint64_t>(kJobs));

    srv.resume();
    (void)srv.drain();
    // Draining cannot rewind the mark.
    EXPECT_EQ(srv.stats().queueDepthHighWater,
              static_cast<uint64_t>(kJobs));
}

TEST(JobServerStats, BusyRejectsAreAttributedToTheirWindow)
{
    // Fill window 1 of a gated server and bounce off it three times;
    // the per-window counters must name the guilty FIFO and sum to
    // the aggregate count.
    auto cfg = testChip();
    JobServerConfig jcfg;
    jcfg.workers = 1;
    jcfg.windows = 3;
    jcfg.window.fifoDepth = 2;
    jcfg.startPaused = true;
    JobServer srv(cfg, jcfg);

    auto spec = compressSpec(workloads::makeText(512, 9));
    for (int j = 0; j < 2; ++j)
        ASSERT_TRUE(srv.submitAsync(spec, 1).accepted());
    for (int j = 0; j < 3; ++j)
        EXPECT_EQ(srv.submitAsync(spec, 1).status,
                  nx::PasteStatus::Busy);
    // Other windows have room: accepted, and their counters stay 0.
    ASSERT_TRUE(srv.submitAsync(spec, 0).accepted());
    ASSERT_TRUE(srv.submitAsync(spec, 2).accepted());

    auto st = srv.stats();
    ASSERT_EQ(st.windowBusyRejects.size(), 3u);
    EXPECT_EQ(st.windowBusyRejects[0], 0u);
    EXPECT_EQ(st.windowBusyRejects[1], 3u);
    EXPECT_EQ(st.windowBusyRejects[2], 0u);
    EXPECT_EQ(st.busyRejects, 3u);

    srv.resume();
    srv.drainAndStop();
}

// ---------------------------------------------------------------------------
// Ticket contracts. Each death test builds its server inside the
// statement, so the forked child owns every thread it runs.
// ---------------------------------------------------------------------------

JobServerConfig
gatedServer()
{
    JobServerConfig jcfg;
    jcfg.workers = 1;
    jcfg.windows = 1;
    jcfg.startPaused = true;
    return jcfg;
}

Ticket
pasteOne(JobServer &srv)
{
    return srv.submitAsync(compressSpec(workloads::makeText(256, 5)))
        .ticket;
}

TEST(JobServerDeathTest, WaitAfterWaitAborts)
{
    EXPECT_DEATH(
        {
            JobServer srv(testChip());
            Ticket t = pasteOne(srv);
            (void)srv.wait(t);
            (void)srv.wait(t);
        },
        "ticket already claimed");
}

TEST(JobServerDeathTest, PollAfterDrainAborts)
{
    EXPECT_DEATH(
        {
            JobServer srv(testChip());
            Ticket t = pasteOne(srv);
            (void)srv.drain();
            (void)srv.poll(t);
        },
        "ticket already claimed");
}

TEST(JobServerDeathTest, UnissuedTicketsAbort)
{
    EXPECT_DEATH(
        {
            JobServer srv(testChip());
            (void)srv.wait(0);
        },
        "unknown ticket");
    EXPECT_DEATH(
        {
            JobServer srv(testChip());
            (void)srv.poll(1);    // nothing issued yet
        },
        "unknown ticket");
    EXPECT_DEATH(
        {
            JobServer srv(testChip());
            Ticket t = pasteOne(srv);
            (void)srv.wait(t + 1);
        },
        "unknown ticket");
}

// The engines stay gated, so the first claimant sleeps for good and
// the thread that arrives second, whichever it is, must abort.

TEST(JobServerDeathTest, SecondWaiterOnATicketAborts)
{
    EXPECT_DEATH(
        {
            JobServer srv(testChip(), gatedServer());
            Ticket t = pasteOne(srv);
            std::thread waiter([&srv, t] { (void)srv.wait(t); });
            (void)srv.wait(t);
            waiter.join();
        },
        "ticket already being waited on");
}

TEST(JobServerDeathTest, DrainOfAWaitedTicketAborts)
{
    EXPECT_DEATH(
        {
            JobServer srv(testChip(), gatedServer());
            Ticket t = pasteOne(srv);
            std::thread waiter([&srv, t] { (void)srv.wait(t); });
            (void)srv.drain();
            waiter.join();
        },
        "ticket already being waited on");
}

} // namespace
