/**
 * @file
 * Multi-session concurrency suite for nx::Session (ctest label:
 * concurrency — ci.sh runs it under ThreadSanitizer).
 *
 * The session layer's concurrency claims: many sessions can share one
 * JobServer engine pool, one session can be driven from many threads,
 * and the per-session stats block stays consistent — all while a fault
 * injector is knocking out a fraction of the device jobs, so the
 * fallback path races the happy path.
 *
 * gtest assertions run on the main thread only; worker threads record
 * outcomes and the main thread checks them afterwards. Sized to finish
 * well under 10 s with TSan instrumentation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/fault_injector.h"
#include "core/session.h"
#include "load/load_gen.h"
#include "workloads/corpus.h"

namespace {

using core::JobServer;
using core::JobServerConfig;
using nx::Session;
using nx::SessionFormat;
using nx::SessionPolicy;

constexpr uint64_t kThreshold = 256;

nx::NxConfig
testChip()
{
    return nx::NxConfig::power9();
}

/** Payload sizes straddle the threshold so both routes race. */
std::vector<uint8_t>
payloadFor(uint64_t seed)
{
    size_t n = (seed % 2 == 0) ? 64 + seed % 128
                               : 2 * kThreshold + seed % 4096;
    return workloads::makeMixed(n, seed);
}

TEST(SessionStress, ManySessionsSharedServerWithFaultsAllRoundTrip)
{
    const size_t kSessions = 4;
    const size_t kRequests = 32;
    const SessionFormat formats[] = {
        SessionFormat::Gzip, SessionFormat::Zlib,
        SessionFormat::RawDeflate, SessionFormat::E842};

    nx::FaultInjector faults;
    faults.failEveryNth(5);   // every 5th device job faults
    JobServerConfig jcfg;
    jcfg.workers = 3;
    jcfg.windows = 2;
    jcfg.window.fifoDepth = 8;
    jcfg.faultInjector = &faults;
    JobServer srv(testChip(), jcfg);

    std::vector<std::unique_ptr<Session>> sessions;
    for (size_t s = 0; s < kSessions; ++s) {
        SessionPolicy pol;
        pol.format = formats[s % 4];
        pol.accelThresholdBytes = kThreshold;
        pol.window = static_cast<int>(s) % jcfg.windows;
        pol.backoff.maxAttempts = 1000;   // acceptance must happen
        pol.faultRetries = 0;   // every injected fault falls back
        sessions.push_back(std::make_unique<Session>(srv, pol));
    }

    // Each thread drives its own session: compress, decompress the
    // produced stream through the same session, compare to the source.
    std::vector<int> mismatches(kSessions, 0);
    std::vector<int> failures(kSessions, 0);
    std::vector<std::thread> drivers;
    drivers.reserve(kSessions);
    for (size_t s = 0; s < kSessions; ++s) {
        drivers.emplace_back([&, s] {
            for (size_t j = 0; j < kRequests; ++j) {
                uint64_t seed = 1000 * s + j;
                auto payload = payloadFor(seed);
                auto c = sessions[s]->compress(payload);
                if (!c.ok) {
                    ++failures[s];
                    continue;
                }
                auto d = sessions[s]->decompress(c.data);
                if (!d.ok) {
                    ++failures[s];
                    continue;
                }
                if (d.data != payload)
                    ++mismatches[s];
            }
        });
    }
    for (auto &t : drivers)
        t.join();

    uint64_t requests = 0, fallbacks = 0, deviceFaults = 0;
    for (size_t s = 0; s < kSessions; ++s) {
        EXPECT_EQ(failures[s], 0) << "session " << s;
        EXPECT_EQ(mismatches[s], 0) << "session " << s;
        auto st = sessions[s]->stats();
        // 2 requests per iteration (compress + decompress).
        EXPECT_EQ(st.requests, 2 * kRequests) << "session " << s;
        EXPECT_EQ(st.softwareRouted + st.accelRouted, st.requests);
        EXPECT_LE(st.fallbacks, st.accelRouted);
        // Each accel-routed request stages exactly one pool buffer
        // and returns it before completing.
        EXPECT_EQ(st.pool.acquires, st.accelRouted);
        EXPECT_EQ(st.pool.releases, st.pool.acquires);
        EXPECT_EQ(st.pool.freeSlabs, st.pool.slabCount);
        requests += st.requests;
        fallbacks += st.fallbacks;
        deviceFaults += st.deviceFaults;
        sessions[s]->close();
    }
    EXPECT_EQ(requests, 2 * kSessions * kRequests);

    srv.drainAndStop();
    auto st = srv.stats();
    EXPECT_EQ(st.completed, st.submitted);
    // The injector really fired, and every injected fault surfaced as
    // a faulted job (inputs are valid, so there are no organic faults
    // besides injected ones).
    EXPECT_GT(st.faultsInjected, 0u);
    EXPECT_EQ(st.jobFaults, st.faultsInjected);
    EXPECT_EQ(st.faultsInjected, faults.injected());
    // Sessions saw every faulted completion (fault retries may turn
    // one request into several device faults; counts still match the
    // server's view because each faulted CSB is observed exactly once).
    EXPECT_EQ(deviceFaults, st.jobFaults);
    EXPECT_GT(fallbacks, 0u);
}

TEST(SessionStress, TicketTableEmptiesAfterClaims)
{
    // Every device request claims its ticket, faulted ones and their
    // resubmissions included, so the server's ticket table is empty
    // again once the sessions are done, however many requests ran.
    const size_t kSessions = 2;
    const size_t kRequests = 2000;
    nx::FaultInjector faults;
    faults.failEveryNth(5);
    JobServerConfig jcfg;
    jcfg.workers = 2;
    jcfg.windows = 2;
    jcfg.window.fifoDepth = 4;
    jcfg.faultInjector = &faults;
    JobServer srv(testChip(), jcfg);

    // The software oracle: it writes the streams the sessions inflate
    // and decodes the streams they produce.
    SessionPolicy swPol;
    swPol.forceSoftware = true;
    Session oracle(srv, swPol);
    std::vector<std::vector<uint8_t>> payloads, streams;
    for (uint64_t seed = 0; seed < 16; ++seed) {
        payloads.push_back(workloads::makeMixed(64 + 61 * seed, seed));
        streams.push_back(oracle.compress(payloads.back()).data);
    }

    std::vector<std::unique_ptr<Session>> sessions;
    for (size_t s = 0; s < kSessions; ++s) {
        SessionPolicy pol;
        pol.accelThresholdBytes = 0;   // every request goes to the device
        pol.faultRetries = 1;
        pol.window = static_cast<int>(s);
        pol.backoff.maxAttempts = 1000;
        sessions.push_back(std::make_unique<Session>(srv, pol));
    }

    std::vector<int> bad(kSessions, 0);
    std::vector<std::thread> clients;
    clients.reserve(kSessions);
    for (size_t s = 0; s < kSessions; ++s) {
        clients.emplace_back([&, s] {
            for (size_t j = 0; j < kRequests; ++j) {
                size_t i = (s + j) % payloads.size();
                nx::SessionResult r = j % 2 == 0
                    ? sessions[s]->compress(payloads[i])
                    : sessions[s]->decompress(streams[i]);
                if (r.ok && j % 2 == 0)
                    r = oracle.decompress(r.data);
                if (!r.ok || r.data != payloads[i])
                    ++bad[s];
            }
        });
    }
    for (auto &t : clients)
        t.join();
    for (size_t s = 0; s < kSessions; ++s)
        EXPECT_EQ(bad[s], 0) << "session " << s;

    auto st = srv.stats();
    EXPECT_EQ(st.unclaimed, 0u);
    EXPECT_EQ(st.submitted, st.completed);
    EXPECT_GE(st.submitted, kSessions * kRequests);
    EXPECT_GT(st.faultsInjected, 0u);
    for (auto &sess : sessions)
        sess->close();
    oracle.close();
    srv.drainAndStop();
}

TEST(SessionStress, OneSessionManyThreads)
{
    const int kThreads = 6;
    const int kPerThread = 24;
    SessionPolicy pol;
    pol.format = SessionFormat::Gzip;
    pol.accelThresholdBytes = kThreshold;
    pol.backoff.maxAttempts = 1000;
    Session sess(testChip(), pol);

    std::vector<int> bad(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int j = 0; j < kPerThread; ++j) {
                uint64_t seed =
                    static_cast<uint64_t>(t) * 100 +
                    static_cast<uint64_t>(j);
                auto payload = payloadFor(seed);
                auto c = sess.compress(payload);
                if (!c.ok) {
                    ++bad[static_cast<size_t>(t)];
                    continue;
                }
                auto d = sess.decompress(c.data);
                if (!d.ok || d.data != payload)
                    ++bad[static_cast<size_t>(t)];
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(bad[static_cast<size_t>(t)], 0) << "thread " << t;

    auto st = sess.stats();
    EXPECT_EQ(st.requests,
              static_cast<uint64_t>(2 * kThreads * kPerThread));
    EXPECT_EQ(st.softwareRouted + st.accelRouted, st.requests);
    EXPECT_EQ(st.fallbacks, 0u);   // no injector, no backpressure cliff
    EXPECT_EQ(st.pool.releases, st.pool.acquires);
    sess.close();
}

TEST(SessionStress, SessionsComeAndGoWhileTheServerKeepsRunning)
{
    // Session churn against a long-lived server: sessions open, issue
    // a few requests, and close, in waves, from several threads. The
    // shared server must be unaffected by session lifetimes.
    JobServerConfig jcfg;
    jcfg.workers = 2;
    jcfg.windows = 2;
    JobServer srv(testChip(), jcfg);

    const int kThreads = 4, kWaves = 6;
    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int w = 0; w < kWaves; ++w) {
                SessionPolicy pol;
                pol.format = (t % 2 == 0) ? SessionFormat::Gzip
                                          : SessionFormat::E842;
                pol.accelThresholdBytes = kThreshold;
                pol.window = t % 2;
                pol.backoff.maxAttempts = 1000;
                Session sess(srv, pol);
                uint64_t seed =
                    static_cast<uint64_t>(t) * 1000 +
                    static_cast<uint64_t>(w);
                auto payload = payloadFor(seed);
                auto c = sess.compress(payload);
                auto d = c.ok ? sess.decompress(c.data)
                              : nx::SessionResult{};
                if (!d.ok || d.data != payload)
                    bad.fetch_add(1, std::memory_order_relaxed);
                sess.close();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(bad.load(), 0);

    srv.drainAndStop();
    auto st = srv.stats();
    EXPECT_EQ(st.completed, st.submitted);
    EXPECT_EQ(st.jobFaults, 0u);
}

TEST(SessionStress, LoadGenMixedArrivalsSurviveFaultInjection)
{
    // The full load harness — every arrival kind over the serving mix —
    // against one shared server whose device path faults every 4th
    // job. The clients must never see a failure (software fallback is
    // load-bearing), the server must lose no tickets, and every
    // fallback's output must be bit-identical to the pure-software
    // path for the same payload.
    nx::FaultInjector faults;
    faults.failEveryNth(4);
    JobServerConfig jcfg;
    jcfg.workers = 3;
    jcfg.windows = 2;
    jcfg.window.fifoDepth = 4;
    jcfg.faultInjector = &faults;
    JobServer srv(testChip(), jcfg);

    load::LoadGenConfig base;
    base.clients = 5;
    base.requestsPerClient = 16;
    base.arrival.ratePerSec = 4000.0;
    base.arrival.thinkSeconds = 0.0002;
    base.mix.variantsPerClass = 2;
    base.workers = jcfg.workers;
    base.windows = jcfg.windows;
    base.fifoDepth = jcfg.window.fifoDepth;
    base.policy.accelThresholdBytes = kThreshold;
    base.policy.backoff.maxAttempts = 1000;
    base.policy.faultRetries = 0;   // every injected fault falls back
    base.captureResults = true;

    // Pure-software oracle sessions, one per format in the mix.
    std::vector<std::unique_ptr<Session>> oracles;
    auto oracleFor = [&](SessionFormat f) -> Session & {
        for (auto &s : oracles)
            if (s->policy().format == f)
                return *s;
        SessionPolicy pol = base.policy;
        pol.format = f;
        pol.forceSoftware = true;
        oracles.push_back(std::make_unique<Session>(srv, pol));
        return *oracles.back();
    };

    uint64_t fallbacks = 0, submitted = 0;
    uint64_t seed = 0xFA117;
    for (auto kind : {load::ArrivalKind::OpenPoisson,
                      load::ArrivalKind::Bursty,
                      load::ArrivalKind::ClosedLoop}) {
        auto cfg = base;
        cfg.arrival.kind = kind;
        cfg.seed = seed++;
        load::LoadGen gen(cfg);
        auto rep = gen.run(srv);

        EXPECT_EQ(rep.failed, 0u) << toString(kind);
        EXPECT_EQ(rep.completed, rep.submitted) << toString(kind);
        submitted += rep.submitted;
        fallbacks += rep.fallbacks;

        load::WorkloadMix oracleMix(cfg.mix);
        for (const auto &cr : rep.captured) {
            ASSERT_TRUE(cr.ok);
            if (!cr.fellBack || cr.kind != core::JobKind::Compress)
                continue;
            // A fallback compress must have produced exactly what the
            // software leg produces for the same bytes.
            const auto &src = oracleMix.variant(cr.classIndex,
                                                cr.variantIndex);
            auto fmt = cfg.mix.classes[cr.classIndex].format;
            auto sw = oracleFor(fmt).compress(src);
            ASSERT_TRUE(sw.ok);
            EXPECT_EQ(cr.data, sw.data)
                << toString(kind) << " client " << cr.client << " req "
                << cr.requestIndex;
        }
    }
    // Three runs of 80 requests each at a 1-in-4 fault rate: fallbacks
    // must actually have happened, or the oracle loop proved nothing.
    EXPECT_EQ(submitted, 3u * 5u * 16u);
    EXPECT_GT(fallbacks, 0u);

    for (auto &s : oracles)
        s->close();
    srv.drainAndStop();
    auto st = srv.stats();
    // No lost tickets: everything accepted was completed and claimed.
    EXPECT_EQ(st.completed, st.submitted);
    EXPECT_GT(st.faultsInjected, 0u);
    EXPECT_EQ(st.jobFaults, st.faultsInjected);
    EXPECT_EQ(st.faultsInjected, faults.injected());
}

} // namespace
