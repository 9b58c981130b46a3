/**
 * @file
 * nx::Session verification suite (ctest label: session).
 *
 * The session layer is only trustworthy if its routing is *provably*
 * transparent: whatever the policy decides, the bytes the caller gets
 * must be exactly what the chosen backend's direct API would have
 * produced. Five families:
 *
 *  - differential: for every (format x backend x size-straddling-the-
 *    threshold) cell, Session output is bit-identical to the direct
 *    sync path (SoftwareCodec / e842::compress on the software side,
 *    NxDevice / e842::E842Engine on the accelerator side);
 *  - routing properties: the live decision matches
 *    routesToAccelerator() and the policy exactly at and around the
 *    threshold boundary, and is visible in stats();
 *  - fault injection: busy exhaustion, closed windows, retryable and
 *    terminal device faults all complete the request correctly in
 *    software and are counted;
 *  - output cap: maxOutputBytes bounds every decompress on both routes,
 *    and a cap past what one DDE describes still runs on the device;
 *  - lifecycle: close semantics and the configure-before-use contract
 *    (death tests).
 *
 * The multi-threaded stress lives in test_session_stress.cc under the
 * `concurrency` label so the TSan stage runs it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/device.h"
#include "core/fault_injector.h"
#include "core/session.h"
#include "e842/e842.h"
#include "e842/e842_engine.h"
#include "workloads/corpus.h"

namespace {

using core::JobServer;
using core::JobServerConfig;
using nx::Backend;
using nx::Session;
using nx::SessionFormat;
using nx::SessionPolicy;

constexpr uint64_t kThreshold = 1024;

const SessionFormat kFormats[] = {
    SessionFormat::Gzip, SessionFormat::Zlib,
    SessionFormat::RawDeflate, SessionFormat::E842};

nx::NxConfig
testChip()
{
    return nx::NxConfig::power9();
}

SessionPolicy
basePolicy(SessionFormat f)
{
    SessionPolicy p;
    p.format = f;
    p.accelThresholdBytes = kThreshold;
    return p;
}

nx::Framing
framingOf(SessionFormat f)
{
    switch (f) {
      case SessionFormat::Gzip: return nx::Framing::Gzip;
      case SessionFormat::Zlib: return nx::Framing::Zlib;
      default: return nx::Framing::Raw;
    }
}

/** Direct software-path oracle (what SW-routed output must equal). */
std::vector<uint8_t>
swCompress(SessionFormat f, int level, std::span<const uint8_t> in)
{
    if (f == SessionFormat::E842)
        return e842::compress(in).bytes;
    core::SoftwareCodec codec(level);
    auto r = codec.compress(in, framingOf(f));
    EXPECT_TRUE(r.ok());
    return r.data;
}

/** Direct accelerator-path oracle (the synchronous device API). */
std::vector<uint8_t>
hwCompress(SessionFormat f, std::span<const uint8_t> in, core::Mode mode)
{
    if (f == SessionFormat::E842)
        return e842::E842Engine().compressJob(in).output;
    core::NxDevice dev(testChip());
    auto r = dev.compress(in, framingOf(f), mode);
    EXPECT_TRUE(r.ok());
    return r.data;
}

std::vector<uint8_t>
swDecompress(SessionFormat f, int level, std::span<const uint8_t> in)
{
    if (f == SessionFormat::E842) {
        auto r = e842::decompress(in);
        EXPECT_TRUE(r.ok);
        return r.bytes;
    }
    core::SoftwareCodec codec(level);
    auto r = codec.decompress(in, framingOf(f));
    EXPECT_TRUE(r.ok());
    return r.data;
}

// ---------------------------------------------------------------------------
// Differential: Session output == direct sync path, every cell.
// ---------------------------------------------------------------------------

class SessionDifferential
    : public ::testing::TestWithParam<SessionFormat>
{
};

TEST_P(SessionDifferential, CompressMatchesDirectPathBothBackends)
{
    SessionFormat f = GetParam();
    Session sess(testChip(), basePolicy(f));
    // Sizes straddling the threshold: three software cells, three
    // accelerator cells, including both exact boundary neighbours.
    const size_t sizes[] = {1, kThreshold / 2, kThreshold - 1,
                            kThreshold, kThreshold + 1, 4 * kThreshold};
    for (size_t n : sizes) {
        SCOPED_TRACE(testing::Message()
                     << toString(f) << " n=" << n);
        auto payload = workloads::makeText(n, 42 + n);
        auto res = sess.compress(payload);
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_FALSE(res.fellBack);
        if (n >= kThreshold) {
            EXPECT_EQ(res.backend, Backend::Accelerator);
            EXPECT_EQ(res.data,
                      hwCompress(f, payload, sess.policy().mode));
        } else {
            EXPECT_EQ(res.backend, Backend::Software);
            EXPECT_EQ(res.data,
                      swCompress(f, sess.policy().level, payload));
        }
        EXPECT_EQ(res.inputBytes, n);
    }
    auto st = sess.stats();
    EXPECT_EQ(st.requests, 6u);
    EXPECT_EQ(st.softwareRouted, 3u);
    EXPECT_EQ(st.accelRouted, 3u);
    EXPECT_EQ(st.fallbacks, 0u);
    sess.close();
}

TEST_P(SessionDifferential, DecompressMatchesDirectPathBothBackends)
{
    SessionFormat f = GetParam();
    auto payload = workloads::makeText(3000, 7);
    auto stream = swCompress(f, 6, payload);

    // Software cell: threshold just above the stream size.
    {
        auto pol = basePolicy(f);
        pol.accelThresholdBytes = stream.size() + 1;
        Session sess(testChip(), pol);
        auto res = sess.decompress(stream);
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_EQ(res.backend, Backend::Software);
        EXPECT_EQ(res.data, payload);
        EXPECT_EQ(res.data, swDecompress(f, 6, stream));
        sess.close();
    }
    // Accelerator cell: threshold exactly at the stream size (the
    // boundary is inclusive on the accelerator side).
    {
        auto pol = basePolicy(f);
        pol.accelThresholdBytes = stream.size();
        Session sess(testChip(), pol);
        auto res = sess.decompress(stream);
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_EQ(res.backend, Backend::Accelerator);
        EXPECT_EQ(res.data, payload);
        sess.close();
    }
}

TEST_P(SessionDifferential, RoundTripAcrossBackends)
{
    // Compress on one backend, decompress on the other: the formats
    // are interoperable across backends by construction.
    SessionFormat f = GetParam();
    auto payload = workloads::makeLog(8 << 10, 3);

    auto hwPol = basePolicy(f);
    hwPol.accelThresholdBytes = 0;      // everything to the device
    Session hw(testChip(), hwPol);
    auto c = hw.compress(payload);
    ASSERT_TRUE(c.ok) << c.error;
    EXPECT_EQ(c.backend, Backend::Accelerator);

    auto swPol = basePolicy(f);
    swPol.forceSoftware = true;
    Session sw(testChip(), swPol);
    auto d = sw.decompress(c.data);
    ASSERT_TRUE(d.ok) << d.error;
    EXPECT_EQ(d.backend, Backend::Software);
    EXPECT_EQ(d.data, payload);
    hw.close();
    sw.close();
}

TEST_P(SessionDifferential, FallbackOutputBitIdenticalToSoftware)
{
    // Under a permanently faulting device, accelerator-routed requests
    // must still produce exactly the software stream.
    SessionFormat f = GetParam();
    nx::FaultInjector faults;
    faults.failEveryNth(1);     // every device job faults
    JobServerConfig jcfg;
    jcfg.workers = 2;
    jcfg.faultInjector = &faults;
    JobServer srv(testChip(), jcfg);

    auto pol = basePolicy(f);
    pol.faultRetries = 1;
    Session sess(srv, pol);
    auto payload = workloads::makeText(4 * kThreshold, 11);
    auto res = sess.compress(payload);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.fellBack);
    EXPECT_EQ(res.backend, Backend::Software);
    EXPECT_EQ(res.data, swCompress(f, pol.level, payload));

    auto d = sess.decompress(res.data);
    ASSERT_TRUE(d.ok) << d.error;
    EXPECT_EQ(d.data, payload);

    auto st = sess.stats();
    EXPECT_EQ(st.fallbacks, st.accelRouted);
    EXPECT_GE(st.deviceFaults, st.accelRouted);
    sess.close();
    srv.drainAndStop();
}

INSTANTIATE_TEST_SUITE_P(AllFormats, SessionDifferential,
                         ::testing::ValuesIn(kFormats),
                         [](const auto &pinfo) {
                             switch (pinfo.param) {
                               case SessionFormat::Gzip: return "Gzip";
                               case SessionFormat::Zlib: return "Zlib";
                               case SessionFormat::RawDeflate:
                                 return "RawDeflate";
                               case SessionFormat::E842: return "E842";
                             }
                             return "Unknown";
                         });

// ---------------------------------------------------------------------------
// Routing properties at the threshold boundary.
// ---------------------------------------------------------------------------

TEST(SessionRouting, DecisionMatchesPolicyAroundThreshold)
{
    for (SessionFormat f : kFormats) {
        for (uint64_t delta : {uint64_t{0}, uint64_t{1}, uint64_t{2}}) {
            for (bool below : {true, false}) {
                uint64_t n = below ? kThreshold - 1 - delta
                                   : kThreshold + delta;
                SCOPED_TRACE(testing::Message()
                             << toString(f) << " n=" << n);
                Session sess(testChip(), basePolicy(f));
                EXPECT_EQ(sess.routesToAccelerator(n), !below);
                auto res = sess.compress(
                    workloads::makeText(n, 5));
                ASSERT_TRUE(res.ok);
                EXPECT_EQ(res.backend == Backend::Accelerator, !below);
                auto st = sess.stats();
                EXPECT_EQ(st.accelRouted, below ? 0u : 1u);
                EXPECT_EQ(st.softwareRouted, below ? 1u : 0u);
                sess.close();
            }
        }
    }
}

TEST(SessionRouting, ZeroThresholdRoutesEverythingToDevice)
{
    auto pol = basePolicy(SessionFormat::Gzip);
    pol.accelThresholdBytes = 0;
    Session sess(testChip(), pol);
    auto res = sess.compress(workloads::makeText(16, 1));
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.backend, Backend::Accelerator);
    EXPECT_EQ(sess.stats().accelRouted, 1u);
    sess.close();
}

TEST(SessionRouting, ForceSoftwareNeverTouchesTheDevice)
{
    auto pol = basePolicy(SessionFormat::Zlib);
    pol.forceSoftware = true;
    Session sess(testChip(), pol);
    for (size_t n : {size_t{16}, size_t{64 * 1024}}) {
        EXPECT_FALSE(sess.routesToAccelerator(n));
        auto res = sess.compress(workloads::makeText(n, 2));
        ASSERT_TRUE(res.ok);
        EXPECT_EQ(res.backend, Backend::Software);
        EXPECT_FALSE(res.fellBack);
        EXPECT_EQ(res.deviceSubmits, 0);
    }
    auto st = sess.stats();
    EXPECT_EQ(st.accelRouted, 0u);
    EXPECT_EQ(st.pool.acquires, 0u);   // no staging for software legs
    sess.close();
}

// ---------------------------------------------------------------------------
// Fault injection and fallback accounting.
// ---------------------------------------------------------------------------

TEST(SessionFaults, TranslationFaultIsResubmittedThenSucceeds)
{
    nx::FaultInjector faults;
    faults.failNext(1, nx::CondCode::TranslationFault);
    JobServerConfig jcfg;
    jcfg.faultInjector = &faults;
    JobServer srv(testChip(), jcfg);

    auto pol = basePolicy(SessionFormat::Gzip);
    pol.faultRetries = 2;
    Session sess(srv, pol);
    auto payload = workloads::makeText(2 * kThreshold, 9);
    auto res = sess.compress(payload);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.backend, Backend::Accelerator);   // retry succeeded
    EXPECT_FALSE(res.fellBack);
    EXPECT_EQ(res.deviceSubmits, 2);
    EXPECT_EQ(res.data, hwCompress(SessionFormat::Gzip, payload,
                                   pol.mode));
    auto st = sess.stats();
    EXPECT_EQ(st.deviceFaults, 1u);
    EXPECT_EQ(st.fallbacks, 0u);
    sess.close();
    srv.drainAndStop();
    EXPECT_EQ(srv.stats().jobFaults, 1u);
    EXPECT_EQ(srv.stats().faultsInjected, 1u);
}

TEST(SessionFaults, TerminalConditionCodeFallsBackWithoutRetry)
{
    nx::FaultInjector faults;
    faults.failNext(2, nx::CondCode::OutputOverflow);
    JobServerConfig jcfg;
    jcfg.faultInjector = &faults;
    JobServer srv(testChip(), jcfg);

    auto pol = basePolicy(SessionFormat::Gzip);
    pol.faultRetries = 3;   // budget exists but must not be spent
    Session sess(srv, pol);
    auto payload = workloads::makeText(2 * kThreshold, 10);
    auto res = sess.compress(payload);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.fellBack);
    EXPECT_EQ(res.deviceSubmits, 1);   // OutputOverflow is not retried
    EXPECT_EQ(res.data, swCompress(SessionFormat::Gzip, pol.level,
                                   payload));
    EXPECT_EQ(sess.stats().deviceFaults, 1u);
    sess.close();
    srv.drainAndStop();
}

TEST(SessionFaults, RetryBudgetExhaustionFallsBack)
{
    nx::FaultInjector faults;
    faults.failNext(3, nx::CondCode::TranslationFault);
    JobServerConfig jcfg;
    jcfg.faultInjector = &faults;
    JobServer srv(testChip(), jcfg);

    auto pol = basePolicy(SessionFormat::Zlib);
    pol.faultRetries = 2;   // 3 submissions, all faulted
    Session sess(srv, pol);
    auto payload = workloads::makeText(2 * kThreshold, 12);
    auto res = sess.compress(payload);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.fellBack);
    EXPECT_EQ(res.deviceSubmits, 3);
    auto st = sess.stats();
    EXPECT_EQ(st.deviceFaults, 3u);
    EXPECT_EQ(st.fallbacks, 1u);
    sess.close();
    srv.drainAndStop();
}

TEST(SessionFaults, BusyExhaustionFallsBackAndIsCounted)
{
    // One window of depth 1, engines gated: the FIFO stays full, so
    // every session paste busy-rejects until the budget runs out.
    JobServerConfig jcfg;
    jcfg.workers = 1;
    jcfg.windows = 1;
    jcfg.window.fifoDepth = 1;
    jcfg.startPaused = true;
    JobServer srv(testChip(), jcfg);
    core::JobSpec filler;
    filler.kind = core::JobKind::Compress;
    filler.payload = workloads::makeText(256, 1);
    auto fill = srv.submitAsync(filler);
    ASSERT_TRUE(fill.accepted());

    auto pol = basePolicy(SessionFormat::Gzip);
    pol.backoff.maxAttempts = 3;
    pol.backoff.initialDelay = std::chrono::microseconds(1);
    pol.backoff.maxDelay = std::chrono::microseconds(2);
    Session sess(srv, pol);
    auto payload = workloads::makeText(2 * kThreshold, 13);
    auto res = sess.compress(payload);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.fellBack);
    EXPECT_EQ(res.backend, Backend::Software);
    EXPECT_EQ(res.data, swCompress(SessionFormat::Gzip, pol.level,
                                   payload));
    auto st = sess.stats();
    EXPECT_EQ(st.busyExhausted, 1u);
    EXPECT_EQ(st.fallbacks, 1u);
    EXPECT_EQ(st.deviceFaults, 0u);

    srv.resume();
    sess.close();
    srv.drainAndStop();
    // The server-side observable (satellite of the same story).
    EXPECT_EQ(srv.stats().busyExhausted, 1u);
    EXPECT_GE(srv.stats().busyRejects, 3u);
}

TEST(SessionFaults, ClosedServerFallsBack)
{
    JobServer srv(testChip());
    srv.drainAndStop();
    Session sess(srv, basePolicy(SessionFormat::RawDeflate));
    auto payload = workloads::makeText(2 * kThreshold, 14);
    auto res = sess.compress(payload);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.fellBack);
    EXPECT_EQ(res.data, swCompress(SessionFormat::RawDeflate, 6,
                                   payload));
    EXPECT_EQ(sess.stats().closedRejects, 1u);
    sess.close();
}

TEST(SessionFaults, CorruptStreamFailsOnBothPaths)
{
    auto payload = workloads::makeText(4 * kThreshold, 15);
    auto stream = swCompress(SessionFormat::Gzip, 6, payload);
    stream[stream.size() / 2] ^= 0xFF;   // corrupt the deflate body

    auto pol = basePolicy(SessionFormat::Gzip);
    pol.accelThresholdBytes = 1;   // device path first
    Session sess(testChip(), pol);
    auto res = sess.decompress(stream);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());
    // BadData is terminal on the device, then software also rejects.
    EXPECT_TRUE(res.fellBack);
    sess.close();
}

// ---------------------------------------------------------------------------
// Output cap.
// ---------------------------------------------------------------------------

TEST(SessionOutputCap, OneByteOverTheCapFailsOnBothRoutes)
{
    constexpr uint64_t kCap = 5000;
    const auto atCap = workloads::makeText(kCap, 22);
    const auto overCap = workloads::makeText(kCap + 1, 22);
    for (SessionFormat f : {SessionFormat::Gzip, SessionFormat::Zlib,
                            SessionFormat::RawDeflate}) {
        for (bool software : {false, true}) {
            SCOPED_TRACE(testing::Message() << toString(f)
                         << (software ? " forceSoftware" : " device"));
            auto pol = basePolicy(f);
            pol.accelThresholdBytes = 0;
            pol.forceSoftware = software;
            pol.maxOutputBytes = kCap;
            Session sess(testChip(), pol);

            auto at = sess.decompress(swCompress(f, 6, atCap));
            ASSERT_TRUE(at.ok) << at.error;
            EXPECT_EQ(at.data, atCap);
            EXPECT_EQ(at.backend, software ? Backend::Software
                                           : Backend::Accelerator);

            auto over = sess.decompress(swCompress(f, 6, overCap));
            EXPECT_FALSE(over.ok);
            EXPECT_TRUE(over.data.empty());
            EXPECT_NE(over.error.find("OutputOverflow"), std::string::npos)
                << over.error;
            // The device reports the overflow; the software leg then
            // refuses under the same cap.
            EXPECT_EQ(over.fellBack, !software);
            sess.close();
        }
    }
}

TEST(SessionOutputCap, SoftwareCodecReportsOutputOverflow)
{
    auto payload = workloads::makeText(5000, 23);
    core::SoftwareCodec codec;
    for (nx::Framing fr : {nx::Framing::Gzip, nx::Framing::Zlib,
                           nx::Framing::Raw}) {
        SCOPED_TRACE(testing::Message() << "framing "
                     << static_cast<int>(fr));
        auto stream = codec.compress(payload, fr).data;
        auto over = codec.decompress(stream, fr, payload.size() - 1);
        EXPECT_EQ(over.csb.cc, nx::CondCode::OutputOverflow);
        EXPECT_TRUE(over.data.empty());
        auto at = codec.decompress(stream, fr, payload.size());
        ASSERT_TRUE(at.ok());
        EXPECT_EQ(at.data, payload);
    }
}

TEST(SessionOutputCap, CapPastOneDdeStillRunsOnTheDevice)
{
    auto payload = workloads::makeText(8192, 24);
    auto stream = swCompress(SessionFormat::Gzip, 6, payload);
    for (uint64_t cap : {uint64_t{1} << 33, UINT64_MAX}) {
        SCOPED_TRACE(testing::Message() << "cap " << cap);
        auto pol = basePolicy(SessionFormat::Gzip);
        pol.accelThresholdBytes = 0;
        pol.maxOutputBytes = cap;
        Session sess(testChip(), pol);
        auto res = sess.decompress(stream);
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_EQ(res.backend, Backend::Accelerator);
        EXPECT_FALSE(res.fellBack);
        EXPECT_EQ(res.data, payload);
        sess.close();
    }
}

// ---------------------------------------------------------------------------
// Stats and pool integration.
// ---------------------------------------------------------------------------

TEST(SessionStats, CountersAddUpAcrossMixedTraffic)
{
    Session sess(testChip(), basePolicy(SessionFormat::Gzip));
    uint64_t expectIn = 0;
    int accel = 0, sw = 0;
    for (int i = 0; i < 12; ++i) {
        size_t n = (i % 2 == 0) ? 256 : 2 * kThreshold;
        auto res = sess.compress(
            workloads::makeText(n, 100 + static_cast<uint64_t>(i)));
        ASSERT_TRUE(res.ok);
        expectIn += n;
        (n >= kThreshold ? accel : sw) += 1;
    }
    auto st = sess.stats();
    EXPECT_EQ(st.requests, 12u);
    EXPECT_EQ(st.softwareRouted + st.accelRouted, st.requests);
    EXPECT_EQ(st.accelRouted, static_cast<uint64_t>(accel));
    EXPECT_EQ(st.softwareRouted, static_cast<uint64_t>(sw));
    EXPECT_EQ(st.bytesIn, expectIn);
    EXPECT_GT(st.bytesOut, 0u);
    EXPECT_EQ(st.fallbacks, 0u);
    // Every accel-routed request staged exactly one pool buffer, all
    // released by request end, all served from the same hot slab.
    EXPECT_EQ(st.pool.acquires, st.accelRouted);
    EXPECT_EQ(st.pool.releases, st.pool.acquires);
    EXPECT_EQ(st.pool.poolHits, st.pool.acquires);
    EXPECT_EQ(st.pool.heapFallbacks, 0u);
    EXPECT_EQ(st.pool.freeSlabs, st.pool.slabCount);
    sess.close();
}

TEST(SessionStats, ExhaustedPoolStillServesRequests)
{
    nx::BufferPoolConfig pool;
    pool.slabCount = 0;   // every staging acquire heap-falls-back
    auto pol = basePolicy(SessionFormat::Gzip);
    pol.accelThresholdBytes = 1;
    Session sess(testChip(), pol, pool);
    auto payload = workloads::makeText(4096, 21);
    auto res = sess.compress(payload);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.backend, Backend::Accelerator);
    auto st = sess.stats();
    EXPECT_EQ(st.pool.heapFallbacks, 1u);
    EXPECT_EQ(st.pool.poolHits, 0u);
    sess.close();
}

// ---------------------------------------------------------------------------
// Lifecycle contracts.
// ---------------------------------------------------------------------------

TEST(SessionLifecycle, ConfigureBeforeFirstRequestTakesEffect)
{
    Session sess(testChip());
    SessionPolicy pol = basePolicy(SessionFormat::Zlib);
    pol.forceSoftware = true;
    sess.configure(pol);
    auto res = sess.compress(workloads::makeText(64 << 10, 3));
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.backend, Backend::Software);
    sess.close();
}

TEST(SessionLifecycle, CloseIsIdempotentAndStatsSurvive)
{
    Session sess(testChip(), basePolicy(SessionFormat::Gzip));
    auto res = sess.compress(workloads::makeText(128, 4));
    ASSERT_TRUE(res.ok);
    sess.close();
    sess.close();   // runtime-idempotent (the destructor closes too)
    EXPECT_EQ(sess.stats().requests, 1u);
}

TEST(SessionLifecycleDeathTest, RequestAfterCloseAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Session sess(testChip(), basePolicy(SessionFormat::Gzip));
    sess.close();
    auto data = workloads::makeText(64, 5);
    EXPECT_DEATH((void)sess.compress(data),
                 "request on a closed session");
}

TEST(SessionLifecycleDeathTest, ConfigureAfterUseAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Session sess(testChip(), basePolicy(SessionFormat::Gzip));
    (void)sess.compress(workloads::makeText(64, 6));
    SessionPolicy pol;
    EXPECT_DEATH(sess.configure(pol),
                 "configure\\(\\) after the first request");
    sess.close();
}

} // namespace
