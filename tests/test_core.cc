/**
 * @file
 * Public API tests: NxDevice, SoftwareCodec, the one-call nx::Session
 * path the nxzip CLI takes (routing by size, cross-path interop), and
 * topology presets.
 */

#include <gtest/gtest.h>

#include "core/device.h"
#include "core/session.h"
#include "core/topology.h"
#include "workloads/corpus.h"

using core::Mode;
using core::NxDevice;
using core::SoftwareCodec;

TEST(Topology, Presets)
{
    auto p9 = core::power9Chip();
    EXPECT_EQ(p9.cores, 24);
    EXPECT_EQ(p9.accel.compressBytesPerCycle, 4);

    auto z15 = core::z15Chip();
    EXPECT_EQ(z15.accel.compressBytesPerCycle,
              p9.accel.compressBytesPerCycle * 2);

    auto zmax = core::z15MaxSystem();
    EXPECT_EQ(zmax.chips, 20);
    // The abstract's 280 GB/s claim: engine-bound peak of the max
    // topology should be in that neighbourhood (we model 2 engines x
    // 16 GB/s x 20 chips = 640 GB/s peak; sustained rates from the
    // benches land near the claim).
    EXPECT_GT(zmax.peakSystemCompressBps(), 200e9);
}

TEST(NxDevice, CompressDecompressRoundTrip)
{
    NxDevice dev(nx::NxConfig::power9());
    auto input = workloads::makeText(300000, 71);
    auto c = dev.compress(input, nx::Framing::Gzip, Mode::DhtSampled);
    ASSERT_TRUE(c.ok());
    EXPECT_LT(c.data.size(), input.size());
    auto d = dev.decompress(c.data, nx::Framing::Gzip);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.data, input);
}

TEST(NxDevice, AllFramingsRoundTrip)
{
    NxDevice dev(nx::NxConfig::z15());
    auto input = workloads::makeCsv(100000, 72);
    for (auto framing : {nx::Framing::Raw, nx::Framing::Gzip,
                         nx::Framing::Zlib}) {
        auto c = dev.compress(input, framing, Mode::Auto);
        ASSERT_TRUE(c.ok());
        auto d = dev.decompress(c.data, framing);
        ASSERT_TRUE(d.ok());
        EXPECT_EQ(d.data, input);
    }
}

TEST(NxDevice, AutoModePicksFhtForSmallJobs)
{
    NxDevice dev(nx::NxConfig::power9());
    auto small = workloads::makeText(1024, 73);
    auto big = workloads::makeText(1 << 20, 73);
    auto cs = dev.compress(small, nx::Framing::Raw, Mode::Auto);
    auto cb = dev.compress(big, nx::Framing::Raw, Mode::Auto);
    ASSERT_TRUE(cs.ok());
    ASSERT_TRUE(cb.ok());
    // FHT: small job stream starts with BTYPE=01; DHT with BTYPE=10.
    // Bit 0 is BFINAL=1, bits 1-2 are BTYPE (LSB first).
    EXPECT_EQ((cs.data[0] >> 1) & 0x3, 1);    // fixed
    EXPECT_EQ((cb.data[0] >> 1) & 0x3, 2);    // dynamic
}

TEST(NxDevice, CompressFuncDecidesAutoAtTheThreshold)
{
    const uint64_t t = NxDevice::autoFhtThreshold();
    EXPECT_EQ(core::compressFunc(Mode::Auto, t - 1),
              nx::FuncCode::CompressFht);
    EXPECT_EQ(core::compressFunc(Mode::Auto, t), nx::FuncCode::CompressDht);
    EXPECT_EQ(core::compressFunc(Mode::Fht, t), nx::FuncCode::CompressFht);
    EXPECT_EQ(core::compressFunc(Mode::DhtSampled, 1),
              nx::FuncCode::CompressDht);
    EXPECT_EQ(core::compressFunc(Mode::DhtTwoPass, 1),
              nx::FuncCode::CompressDht);
}

TEST(NxDevice, ReportsModelledSeconds)
{
    NxDevice dev(nx::NxConfig::power9());
    auto input = workloads::makeText(1 << 20, 75);
    auto c = dev.compress(input);
    ASSERT_TRUE(c.ok());
    EXPECT_GT(c.seconds, 0.0);
    EXPECT_GT(c.sourceBps(), 1e9);    // an on-chip engine is GB/s-class
    EXPECT_LE(c.sourceBps(), dev.config().peakCompressBps() * 1.01);
}

TEST(SoftwareCodec, RoundTripAndTiming)
{
    SoftwareCodec sw(6);
    auto input = workloads::makeJson(200000, 76);
    auto c = sw.compress(input, nx::Framing::Gzip);
    ASSERT_TRUE(c.ok());
    EXPECT_GT(c.seconds, 0.0);
    auto d = sw.decompress(c.data, nx::Framing::Gzip);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.data, input);
}

TEST(SoftwareCodec, ZlibHeaderCarriesItsLevel)
{
    auto input = workloads::makeText(3000, 78);
    for (auto [level, flg] : {std::pair{1, 0x01}, std::pair{5, 0x5e},
                              std::pair{6, 0x9c}, std::pair{9, 0xda}}) {
        SoftwareCodec sw(level);
        auto c = sw.compress(input, nx::Framing::Zlib);
        ASSERT_TRUE(c.ok());
        ASSERT_GE(c.data.size(), 2u);
        EXPECT_EQ(c.data[0], 0x78) << "level " << level;
        EXPECT_EQ(c.data[1], flg) << "level " << level;
        auto d = sw.decompress(c.data, nx::Framing::Zlib);
        ASSERT_TRUE(d.ok());
        EXPECT_EQ(d.data, input);
    }
}

TEST(SoftwareCodec, BadStreamReported)
{
    SoftwareCodec sw(6);
    std::vector<uint8_t> garbage(100, 0x3c);
    auto d = sw.decompress(garbage, nx::Framing::Gzip);
    EXPECT_FALSE(d.ok());
}

// The Nxzip suite drives what the nxzip CLI runs for one file: a
// Session with the default policy on one chip.

TEST(Nxzip, ContextRoundTrip)
{
    nx::Session sess(core::power9Chip().accel);
    auto input = workloads::makeMixed(500000, 77);
    auto c = sess.compress(input);
    ASSERT_TRUE(c.ok) << c.error;
    EXPECT_EQ(c.backend, nx::Backend::Accelerator);
    EXPECT_GT(c.ratio(), 1.0);

    auto d = sess.decompress(c.data);
    ASSERT_TRUE(d.ok) << d.error;
    EXPECT_EQ(d.data, input);
}

TEST(Nxzip, SmallRequestsStayOnCore)
{
    nx::Session sess(core::power9Chip().accel);
    auto input = workloads::makeText(512, 78);
    auto c = sess.compress(input);
    ASSERT_TRUE(c.ok);
    EXPECT_EQ(c.backend, nx::Backend::Software);
    auto d = sess.decompress(c.data);
    ASSERT_TRUE(d.ok);
    EXPECT_EQ(d.data, input);
}

TEST(Nxzip, CrossPathInterop)
{
    // Software-compressed streams decompress on the accelerator path
    // and vice versa.
    nx::SessionPolicy pol;
    pol.accelThresholdBytes = 1;    // force accel even for small streams
    nx::Session accel(core::power9Chip().accel, pol);

    nx::SessionPolicy swPol;
    swPol.forceSoftware = true;    // force software
    nx::Session software(core::power9Chip().accel, swPol);

    auto input = workloads::makeLog(100000, 79);

    auto cs = software.compress(input);
    ASSERT_TRUE(cs.ok);
    auto da = accel.decompress(cs.data);
    ASSERT_TRUE(da.ok) << da.error;
    EXPECT_EQ(da.data, input);

    auto ca = accel.compress(input);
    ASSERT_TRUE(ca.ok);
    auto ds = software.decompress(ca.data);
    ASSERT_TRUE(ds.ok) << ds.error;
    EXPECT_EQ(ds.data, input);
}

TEST(Nxzip, AcceleratorMuchFasterThanSoftware)
{
    // The headline claim, at unit-test scale: modelled accelerator
    // time for a 4 MiB job must be orders of magnitude below measured
    // software time.
    nx::Session sess(core::power9Chip().accel);
    auto input = workloads::makeText(4 << 20, 80);
    auto accel = sess.compress(input);
    ASSERT_TRUE(accel.ok);

    core::SoftwareCodec sw(6);
    auto soft = sw.compress(input);
    ASSERT_TRUE(soft.ok());
    EXPECT_GT(soft.seconds / accel.seconds, 20.0);
}

TEST(Nxzip, EmptyInput)
{
    nx::Session sess(core::power9Chip().accel);
    std::vector<uint8_t> empty;
    auto c = sess.compress(empty);
    ASSERT_TRUE(c.ok) << c.error;
    auto d = sess.decompress(c.data);
    ASSERT_TRUE(d.ok) << d.error;
    EXPECT_TRUE(d.data.empty());
}
