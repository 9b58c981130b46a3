/**
 * @file
 * System-layer accelerator tests: CRB validation, VAS queueing
 * simulation invariants, the page-fault model, and the area inventory.
 */

#include <gtest/gtest.h>

#include "nx/area_model.h"
#include "nx/crb.h"
#include "nx/page_fault_model.h"
#include "nx/vas.h"

using nx::CondCode;
using nx::Crb;
using nx::DdeList;
using nx::FaultModelConfig;
using nx::FaultStrategy;
using nx::NxConfig;
using nx::VasSimConfig;

TEST(Crb, DdeListTotals)
{
    DdeList l;
    l.entries.push_back({0x1000, 100});
    l.entries.push_back({0x4000, 200});
    EXPECT_EQ(l.totalBytes(), 300u);
    EXPECT_EQ(DdeList::direct(0x0, 42).totalBytes(), 42u);
}

TEST(Crb, ValidationCatchesMissingTarget)
{
    Crb crb;
    crb.source = DdeList::direct(0x1000, 10);
    EXPECT_EQ(validateCrb(crb), CondCode::BadCrb);
    crb.target = DdeList::direct(0x2000, 10);
    EXPECT_EQ(validateCrb(crb), CondCode::Success);
}

TEST(Crb, ValidationCatchesBadOffset)
{
    Crb crb;
    crb.source = DdeList::direct(0x1000, 10);
    crb.target = DdeList::direct(0x2000, 10);
    crb.sourceOffset = 11;
    EXPECT_EQ(validateCrb(crb), CondCode::BadCrb);
}

TEST(CondCode, Names)
{
    EXPECT_STREQ(toString(CondCode::Success), "Success");
    EXPECT_STREQ(toString(CondCode::TranslationFault),
                 "TranslationFault");
}

class VasSimTest : public ::testing::Test
{
  protected:
    VasSimConfig
    baseConfig()
    {
        VasSimConfig cfg;
        cfg.chip = NxConfig::power9();
        cfg.jobBytes = 1 << 20;
        cfg.requesters = 4;
        cfg.horizonCycles = 4000000;
        cfg.warmupCycles = 200000;
        return cfg;
    }
};

TEST_F(VasSimTest, CompletesJobs)
{
    auto res = simulateChip(baseConfig());
    EXPECT_GT(res.jobsCompleted, 0u);
    EXPECT_GT(res.aggregateBps, 0.0);
    EXPECT_GT(res.meanLatencyCycles, 0.0);
}

TEST_F(VasSimTest, ThroughputSaturatesAtEnginePeak)
{
    auto cfg = baseConfig();
    cfg.requesters = 64;
    cfg.horizonCycles = 8000000;
    auto res = simulateChip(cfg);
    double peak = cfg.chip.peakCompressBps() *
        cfg.chip.compressEnginesPerUnit;
    EXPECT_LE(res.aggregateBps, peak * 1.02);
    EXPECT_GT(res.aggregateBps, peak * 0.5);
}

TEST_F(VasSimTest, MoreRequestersMoreThroughputUntilSaturation)
{
    // Small jobs leave dispatch/think gaps a single requester cannot
    // fill; extra requesters close them until the engine saturates.
    auto cfg = baseConfig();
    cfg.jobBytes = 64 * 1024;
    cfg.thinkCycles = 20000;
    cfg.requesters = 1;
    double one = simulateChip(cfg).aggregateBps;
    cfg.requesters = 4;
    double four = simulateChip(cfg).aggregateBps;
    EXPECT_GT(four, one * 1.5);
    double peak = cfg.chip.peakCompressBps();
    EXPECT_LE(four, peak * 1.02);
}

TEST_F(VasSimTest, LatencyGrowsUnderSaturation)
{
    auto cfg = baseConfig();
    cfg.requesters = 2;
    double lat2 = simulateChip(cfg).meanLatencyCycles;
    cfg.requesters = 64;
    double lat64 = simulateChip(cfg).meanLatencyCycles;
    EXPECT_GT(lat64, lat2 * 2);
}

TEST_F(VasSimTest, SystemScalesLinearly)
{
    auto cfg = baseConfig();
    cfg.requesters = 32;
    auto one = simulateChip(cfg);
    auto sys = simulateSystem(cfg, 20);
    EXPECT_NEAR(sys.aggregateBps, one.aggregateBps * 20,
                one.aggregateBps * 0.01);
}

TEST_F(VasSimTest, UtilizationBounded)
{
    auto cfg = baseConfig();
    cfg.requesters = 64;
    auto res = simulateChip(cfg);
    EXPECT_GT(res.utilization, 0.5);
    EXPECT_LE(res.utilization, 1.0);
}

TEST_F(VasSimTest, DecompressEnginesServeDecompressJobs)
{
    auto cfg = baseConfig();
    cfg.decompress = true;
    cfg.requesters = 8;
    auto res = simulateChip(cfg);
    EXPECT_GT(res.jobsCompleted, 0u);
    // Decompress engines are faster per byte than compress engines.
    auto comp = baseConfig();
    comp.requesters = 8;
    auto cres = simulateChip(comp);
    EXPECT_GT(res.aggregateBps, cres.aggregateBps * 1.5);
    double peak = cfg.chip.peakDecompressBps() *
        cfg.chip.decompressEnginesPerUnit;
    EXPECT_LE(res.aggregateBps, peak * 1.02);
}

TEST_F(VasSimTest, OpenArrivalLatencyGrowsWithLoad)
{
    auto cfg = baseConfig();
    cfg.openArrival = true;
    cfg.jobBytes = 256 << 10;
    cfg.horizonCycles = 30000000;
    cfg.warmupCycles = 1000000;

    nx::ServiceModel svc{cfg.chip};
    double svc_rate = 1.0 / cfg.chip.clock.toSeconds(
        svc.compressCycles(cfg.jobBytes));

    cfg.arrivalsPerSec = 0.2 * svc_rate;
    auto light = simulateChip(cfg);
    cfg.arrivalsPerSec = 0.9 * svc_rate;
    auto heavy = simulateChip(cfg);

    EXPECT_GT(light.jobsCompleted, 50u);
    EXPECT_GT(heavy.jobsCompleted, light.jobsCompleted * 2);
    EXPECT_GT(heavy.meanLatencyCycles,
              light.meanLatencyCycles * 1.5);
    EXPECT_GT(heavy.p99LatencyCycles, heavy.meanLatencyCycles);
}

TEST_F(VasSimTest, OpenArrivalDeterministicForSeed)
{
    auto cfg = baseConfig();
    cfg.openArrival = true;
    cfg.arrivalsPerSec = 3000;
    cfg.seed = 99;
    auto a = simulateChip(cfg);
    auto b = simulateChip(cfg);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_DOUBLE_EQ(a.meanLatencyCycles, b.meanLatencyCycles);
}

TEST(VasSimDeathTest, OpenArrivalNeedsARate)
{
    VasSimConfig cfg;
    cfg.chip = NxConfig::power9();
    cfg.openArrival = true;    // arrivalsPerSec left at its 0 default
    EXPECT_DEATH((void)simulateChip(cfg), "positive arrivalsPerSec");
}

TEST(PageFaultModel, NoFaultsNoSlowdown)
{
    FaultModelConfig cfg;
    cfg.chip = NxConfig::power9();
    cfg.faultProbPerPage = 0.0;
    cfg.jobs = 20;
    auto res = runFaultModel(cfg);
    EXPECT_NEAR(res.slowdown, 1.0, 1e-9);
    EXPECT_EQ(res.totalFaults, 0u);
}

TEST(PageFaultModel, FaultsSlowResubmitStrategy)
{
    FaultModelConfig cfg;
    cfg.chip = NxConfig::power9();
    cfg.faultProbPerPage = 0.05;
    cfg.strategy = FaultStrategy::ResubmitOnFault;
    cfg.jobs = 50;
    auto res = runFaultModel(cfg);
    EXPECT_GT(res.slowdown, 1.5);
    EXPECT_GT(res.meanResubmits, 1.0);
}

TEST(PageFaultModel, TouchFirstBeatsResubmitAtHighFaultRates)
{
    FaultModelConfig cfg;
    cfg.chip = NxConfig::power9();
    cfg.faultProbPerPage = 0.2;
    cfg.jobs = 50;

    cfg.strategy = FaultStrategy::ResubmitOnFault;
    auto resub = runFaultModel(cfg);
    cfg.strategy = FaultStrategy::TouchPagesFirst;
    auto touch = runFaultModel(cfg);
    EXPECT_GT(touch.effectiveBps, resub.effectiveBps);
}

TEST(PageFaultModel, ResubmitBeatsTouchFirstWhenResident)
{
    FaultModelConfig cfg;
    cfg.chip = NxConfig::power9();
    cfg.faultProbPerPage = 0.0;
    cfg.jobs = 20;

    cfg.strategy = FaultStrategy::ResubmitOnFault;
    auto resub = runFaultModel(cfg);
    cfg.strategy = FaultStrategy::TouchPagesFirst;
    auto touch = runFaultModel(cfg);
    // Touch-first pays the touch cost even with everything resident.
    EXPECT_GE(resub.effectiveBps, touch.effectiveBps);
}

TEST(PageFaultModel, Deterministic)
{
    FaultModelConfig cfg;
    cfg.chip = NxConfig::power9();
    cfg.faultProbPerPage = 0.1;
    cfg.seed = 42;
    auto a = runFaultModel(cfg);
    auto b = runFaultModel(cfg);
    EXPECT_DOUBLE_EQ(a.effectiveBps, b.effectiveBps);
    EXPECT_EQ(a.totalFaults, b.totalFaults);
}

TEST(AreaModel, InventoryIsPlausible)
{
    auto inv = nx::buildAreaInventory(NxConfig::power9());
    EXPECT_GE(inv.items.size(), 6u);
    // Total accelerator state: tens to a few hundred KiB.
    EXPECT_GT(inv.totalKiB(), 64.0);
    EXPECT_LT(inv.totalKiB(), 2048.0);
}

TEST(AreaModel, TinyFractionOfChipSram)
{
    auto cfg = NxConfig::power9();
    auto inv = nx::buildAreaInventory(cfg);
    double frac = static_cast<double>(inv.totalBits()) /
        static_cast<double>(nx::chipSramBitsReference(cfg));
    EXPECT_LT(frac, 0.005);    // the paper's < 0.5 % claim, SRAM proxy
}

TEST(AreaModel, Z15CarriesMoreState)
{
    auto p9 = nx::buildAreaInventory(NxConfig::power9());
    auto z15 = nx::buildAreaInventory(NxConfig::z15());
    EXPECT_GT(z15.totalBits(), p9.totalBits());
}
