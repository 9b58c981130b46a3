/**
 * @file
 * Unit tests for RunningStat, Percentiles and the
 * LatencyRecorder snapshot (including the p999 tail percentile the
 * serving SLO report keys on).
 */

#include <gtest/gtest.h>

#include "util/latency_recorder.h"
#include "util/stats.h"
#include "util/table.h"

using util::Percentiles;
using util::RunningStat;

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, MeanMinMaxSum)
{
    RunningStat s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStat, VarianceMatchesDefinition)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    // Sample variance of the classic dataset = 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Percentiles, ExactOnSmallSet)
{
    Percentiles p;
    for (int i = 1; i <= 100; ++i)
        p.add(i);
    EXPECT_NEAR(p.percentile(0), 1.0, 1e-9);
    EXPECT_NEAR(p.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(p.percentile(100), 100.0, 1e-9);
    EXPECT_NEAR(p.percentile(99), 99.01, 0.01);
}

TEST(Percentiles, EmptyReturnsZero)
{
    Percentiles p;
    EXPECT_DOUBLE_EQ(p.percentile(50), 0.0);
}

TEST(Table, RendersHeaderAndRows)
{
    util::Table t("demo");
    t.header({"col1", "column2"});
    t.row({"a", "b"});
    t.row({"longer", "x"});
    std::string s = t.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("col1"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(util::Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(util::Table::fmtBytes(2048), "2.00 KiB");
    EXPECT_EQ(util::Table::fmtRate(2.5e9), "2.50 GB/s");
}

TEST(LatencyRecorder, SnapshotExposesTailPercentiles)
{
    // 1..10000 in scrambled order: the exact quantiles are known, and
    // p999 must sit strictly between p99 and max — the tail the p50/p99
    // pair alone cannot see.
    util::LatencyRecorder rec;
    for (int i = 0; i < 10000; ++i)
        rec.record(static_cast<double>((i * 7919) % 10000 + 1));
    auto s = rec.snapshot();
    EXPECT_EQ(s.count, 10000u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 10000.0);
    EXPECT_NEAR(s.p50, 5000.0, 2.0);
    EXPECT_NEAR(s.p99, 9900.0, 2.0);
    EXPECT_NEAR(s.p999, 9990.0, 2.0);
    EXPECT_LT(s.p99, s.p999);
    EXPECT_LE(s.p999, s.max);
}

TEST(LatencyRecorder, EmptySnapshotIsAllZero)
{
    util::LatencyRecorder rec;
    auto s = rec.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.p50, 0.0);
    EXPECT_DOUBLE_EQ(s.p999, 0.0);
}
