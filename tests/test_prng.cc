/**
 * @file
 * Determinism and distribution sanity tests for util::Xoshiro256.
 */

#include <gtest/gtest.h>

#include "util/prng.h"

using util::Xoshiro256;

TEST(Prng, DeterministicForSeed)
{
    Xoshiro256 a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiverge)
{
    Xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Prng, UniformInUnitInterval)
{
    Xoshiro256 r(7);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Prng, BelowRespectsBound)
{
    Xoshiro256 r(9);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(17), 17u);
}

TEST(Prng, RangeIsInclusive)
{
    Xoshiro256 r(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        int64_t v = r.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Prng, ExponentialHasRequestedMean)
{
    Xoshiro256 r(13);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Prng, ChanceExtremes)
{
    Xoshiro256 r(15);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Prng, ZipfSkewsTowardLowRanks)
{
    Xoshiro256 r(17);
    uint64_t low = 0, high = 0;
    for (int i = 0; i < 20000; ++i) {
        uint64_t v = r.zipf(1000, 1.2);
        ASSERT_LT(v, 1000u);
        if (v < 10)
            ++low;
        if (v >= 500)
            ++high;
    }
    EXPECT_GT(low, high * 2);
}

TEST(PrngDeathTest, ZipfRejectsExponentOfOne)
{
    // At s = 1 the rejection sampler's acceptance test is NaN on every
    // draw, so it would never return; the contract stops it first.
    Xoshiro256 r(17);
    EXPECT_DEATH((void)r.zipf(100, 1.0), "zipf exponent must exceed 1");
}
