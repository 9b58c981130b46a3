/**
 * @file
 * Deterministic PRNG (xoshiro256**) plus small sampling helpers.
 *
 * Every workload generator in this project derives all randomness from a
 * seeded Xoshiro so that corpora, fault injections and arrival processes
 * are reproducible bit-for-bit across runs and platforms.
 */

#ifndef NXSIM_UTIL_PRNG_H
#define NXSIM_UTIL_PRNG_H

#include <cstdint>
#include <cmath>

namespace util {

/** xoshiro256** 1.0 — fast, high-quality, deterministic across platforms. */
class Xoshiro256
{
  public:
    explicit Xoshiro256(uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // SplitMix64 seeding, as recommended by the xoshiro authors.
        uint64_t z = seed;
        for (auto &s : s_) {
            z += 0x9e3779b97f4a7c15ull;
            uint64_t x = z;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
            s = x ^ (x >> 31);
        }
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        auto rotl = [](uint64_t x, int k) {
            return (x << k) | (x >> (64 - k));
        };
        uint64_t result = rotl(s_[1] * 5, 7) * 9;
        uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t
    below(uint64_t bound)
    {
        // Lemire-style rejection-free reduction is fine for simulation use.
        return next() % bound;
    }

    /** Uniform integer in [lo, hi]. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(below(
            static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /** Exponentially distributed value with mean @p mean (> 0). */
    double
    exponential(double mean)
    {
        double u = uniform();
        if (u <= 0.0)
            u = 1e-300;
        return -mean * std::log(u);
    }

    /** Zipf-like rank in [0, n): rank r with weight 1/(r+1)^s. */
    uint64_t
    zipf(uint64_t n, double s = 1.0)
    {
        // Inverse-CDF by linear scan over a truncated harmonic sum is too
        // slow for large n; use the standard rejection sampler instead.
        double b = std::pow(2.0, s - 1.0);
        while (true) {
            double u = uniform();
            double v = uniform();
            double x = std::floor(std::pow(u, -1.0 / (s - 1.0 + 1e-9)));
            double t = std::pow(1.0 + 1.0 / x, s - 1.0 + 1e-9);
            // Reject ranks past n before the cast: x can reach 1e33,
            // and casting a double beyond uint64_t's range is undefined.
            if (v * x * (t - 1.0) / (b - 1.0) <= t / b &&
                x <= static_cast<double>(n))
                return static_cast<uint64_t>(x) - 1;
        }
    }

  private:
    uint64_t s_[4] = {};
};

} // namespace util

#endif // NXSIM_UTIL_PRNG_H
