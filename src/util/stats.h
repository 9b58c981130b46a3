/**
 * @file
 * Lightweight statistics helpers shared by the simulator and the benches:
 * running mean/stddev and exact percentiles over a sample reservoir.
 */

#ifndef NXSIM_UTIL_STATS_H
#define NXSIM_UTIL_STATS_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace util {

/** Welford running mean / variance / min / max. */
class RunningStat
{
  public:
    /** Fold one sample in. */
    void
    add(double x)
    {
        ++n_;
        double d = x - mean_;
        mean_ += d / static_cast<double>(n_);
        m2_ += d * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
        sum_ += x;
    }

    uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const { return n_ > 1 ? m2_ / double(n_ - 1) : 0.0; }
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 1e300;
    double max_ = -1e300;
    double sum_ = 0.0;
};

/**
 * Sample reservoir with exact percentiles.
 *
 * Benches record at most a few million latency samples, so keeping them all
 * and sorting on demand is simpler and exact; a reservoir cap guards the
 * pathological case.
 */
class Percentiles
{
  public:
    explicit Percentiles(size_t cap = 1u << 22) : cap_(cap) {}

    /** Record one sample (dropped once the reservoir cap is hit). */
    void
    add(double x)
    {
        ++total_;
        if (samples_.size() < cap_)
            samples_.push_back(x);
    }

    /** Exact percentile @p p in [0, 100] over retained samples. */
    double percentile(double p) const;

    uint64_t count() const { return total_; }
    bool empty() const { return samples_.empty(); }

  private:
    size_t cap_;
    uint64_t total_ = 0;
    mutable std::vector<double> samples_;
};

} // namespace util

#endif // NXSIM_UTIL_STATS_H
