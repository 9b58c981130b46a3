#include "util/stats.h"

#include <cmath>

namespace util {

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
Percentiles::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    std::sort(samples_.begin(), samples_.end());
    double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

} // namespace util
