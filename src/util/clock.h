/**
 * @file
 * The host wall clock: one monotonic clock, and the seconds elapsed on
 * it since a point. Every layer that reports host time (Session's
 * software leg, the device's one-call path, JobServer's paste-to-CSB
 * waits, LoadGen's latencies, the host calibration) reads it here.
 */

#ifndef NXSIM_UTIL_CLOCK_H
#define NXSIM_UTIL_CLOCK_H

#include <chrono>

namespace util {

using Clock = std::chrono::steady_clock;

/** Wall seconds from @p t0 to now. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace util

#endif // NXSIM_UTIL_CLOCK_H
