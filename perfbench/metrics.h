/**
 * @file
 * The benchmark's own arithmetic: percentiles over complete sample sets,
 * the ten-samples-beyond rule, medians of measurement windows,
 * differencing stats() snapshots, self time, and the metric table.
 *
 * Nothing here samples or drops: every function sees the whole set.
 */

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/buffer_pool.h"
#include "core/job_server.h"
#include "core/session.h"

namespace perfbench {

/**
 * Nearest-rank percentile: the smallest sample with at least @p q
 * percent of the set at or below it. @p sorted must be ascending and
 * non-empty; @p q is in (0, 100].
 */
double percentile(std::span<const double> sorted, double q);

/** Samples strictly after the nearest-rank position of @p q. */
uint64_t samplesBeyond(uint64_t n, double q);

/**
 * True when the @p q percentile of @p n samples has at least ten
 * samples beyond it, the least a tail figure may rest on.
 */
bool percentileSupported(uint64_t n, double q);

/** Median; the mean of the middle two for an even count. */
double median(std::vector<double> values);

/** Counter deltas of one Session between two snapshots. */
nx::SessionStats diff(const nx::SessionStats &before,
                      const nx::SessionStats &after);

/** Counter deltas of one BufferPool between two snapshots. */
nx::BufferPoolStats diff(const nx::BufferPoolStats &before,
                         const nx::BufferPoolStats &after);

/**
 * Counter deltas of one JobServer between two snapshots. The mean
 * queue depth is sampled once per accepted paste, so the phase's mean
 * is recovered exactly from the two running means. The high-water mark
 * and latency snapshot cannot be differenced; they are taken from
 * @p after and are the phase's own only when @p before is from a
 * server that had served nothing.
 */
core::JobServerStats diff(const core::JobServerStats &before,
                          const core::JobServerStats &after);

/**
 * Host wall seconds with the time stolen from the virtual machine
 * removed. Steal accrues only on virtual CPUs that have work, here the
 * benchmark's threads, so of the CPU time they asked for over @p wall
 * seconds, @p cpu / (@p cpu + @p steal) was granted, and the interval
 * shrinks by that share. 0 steal (bare metal) leaves @p wall unchanged.
 */
double unstolenSeconds(double wall, double cpu, double steal);

/** A closed host-time interval, in nanoseconds. */
struct Interval
{
    int64_t begin = 0;
    int64_t end = 0;
};

/**
 * Self time of @p parent: its duration minus the part of it that the
 * union of @p children covers (children may overlap each other or
 * stick out of the parent; only the covered part counts).
 */
int64_t selfTime(Interval parent, std::vector<Interval> children);

/** Which clock a metric is read on. */
enum class Clock : uint8_t
{
    HostWall,
    HostUnstolen,   ///< host wall less the time stolen from the VM
    HostCpu,
    Modelled,
    None,           ///< a count, share, size or ratio
};

const char *toString(Clock c);

/** One reported metric, as declared in BENCHMARK.json. */
struct MetricDef
{
    const char *name;
    const char *unit;
    Clock clock;
    bool higherIsBetter;
};

/** Metrics of an untraced run, in report order. */
std::span<const MetricDef> endToEndMetrics();

/** Metrics of a traced run, in report order. */
std::span<const MetricDef> perLayerMetrics();

/** Table entry for @p name in either list, or nullptr. */
const MetricDef *findMetric(std::string_view name);

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
