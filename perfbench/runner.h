/**
 * @file
 * One benchmark run: set-up, the closed-loop request phase, and, for a
 * traced run, the stats() differences, the per-layer replay passes and
 * the span export.
 */

#ifndef PERFBENCH_RUNNER_H
#define PERFBENCH_RUNNER_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;          ///< length of one request phase
    bool trace = false;
    std::string traceOut;           ///< span file of a traced run
    int setupReps = 3;              ///< set-ups per run; setup_s is the median
    double planScale = 1.0;         ///< self-tests shrink the pool
    double replaySeconds = 1.0;     ///< least host time per replay pass
    /** Self-test hook: flip a byte of client 0's n-th output (-1: off). */
    int64_t corruptRequest = -1;
};

struct MetricValue
{
    std::string name;
    double value = 0.0;
};

struct RunReport
{
    bool correct = false;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** p99 of the measured phase has at least ten samples beyond it. */
    bool p99Supported = false;
    /** The mode's metric list (end-to-end or per-layer), in table order. */
    std::vector<MetricValue> metrics;
    /** Human-readable report: plan digest, deterministic quantities, ... */
    std::vector<std::string> lines;
};

/** Run one workload. Throws std::runtime_error when set-up fails. */
RunReport run(const RunOptions &opt);

/** The one-line JSON result: correct, attempted, failed, metrics. */
std::string toJson(const RunReport &r);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_H
