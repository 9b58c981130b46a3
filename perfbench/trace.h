/**
 * @file
 * In-memory spans and their Chrome trace-event export.
 *
 * Spans are recorded by the benchmark around its calls into each layer
 * and kept in memory; they are written once, when the run ends, as a
 * JSON file that chrome://tracing and ui.perfetto.dev open offline.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One timed call into a layer. Times are host wall nanoseconds. */
struct Span
{
    const char *name = "";     ///< static: the entry point called
    const char *layer = "";    ///< static: module name
    int64_t beginNs = 0;       ///< since the trace epoch
    int64_t endNs = 0;
    uint32_t track = 0;        ///< client thread or replay pass
    uint64_t id = 0;           ///< unique, >= 1
    uint64_t parent = 0;       ///< causing span, 0 for none
    uint64_t request = 0;      ///< plan entry the call serves

    // Session spans only: which leg produced the output and its time.
    const char *backend = nullptr;
    bool fellBack = false;
    double legSeconds = 0.0;
    const char *legClock = nullptr;   ///< "modelled" or "host wall"
};

/**
 * Write @p spans as Chrome trace-event JSON ("X" complete events, one
 * thread row per track, microsecond timestamps) to @p path, creating
 * its directory. @p trackNames labels the rows. Returns false when the
 * file could not be written.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans,
                      const std::vector<std::string> &trackNames);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
