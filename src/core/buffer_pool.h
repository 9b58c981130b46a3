/**
 * @file
 * BufferPoolStats — staging-pool counters that always read zero.
 *
 * Nothing stages a request: an NX engine reads the requester's own
 * virtual memory through address translation (a CRB that touches an
 * unmapped page ends in a translation fault, which software answers
 * by touching the page and resubmitting), so Session copies an
 * accelerator-bound request once, into its job. SessionStats::pool
 * keeps this struct only because the benchmark package
 * (perfbench/metrics.h, perfbench/runner.cc) still reads its fields;
 * the benchmark change that drops perfbench's buffer_pool.* metrics
 * deletes this header.
 */

#ifndef NXSIM_CORE_BUFFER_POOL_H
#define NXSIM_CORE_BUFFER_POOL_H

#include <cstddef>
#include <cstdint>

namespace nx {

/** Staging-pool counters: every field reads 0. */
struct BufferPoolStats
{
    uint64_t acquires = 0;
    uint64_t releases = 0;
    uint64_t poolHits = 0;
    uint64_t heapFallbacks = 0;
    size_t pinnedBytes = 0;
};

} // namespace nx

#endif // NXSIM_CORE_BUFFER_POOL_H
