#include "metrics.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace perfbench {

namespace {

/** Zero-based index of the nearest-rank @p q percentile of @p n. */
uint64_t
rankIndex(uint64_t n, double q)
{
    NXSIM_EXPECT(n > 0 && q > 0.0 && q <= 100.0, "percentile of nothing");
    // Scale before dividing so that q = 99 over n = 1000 lands exactly
    // on rank 990 instead of one past it through rounding.
    auto rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9));
    return std::clamp<uint64_t>(rank, 1, n) - 1;
}

const MetricDef kEndToEnd[] = {
    {"throughput_mbps", "MB/s-unstolen", Clock::HostUnstolen, true},
    {"cpu_ms_per_mb", "ms/MB-cpu", Clock::HostCpu, false},
    {"rss_setup_mb", "MB", Clock::None, false},
    {"setup_s", "s", Clock::HostUnstolen, false},
    {"ratio", "x", Clock::None, true},
};

const MetricDef kPerLayer[] = {
    {"modelled_gbps", "GB/s-modelled", Clock::Modelled, true},
    {"rss_peak_mb", "MB", Clock::None, false},
    {"latency_p50_ms", "ms-unstolen", Clock::HostUnstolen, false},
    {"latency_p99_ms", "ms-unstolen", Clock::HostUnstolen, false},
    {"nx.engine_cycles", "cycles-modelled", Clock::Modelled, false},
    {"nx.compress_ms_per_mb", "ms/MB-wall", Clock::HostWall, false},
    {"nx.decompress_ms_per_mb", "ms/MB-wall", Clock::HostWall, false},
    {"nx.decompress_self_ms_per_mb", "ms/MB-wall", Clock::HostWall, false},
    {"deflate.compress_ms_per_mb", "ms/MB-wall", Clock::HostWall, false},
    {"deflate.inflate_ms_per_mb", "ms/MB-wall", Clock::HostWall, false},
    {"e842.compress_ms_per_mb", "ms/MB-wall", Clock::HostWall, false},
    {"e842.decompress_ms_per_mb", "ms/MB-wall", Clock::HostWall, false},
    {"util.crc32_mbps", "MB/s-wall", Clock::HostWall, true},
    {"util.adler32_mbps", "MB/s-wall", Clock::HostWall, true},
    {"session.requests", "count", Clock::None, true},
    {"session.accel_share", "share", Clock::None, true},
    {"session.fallbacks", "count", Clock::None, false},
    {"session.overhead_us", "us-wall", Clock::HostWall, false},
    {"buffer_pool.staged_mb", "MB", Clock::None, false},
    {"buffer_pool.heap_fallback_share", "share", Clock::None, false},
    {"buffer_pool.pinned_mb", "MB", Clock::None, false},
    {"job_server.jobs", "count", Clock::None, true},
    {"job_server.busy_rejects", "count", Clock::None, false},
    {"job_server.queue_depth_mean", "count", Clock::None, false},
    {"job_server.queue_depth_max", "count", Clock::None, false},
    {"job_server.wait_p50_us", "us-wall", Clock::HostWall, false},
    {"job_server.wait_p99_us", "us-wall", Clock::HostWall, false},
    {"job_server.dispatch_us", "us-wall", Clock::HostWall, false},
    {"setup.generate_s", "s-unstolen", Clock::HostUnstolen, false},
    {"setup.reference_s", "s-unstolen", Clock::HostUnstolen, false},
    {"setup.construct_s", "s-unstolen", Clock::HostUnstolen, false},
    {"setup.warmup_s", "s-unstolen", Clock::HostUnstolen, false},
    {"trace.overhead_pct", "%", Clock::HostUnstolen, false},
};

} // namespace

double
percentile(std::span<const double> sorted, double q)
{
    return sorted[rankIndex(sorted.size(), q)];
}

uint64_t
samplesBeyond(uint64_t n, double q)
{
    return n == 0 ? 0 : n - 1 - rankIndex(n, q);
}

bool
percentileSupported(uint64_t n, double q)
{
    return samplesBeyond(n, q) >= 10;
}

double
median(std::vector<double> values)
{
    NXSIM_EXPECT(!values.empty(), "median of nothing");
    size_t mid = values.size() / 2;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(mid),
                     values.end());
    double hi = values[mid];
    if (values.size() % 2 == 1)
        return hi;
    double lo = *std::max_element(
        values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
    return (lo + hi) / 2.0;
}

nx::BufferPoolStats
diff(const nx::BufferPoolStats &before, const nx::BufferPoolStats &after)
{
    nx::BufferPoolStats d = after;
    d.acquires -= before.acquires;
    d.releases -= before.releases;
    d.poolHits -= before.poolHits;
    d.heapFallbacks -= before.heapFallbacks;
    return d;
}

nx::SessionStats
diff(const nx::SessionStats &before, const nx::SessionStats &after)
{
    nx::SessionStats d = after;
    d.requests -= before.requests;
    d.softwareRouted -= before.softwareRouted;
    d.accelRouted -= before.accelRouted;
    d.fallbacks -= before.fallbacks;
    d.busyExhausted -= before.busyExhausted;
    d.closedRejects -= before.closedRejects;
    d.deviceFaults -= before.deviceFaults;
    d.bytesIn -= before.bytesIn;
    d.bytesOut -= before.bytesOut;
    d.pool = diff(before.pool, after.pool);
    d.serverBusyRejects -= before.serverBusyRejects;
    for (size_t w = 0; w < d.serverWindowBusyRejects.size() &&
         w < before.serverWindowBusyRejects.size(); ++w)
        d.serverWindowBusyRejects[w] -= before.serverWindowBusyRejects[w];
    return d;
}

core::JobServerStats
diff(const core::JobServerStats &before, const core::JobServerStats &after)
{
    core::JobServerStats d = after;
    d.submitted -= before.submitted;
    d.completed -= before.completed;
    d.busyRejects -= before.busyRejects;
    d.busyExhausted -= before.busyExhausted;
    d.jobFaults -= before.jobFaults;
    d.faultsInjected -= before.faultsInjected;
    d.bytesIn -= before.bytesIn;
    d.bytesOut -= before.bytesOut;
    d.engineCyclesSum -= before.engineCyclesSum;
    for (size_t w = 0; w < d.windowBusyRejects.size() &&
         w < before.windowBusyRejects.size(); ++w)
        d.windowBusyRejects[w] -= before.windowBusyRejects[w];
    d.meanQueueDepth = d.submitted == 0 ? 0.0
        : (after.meanQueueDepth * static_cast<double>(after.submitted) -
           before.meanQueueDepth * static_cast<double>(before.submitted)) /
            static_cast<double>(d.submitted);
    return d;
}

double
unstolenSeconds(double wall, double cpu, double steal)
{
    return cpu + steal <= 0.0 ? wall : wall * cpu / (cpu + steal);
}

int64_t
selfTime(Interval parent, std::vector<Interval> children)
{
    std::sort(children.begin(), children.end(),
              [](const Interval &a, const Interval &b) {
                  return a.begin < b.begin;
              });
    int64_t covered = 0;
    int64_t reach = parent.begin;   // end of the union walked so far
    for (const Interval &c : children) {
        int64_t b = std::max(c.begin, reach);
        int64_t e = std::min(c.end, parent.end);
        if (e > b) {
            covered += e - b;
            reach = e;
        }
    }
    return (parent.end - parent.begin) - covered;
}

const char *
toString(Clock c)
{
    switch (c) {
      case Clock::HostWall: return "host wall";
      case Clock::HostUnstolen: return "host wall less steal";
      case Clock::HostCpu: return "host CPU";
      case Clock::Modelled: return "modelled";
      case Clock::None: return "-";
    }
    return "?";
}

std::span<const MetricDef>
endToEndMetrics()
{
    return kEndToEnd;
}

std::span<const MetricDef>
perLayerMetrics()
{
    return kPerLayer;
}

const MetricDef *
findMetric(std::string_view name)
{
    for (auto list : {endToEndMetrics(), perLayerMetrics()})
        for (const MetricDef &m : list)
            if (name == m.name)
                return &m;
    return nullptr;
}

} // namespace perfbench
