/**
 * @file
 * Shared helpers for the experiment benches: host calibration of the
 * software baseline, modelled-rate measurement of the accelerator, and
 * common formatting. Every bench regenerates one table/figure of the
 * paper (see DESIGN.md's experiment index) and prints paper-vs-measured
 * where the abstract states a number.
 */

#ifndef NXSIM_BENCH_BENCH_COMMON_H
#define NXSIM_BENCH_BENCH_COMMON_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/device.h"
#include "core/topology.h"
#include "deflate/host_cal.h"
#include "util/checked.h"
#include "util/contracts.h"
#include "util/table.h"
#include "workloads/corpus.h"

namespace bench {

/** Modelled accelerator throughput/ratio over a buffer. */
struct AccelRates
{
    double compressBps = 0.0;     ///< source bytes / modelled seconds
    double decompressBps = 0.0;   ///< output bytes / modelled seconds
    double ratio = 1.0;
};

/**
 * Push @p data through one device in @p job_bytes requests and return
 * modelled rates.
 */
inline AccelRates
measureAccel(const nx::NxConfig &cfg, std::span<const uint8_t> data,
             core::Mode mode = core::Mode::DhtSampled,
             size_t job_bytes = 1 << 20)
{
    // job_bytes == 0 would loop forever below; make the precondition
    // loud instead of hanging a bench run.
    NXSIM_EXPECT(job_bytes > 0, "job_bytes must be positive");
    core::NxDevice dev(cfg);
    AccelRates out;
    double comp_secs = 0.0;
    double decomp_secs = 0.0;
    uint64_t in_bytes = 0;
    uint64_t comp_bytes = 0;

    for (size_t off = 0; off < data.size(); off += job_bytes) {
        size_t n = std::min(job_bytes, data.size() - off);
        auto job = dev.compress(data.subspan(off, n),
                                nx::Framing::Gzip, mode);
        if (!job.ok())
            continue;
        comp_secs += job.seconds;
        in_bytes = nx::checkedAdd(in_bytes, static_cast<uint64_t>(n));
        comp_bytes = nx::checkedAdd(
            comp_bytes, static_cast<uint64_t>(job.data.size()));

        auto djob = dev.decompress(job.data, nx::Framing::Gzip);
        if (djob.ok())
            decomp_secs += djob.seconds;
    }
    if (comp_secs > 0.0)
        out.compressBps = static_cast<double>(in_bytes) / comp_secs;
    if (decomp_secs > 0.0)
        out.decompressBps = static_cast<double>(in_bytes) / decomp_secs;
    if (comp_bytes > 0)
        out.ratio = static_cast<double>(in_bytes) /
            static_cast<double>(comp_bytes);
    return out;
}

/** Format a speedup multiple like "388x". */
inline std::string
fmtX(double x)
{
    return util::Table::fmt(x, x >= 100 ? 0 : 1) + "x";
}

/** One standard banner so bench output is self-describing. */
inline void
banner(const std::string &id, const std::string &what)
{
    std::printf("\n### %s — %s\n", id.c_str(), what.c_str());
}

} // namespace bench

#endif // NXSIM_BENCH_BENCH_COMMON_H
