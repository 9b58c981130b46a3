/**
 * @file
 * E11 [abstract] — Generation comparison: POWER9 vs z15.
 *
 * Paper claim: the z15 unit doubles the POWER9 compression rate (and
 * the maximal z15 topology reaches 280 GB/s; that aggregate view is
 * E6). This bench pushes identical corpus bytes through both presets
 * and prints per-generation rate, latency and ratio.
 */

#include <cstdio>

#include "bench_common.h"
#include "nx/compress_engine.h"

int
main()
{
    bench::banner("E11", "POWER9 vs z15 per-engine comparison");

    auto data = workloads::makeMixed(8 << 20, 1111);
    auto p9 = nx::NxConfig::power9();
    auto z15 = nx::NxConfig::z15();

    util::Table t("E11: generation comparison (same input bytes)");
    t.header({"metric", "POWER9", "z15", "z15/P9"});

    auto ap = bench::measureAccel(p9, data, core::Mode::DhtSampled);
    auto az = bench::measureAccel(z15, data, core::Mode::DhtSampled);

    t.row({"compress rate", util::Table::fmtRate(ap.compressBps),
           util::Table::fmtRate(az.compressBps),
           bench::fmtX(az.compressBps / ap.compressBps)});
    t.row({"decompress rate", util::Table::fmtRate(ap.decompressBps),
           util::Table::fmtRate(az.decompressBps),
           bench::fmtX(az.decompressBps / ap.decompressBps)});
    t.row({"compression ratio", util::Table::fmt(ap.ratio),
           util::Table::fmt(az.ratio),
           util::Table::fmt(az.ratio / ap.ratio, 3)});

    // Small-request latency (64 KiB FHT), the user-visible metric.
    auto latency = [&](const nx::NxConfig &cfg) {
        nx::CompressEngine eng(cfg);
        auto job = core::runCompressJob(
            eng, cfg, std::span<const uint8_t>(data.data(), 64 << 10),
            nx::Framing::Gzip, core::Mode::Fht, 0);
        return job.seconds * 1e6;
    };
    double lp = latency(p9);
    double lz = latency(z15);
    t.row({"64 KiB FHT latency",
           util::Table::fmt(lp, 1) + " us",
           util::Table::fmt(lz, 1) + " us",
           util::Table::fmt(lz / lp, 2)});

    t.note("paper: z15 doubles the POWER9 compression rate");
    t.print();

    std::printf("\nE11 summary: z15/P9 compress rate ratio %.2fx "
                "(paper 2x)\n", az.compressBps / ap.compressBps);
    return 0;
}
