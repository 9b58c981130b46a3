/**
 * @file
 * E4 [reconstructed] — Request latency vs size, overhead breakdown,
 * and the software/accelerator crossover.
 *
 * On-chip accelerators have a fixed per-request cost (paste, CRB
 * fetch, DMA setup, completion) that dominates small jobs; the paper
 * discusses why user-mode dispatch (VAS) keeps that overhead in the
 * microseconds, making even tens-of-KB requests profitable. This
 * bench prints the modelled latency decomposition across request
 * sizes and finds the break-even size against measured software time.
 */

#include <cstdio>

#include "bench_common.h"
#include "nx/compress_engine.h"

int
main()
{
    bench::banner("E4",
        "request latency vs size; dispatch/DMA/engine breakdown");

    auto cfg = core::power9Chip().accel;
    auto full = workloads::makeText(16 << 20, 4004);

    util::Table t("E4: compress request latency breakdown (POWER9, "
                  "DHT sampled)");
    t.header({"size", "dispatch us", "dmaIn us", "dhtGen us",
              "match us", "encode us", "total us", "accel rate",
              "sw level-6 us", "winner"});

    core::SoftwareCodec sw(6);

    for (size_t size : {size_t{1} << 10, size_t{4} << 10,
                        size_t{16} << 10, size_t{64} << 10,
                        size_t{256} << 10, size_t{1} << 20,
                        size_t{4} << 20, size_t{16} << 20}) {
        std::span<const uint8_t> src(full.data(), size);

        nx::CompressEngine eng(cfg);
        auto job = eng.run(nx::compressCrb(
            core::compressFunc(core::Mode::Auto, size), nx::Framing::Gzip,
            size), src);
        if (job.csb.cc != nx::CondCode::Success)
            continue;

        auto us = [&](sim::Tick c) {
            return util::Table::fmt(cfg.clock.toSeconds(c) * 1e6, 1);
        };
        double accel_us = cfg.clock.toSeconds(job.timing.total()) * 1e6;
        double accel_bps = static_cast<double>(size) /
            cfg.clock.toSeconds(job.timing.total());

        // Software wall time, measured (repeat small sizes).
        double sw_secs = 0.0;
        int iters = 0;
        do {
            auto sj = sw.compress(src, nx::Framing::Gzip);
            sw_secs += sj.seconds;
            ++iters;
        } while (sw_secs < 0.05 && iters < 1000);
        double sw_us = sw_secs / iters * 1e6;

        t.row({util::Table::fmtBytes(size),
               us(job.timing.dispatch), us(job.timing.dmaIn),
               us(job.timing.dhtGen), us(job.timing.match),
               us(job.timing.encode),
               util::Table::fmt(accel_us, 1),
               util::Table::fmtRate(accel_bps),
               util::Table::fmt(sw_us, 1),
               accel_us < sw_us ? "accel" : "software"});
    }
    t.note("paper shape: fixed ~us dispatch overhead amortizes by "
           "tens of KB; accelerator wins from small-KB sizes upward");
    t.note("total overlaps the streaming stages; columns need not sum");
    t.print();
    return 0;
}
