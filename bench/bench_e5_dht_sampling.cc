/**
 * @file
 * E5 [reconstructed] — Sampled DHT: ratio loss and rate gain vs the
 * sample size, against two-pass (exact) DHT and FHT.
 *
 * The POWER9 stack samples a prefix of the request to build the
 * dynamic Huffman table in one pass; the paper discusses this as the
 * key trade that avoids buffering whole requests on chip. Expected
 * shape: a few KB of sample recovers most of the two-pass ratio; the
 * two-pass mode costs an extra full pass of cycles.
 */

#include "bench_common.h"

#include "nx/compress_engine.h"

namespace {

struct Point
{
    double ratio;
    double bps;
};

Point
run(const nx::NxConfig &cfg, std::span<const uint8_t> data,
    nx::FuncCode func, nx::DhtMode mode, uint64_t sample)
{
    nx::CompressEngine eng(cfg);
    double secs = 0.0;
    uint64_t out = 0;
    const size_t job = 1 << 20;
    for (size_t off = 0; off < data.size(); off += job) {
        size_t n = std::min(job, data.size() - off);
        auto res = eng.run(nx::compressCrb(func, nx::Framing::Raw, n),
                           data.subspan(off, n), mode, sample);
        secs += cfg.clock.toSeconds(res.timing.total());
        out += res.output.size();
    }
    return {static_cast<double>(data.size()) / out,
            static_cast<double>(data.size()) / secs};
}

} // namespace

int
main()
{
    bench::banner("E5",
        "sampled-DHT: ratio and rate vs sample size (1 MiB jobs)");

    // Homogeneous (stationary) stream: the sampling strategy assumes
    // the prefix represents the rest, which holds for the paper's
    // per-file evaluation. bench_e2 covers the heterogeneous case.
    auto cfg = core::power9Chip().accel;
    auto data = workloads::makeLog(8 << 20, 5005);

    auto fht = run(cfg, data, nx::FuncCode::CompressFht,
                   nx::DhtMode::Sampled, 0);
    auto two = run(cfg, data, nx::FuncCode::CompressDht,
                   nx::DhtMode::TwoPass, 0);

    util::Table t("E5: DHT strategy vs ratio and modelled rate");
    t.header({"strategy", "ratio", "% of two-pass ratio", "rate",
              "rate vs two-pass"});
    t.row({"FHT (no tables)", util::Table::fmt(fht.ratio),
           util::Table::fmt(100.0 * fht.ratio / two.ratio, 1) + "%",
           util::Table::fmtRate(fht.bps), bench::fmtX(fht.bps / two.bps)});
    for (uint64_t sample : {1u << 10, 4u << 10, 16u << 10, 64u << 10,
                            256u << 10}) {
        auto p = run(cfg, data, nx::FuncCode::CompressDht,
                     nx::DhtMode::Sampled, sample);
        t.row({"DHT sample " + util::Table::fmtBytes(sample),
               util::Table::fmt(p.ratio),
               util::Table::fmt(100.0 * p.ratio / two.ratio, 1) + "%",
               util::Table::fmtRate(p.bps),
               bench::fmtX(p.bps / two.bps)});
    }
    t.row({"DHT two-pass (exact)", util::Table::fmt(two.ratio),
           "100.0%", util::Table::fmtRate(two.bps), "1.0x"});
    t.note("paper shape: a 16-32 KiB sample recovers ~97-99% of the "
           "exact-DHT ratio at nearly the FHT rate");
    t.print();
    return 0;
}
