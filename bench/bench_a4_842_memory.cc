/**
 * @file
 * A4 [ablation/extension] — 842 vs DEFLATE on the NX unit.
 *
 * The POWER9 NX unit carries both engine types; the paper's DEFLATE
 * engines serve storage/network data while 842 serves memory
 * expansion. This bench shows why that split exists: on 4 KiB
 * memory-page-sized requests, 842's fixed-format pipeline delivers
 * several times lower request latency at a lower — but still useful —
 * ratio, while DEFLATE wins decisively on ratio for large streams.
 */

#include "bench_common.h"

#include "e842/e842_engine.h"
#include "nx/compress_engine.h"

namespace {

struct Row
{
    double latencyUs;
    double ratio;
    double bps;
};

Row
runDeflate(const nx::NxConfig &cfg, std::span<const uint8_t> data,
           size_t job)
{
    nx::CompressEngine eng(cfg);
    double secs = 0.0;
    uint64_t out = 0;
    int jobs = 0;
    for (size_t off = 0; off + job <= data.size(); off += job) {
        auto res = core::runCompressJob(eng, cfg, data.subspan(off, job),
                                        nx::Framing::Raw, core::Mode::Auto,
                                        0);
        secs += res.seconds;
        out += res.data.size();
        ++jobs;
    }
    double total = static_cast<double>(job) * jobs;
    return {secs / jobs * 1e6, total / static_cast<double>(out),
            total / secs};
}

Row
run842(std::span<const uint8_t> data, size_t job)
{
    e842::E842Engine eng;
    double secs = 0.0;
    uint64_t out = 0;
    int jobs = 0;
    for (size_t off = 0; off + job <= data.size(); off += job) {
        auto res = eng.compressJob(data.subspan(off, job));
        secs += res.seconds;
        out += res.output.size();
        ++jobs;
    }
    double total = static_cast<double>(job) * jobs;
    return {secs / jobs * 1e6, total / static_cast<double>(out),
            total / secs};
}

} // namespace

int
main()
{
    bench::banner("A4", "842 vs DEFLATE engines on the same unit");

    auto cfg = core::power9Chip().accel;
    auto pages = workloads::makeBinary(4 << 20, 4204);
    auto text = workloads::makeText(4 << 20, 4205);

    util::Table t("A4: per-request latency and ratio by engine type");
    t.header({"data", "request", "codec", "latency us", "ratio",
              "rate"});
    struct Case
    {
        const char *name;
        std::span<const uint8_t> data;
        size_t job;
    };
    for (const Case &c : {Case{"binary pages", pages, 4096},
                          Case{"binary pages", pages, 64 * 1024},
                          Case{"text stream", text, 1 << 20}}) {
        auto d = runDeflate(cfg, c.data, c.job);
        auto e = run842(c.data, c.job);
        t.row({c.name, util::Table::fmtBytes(c.job), "DEFLATE",
               util::Table::fmt(d.latencyUs, 2),
               util::Table::fmt(d.ratio),
               util::Table::fmtRate(d.bps)});
        t.row({c.name, util::Table::fmtBytes(c.job), "842",
               util::Table::fmt(e.latencyUs, 2),
               util::Table::fmt(e.ratio),
               util::Table::fmtRate(e.bps)});
    }
    t.note("842: fixed-format, no entropy pass -> lower latency, "
           "lower ratio; why memory expansion uses it and storage "
           "uses DEFLATE");
    t.print();
    return 0;
}
