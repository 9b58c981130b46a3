// perfbench: the nxsim end-to-end benchmark (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//   perfbench --list      (workload names and the metric table, as JSON)
//
// Prints a human-readable report, each metric with its unit and clock,
// and as the last line one JSON object: correct, attempted, failed and
// the metrics of the mode (end-to-end untraced, per-layer traced).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include <malloc.h>

#include "metrics.h"
#include "plan.h"
#include "runner.h"

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n"
                 "       perfbench --list\nworkloads:");
    for (const auto &w : perfbench::workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

void
list()
{
    std::printf("{\"workloads\": [");
    const char *sep = "";
    for (const auto &w : perfbench::workloads()) {
        std::printf("%s\"%s\"", sep, w.name);
        sep = ", ";
    }
    std::printf("]");
    for (auto [key, defs] : {std::pair{"end_to_end",
                                       perfbench::endToEndMetrics()},
                             std::pair{"per_layer",
                                       perfbench::perLayerMetrics()}}) {
        std::printf("%s\"%s\": [", sep, key);
        for (size_t i = 0; i < defs.size(); ++i)
            std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", "
                        "\"clock\": \"%s\", \"better\": \"%s\"}",
                        i == 0 ? "" : ", ", defs[i].name, defs[i].unit,
                        perfbench::toString(defs[i].clock),
                        defs[i].higherIsBetter ? "higher" : "lower");
        std::printf("]");
        sep = ", ";
    }
    std::printf("}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opt;
    bool haveWorkload = false;
    bool haveSeed = false;
    bool haveSeconds = false;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string_view a = argv[i];
        if (a == "--list") {
            list();
            return 0;
        }
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
            haveSeed = *end == '\0';
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            haveSeconds = *end == '\0' && opt.seconds > 0.0;
        } else if (a == "--trace") {
            opt.trace = std::string_view(v) == "1";
            haveTrace = opt.trace || std::string_view(v) == "0";
        } else if (a == "--trace-out") {
            opt.traceOut = v;
        } else {
            usage();
            return 2;
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace ||
        perfbench::findWorkload(opt.workload) == nullptr) {
        usage();
        return 2;
    }

    // Fix glibc's mmap and trim thresholds at values its adaptive rule
    // reaches once a multi-MiB block has been freed. Left adaptive, they
    // follow whichever large block the process happened to free first,
    // the benchmark's own sample storage included, and that alone moved
    // sw-small throughput by 30 % (deflate's 288 KiB scratch buffer is
    // either kept or trimmed and faulted in again on every call).
    mallopt(M_MMAP_THRESHOLD, 4 << 20);
    mallopt(M_TRIM_THRESHOLD, 8 << 20);

    perfbench::RunReport rep;
    try {
        rep = perfbench::run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 3;
    }

    for (const std::string &line : rep.lines)
        std::printf("%s\n", line.c_str());
    for (const perfbench::MetricValue &m : rep.metrics) {
        const perfbench::MetricDef *d = perfbench::findMetric(m.name);
        std::printf("  %-34s %16.6f %-16s %s\n", m.name.c_str(), m.value,
                    d->unit, perfbench::toString(d->clock));
    }
    std::printf("correct %s, attempted %llu, failed %llu\n",
                rep.correct ? "yes" : "NO",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    if (!opt.trace && !rep.p99Supported)
        std::printf("latency_p99_ms has fewer than ten samples beyond it "
                    "and is not a valid p99: run longer\n");
    std::printf("%s\n", perfbench::toJson(rep).c_str());
    return 0;
}
