// Self-tests of the benchmark's own arithmetic and of its output check.
// Run by ctest in the benchmark's build directory, and by run.py after
// each build. Exit code 0 when every check holds.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "core/job_server.h"
#include "metrics.h"
#include "plan.h"
#include "runner.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                       \
    do {                                                                  \
        if (!(cond)) {                                                    \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,   \
                         __LINE__, #cond);                                \
            ++failures;                                                   \
        }                                                                 \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

using namespace perfbench;

void
testPercentiles()
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    CHECK(percentile(v, 50.0) == 50.0);
    CHECK(percentile(v, 99.0) == 99.0);
    CHECK(percentile(v, 100.0) == 100.0);
    CHECK(percentile(v, 0.5) == 1.0);
    std::vector<double> one = {7.0};
    CHECK(percentile(one, 99.0) == 7.0);

    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
    CHECK(median({5.0}) == 5.0);
}

void
testTenBeyondRule()
{
    // p99 of 1000 samples is rank 990: samples 991..1000 lie beyond it.
    CHECK(samplesBeyond(1000, 99.0) == 10);
    CHECK(percentileSupported(1000, 99.0));
    CHECK(samplesBeyond(999, 99.0) == 9);
    CHECK(!percentileSupported(999, 99.0));
    CHECK(samplesBeyond(100, 99.0) == 1);
    CHECK(!percentileSupported(100, 99.0));
    CHECK(percentileSupported(20, 50.0));
    CHECK(samplesBeyond(0, 99.0) == 0);
}

void
testSnapshotDiffs()
{
    nx::SessionStats a;
    a.requests = 10;
    a.accelRouted = 4;
    a.fallbacks = 1;
    a.pool.acquires = 4;
    a.pool.heapFallbacks = 2;
    a.pool.pinnedBytes = 1 << 20;
    nx::SessionStats b = a;
    b.requests = 25;
    b.accelRouted = 9;
    b.pool.acquires = 9;
    b.pool.heapFallbacks = 7;
    nx::SessionStats d = diff(a, b);
    CHECK(d.requests == 15);
    CHECK(d.accelRouted == 5);
    CHECK(d.fallbacks == 0);
    CHECK(d.pool.acquires == 5);
    CHECK(d.pool.heapFallbacks == 5);
    CHECK(d.pool.pinnedBytes == size_t{1} << 20);   // a level, not a count

    // Queue depth is sampled once per paste: 10 pastes at mean 2, then
    // 20 more that bring the mean to 3 had a mean of 3.5 themselves.
    core::JobServerStats s0;
    s0.submitted = 10;
    s0.meanQueueDepth = 2.0;
    s0.engineCyclesSum = 100;
    core::JobServerStats s1 = s0;
    s1.submitted = 30;
    s1.meanQueueDepth = 3.0;
    s1.engineCyclesSum = 350;
    core::JobServerStats sd = diff(s0, s1);
    CHECK(sd.submitted == 20);
    CHECK(near(sd.meanQueueDepth, 3.5));
    CHECK(sd.engineCyclesSum == 250);
    CHECK(diff(s1, s1).meanQueueDepth == 0.0);

    // And on a live server: only the jobs between the snapshots count.
    core::JobServer server(chipConfig());
    std::vector<uint8_t> payload(8192, 'a');
    auto runJob = [&] {
        core::JobSpec spec;
        spec.payload = payload;
        auto sub = server.submitWithRetry(spec);
        CHECK(sub.accepted());
        if (sub.accepted())
            CHECK(server.wait(sub.ticket).result.ok());
    };
    runJob();
    core::JobServerStats before = server.stats();
    runJob();
    runJob();
    core::JobServerStats live = diff(before, server.stats());
    CHECK(live.submitted == 2);
    CHECK(live.completed == 2);
    CHECK(live.bytesIn == 2 * payload.size());
    CHECK(live.engineCyclesSum > 0);
}

void
testSelfTime()
{
    // Overlapping children count once; the part outside the parent
    // does not count at all.
    CHECK(selfTime({0, 100}, {{10, 30}, {20, 50}, {90, 120}}) == 50);
    CHECK(selfTime({0, 100}, {}) == 100);
    CHECK(selfTime({0, 100}, {{200, 300}}) == 100);
    CHECK(selfTime({0, 100}, {{-50, 150}}) == 0);
    CHECK(selfTime({0, 100}, {{60, 70}, {10, 20}}) == 80);
    CHECK(selfTime({0, 100}, {{10, 20}, {12, 15}, {30, 40}}) == 80);
}

void
testUnstolenTime()
{
    // One busy thread for 10 s, 4 s of it stolen: 6 s were its own.
    CHECK(near(unstolenSeconds(10.0, 6.0, 4.0), 6.0));
    // Two busy threads, 2 s stolen between them: each lost 1 s.
    CHECK(near(unstolenSeconds(10.0, 18.0, 2.0), 9.0));
    CHECK(unstolenSeconds(10.0, 5.0, 0.0) == 10.0);   // bare metal
    CHECK(unstolenSeconds(10.0, 0.0, 0.0) == 10.0);   // nothing ran
}

bool
allowedUnit(std::string_view u)
{
    if (u.empty() || u.size() > 16)
        return false;
    for (char c : u)
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == '/' || c == '%' || c == '.' || c == '-'))
            return false;
    return true;
}

void
testMetricTable()
{
    std::set<std::string> names;
    for (auto defs : {endToEndMetrics(), perLayerMetrics()}) {
        for (const MetricDef &d : defs) {
            CHECK(names.insert(d.name).second);
            CHECK(allowedUnit(d.unit));
            CHECK(findMetric(d.name) == &d);
            // A time or rate names its clock in its unit; setup_s keeps
            // the bare "s" BENCHMARK.json prescribes for it.
            std::string unit = d.unit;
            bool timed = d.clock != Clock::None;
            bool named = unit.ends_with("-wall") ||
                unit.ends_with("-unstolen") || unit.ends_with("-cpu") ||
                unit.ends_with("-modelled") || unit == "%";
            CHECK(!timed || named || std::string(d.name) == "setup_s");
        }
    }
    const MetricDef *setup = findMetric("setup_s");
    CHECK(setup != nullptr && std::string(setup->unit) == "s" &&
          !setup->higherIsBetter);
    CHECK(endToEndMetrics().size() == 5);
    CHECK(findMetric("no_such_metric") == nullptr);
}

RunOptions
tiny(const char *workload, bool trace)
{
    RunOptions o;
    o.workload = workload;
    o.seed = 3;
    o.seconds = 0.3;
    o.trace = trace;
    o.setupReps = 1;
    o.planScale = 0.1;
    o.replaySeconds = 0.02;
    return o;
}

void
checkReport(const RunReport &r, std::span<const MetricDef> defs)
{
    CHECK(r.metrics.size() == defs.size());
    for (size_t i = 0; i < r.metrics.size() && i < defs.size(); ++i)
        CHECK(r.metrics[i].name == defs[i].name);
    std::string json = toJson(r);
    CHECK(json.starts_with("{\"correct\": true, \"attempted\": "));
    for (const MetricDef &d : defs)
        CHECK(json.find("\"" + std::string(d.name) + "\": {\"value\": ") !=
              std::string::npos);
}

void
testRunsReportTheirMetrics()
{
    for (const WorkloadSpec &w : workloads()) {
        RunReport plain = run(tiny(w.name, false));
        CHECK(plain.correct);
        CHECK(plain.attempted > 0 && plain.failed == 0);
        checkReport(plain, endToEndMetrics());

        RunOptions t = tiny(w.name, true);
        t.traceOut = std::string("selftest-") + w.name + ".trace.json";
        RunReport traced = run(t);
        CHECK(traced.correct);
        checkReport(traced, perLayerMetrics());
        std::ifstream in(t.traceOut);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        CHECK(text.starts_with("{\"displayTimeUnit\""));
        CHECK(text.ends_with("]}\n"));
        CHECK(text.find("\"Session::") != std::string::npos);
    }
}

void
testCorruptionIsCaught()
{
    RunOptions o = tiny("sw-small", false);
    o.corruptRequest = 2;
    RunReport r = run(o);
    CHECK(r.attempted > 2);
    CHECK(r.failed == 1);
    CHECK(!r.correct);
    CHECK(toJson(r).starts_with("{\"correct\": false"));
}

void
testPlansRepeatPerSeed()
{
    RunReport a = run(tiny("serve-mixed", false));
    RunReport b = run(tiny("serve-mixed", false));
    RunOptions other = tiny("serve-mixed", false);
    other.seed = 4;
    RunReport c = run(other);
    // Line 0 carries the plan digest, line 1 the deterministic totals.
    CHECK(a.lines.size() > 1 && b.lines.size() > 1 && c.lines.size() > 1);
    CHECK(a.lines[0] == b.lines[0] && a.lines[1] == b.lines[1]);
    CHECK(a.lines[0] != c.lines[0]);

    const Plan p = generatePlan(*findWorkload("serve-mixed"), 9, 0.2);
    std::set<size_t> sizes;
    for (const Entry &e : p.entries)
        if (e.cls == 1)
            sizes.insert(e.payload.size());
    CHECK(sizes.size() > 1);   // stratified, not one repeated size
    Schedule s(5, 1);
    std::set<uint32_t> pass;
    for (int i = 0; i < 5; ++i)
        pass.insert(s.next());
    CHECK(pass.size() == 5);   // a full pass serves every entry once
}

} // namespace

int
main()
{
    testPercentiles();
    testTenBeyondRule();
    testSnapshotDiffs();
    testSelfTime();
    testUnstolenTime();
    testMetricTable();
    testRunsReportTheirMetrics();
    testCorruptionIsCaught();
    testPlansRepeatPerSeed();
    if (failures != 0) {
        std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                     failures);
        return 1;
    }
    std::printf("perfbench_selftest: all checks passed\n");
    return 0;
}
