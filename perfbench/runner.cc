#include "runner.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <deque>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "core/device.h"
#include "core/job_server.h"
#include "core/session.h"
#include "deflate/deflate_encoder.h"
#include "deflate/inflate_decoder.h"
#include "e842/e842_engine.h"
#include "metrics.h"
#include "plan.h"
#include "trace.h"
#include "util/adler32.h"
#include "util/checked.h"
#include "util/crc32.h"

namespace perfbench {

namespace {

using SteadyClock = std::chrono::steady_clock;

/** Taken during static initialisation: the process start for setup_s. */
const SteadyClock::time_point kProcessStart = SteadyClock::now();

constexpr double kMB = 1e6;

/** Length of the windows whose medians give throughput and CPU cost. */
constexpr double kWindowSeconds = 0.5;

/** A replay pass stops after this many full passes over the plan. */
constexpr int kMaxReplayPasses = 8;

/** Wait samples a JobServer keeps (its LatencyRecorder reservoir). */
constexpr uint64_t kWaitReservoir = uint64_t{1} << 20;

int64_t
sinceStart(SteadyClock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        t - kProcessStart).count();
}

double
secondsSince(SteadyClock::time_point t0)
{
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * CPU time the hypervisor has stolen from this virtual machine, summed
 * over its CPUs (the "steal" column of /proc/stat; 0 on bare metal).
 */
double
vmStealSeconds()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    double fields[8] = {};
    stat >> cpu;
    for (double &f : fields)
        stat >> f;
    return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

const double kStealAtStart = vmStealSeconds();


/**
 * Peak resident set of this program image (VmHWM). Not ru_maxrss: that
 * also carries the peak of the process that forked it over the exec, so
 * under run.py it never reads below the Python interpreter's own peak.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.starts_with("VmHWM:"))
            return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / kMB;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

__attribute__((format(printf, 1, 2))) std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

bool
sameBytes(std::span<const uint8_t> a, std::span<const uint8_t> b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

nx::SessionResult
issue(nx::Session &s, const Entry &e)
{
    return e.op == Op::Compress ? s.compress(e.payload)
                                : s.decompress(e.stream);
}

/** One shared JobServer and, per client, one Session per plan format. */
class Serving
{
  public:
    explicit Serving(const Plan &plan)
        : server_(std::make_unique<core::JobServer>(chipConfig())),
          sessions_(nx::checked_cast<size_t>(plan.spec->clients))
    {
        for (size_t c = 0; c < sessions_.size(); ++c) {
            int window = nx::checked_cast<int>(c) % server_->windowCount();
            for (nx::SessionFormat f : plan.formats())
                sessions_[c][slot(f)] = std::make_unique<nx::Session>(
                    *server_, sessionPolicy(f, window));
        }
    }

    nx::Session &
    session(size_t client, nx::SessionFormat f)
    {
        return *sessions_[client][slot(f)];
    }

    core::JobServer &server() { return *server_; }

    std::vector<nx::SessionStats>
    sessionStats() const
    {
        std::vector<nx::SessionStats> out;
        for (const auto &client : sessions_)
            for (const auto &s : client)
                if (s)
                    out.push_back(s->stats());
        return out;
    }

  private:
    static size_t slot(nx::SessionFormat f) { return static_cast<size_t>(f); }

    // Declared first so that it outlives the sessions pasting into it.
    std::unique_ptr<core::JobServer> server_;
    std::vector<std::array<std::unique_ptr<nx::Session>, 4>> sessions_;
};

/** Deterministic quantities of one pass over the plan. */
struct PassTotals
{
    uint64_t compressIn = 0;
    uint64_t compressOut = 0;
    uint64_t accelBytes = 0;          ///< uncompressed, accelerator leg
    double accelModelledSeconds = 0.0;
    uint64_t engineCycles = 0;
    uint64_t routes[2][2] = {};       ///< [accelerator][decompress]
    uint64_t failures = 0;
    uint64_t fallbacks = 0;

    double
    ratio() const
    {
        return compressOut == 0 ? 0.0
            : static_cast<double>(compressIn) /
                static_cast<double>(compressOut);
    }

    double
    modelledGbps() const
    {
        return accelModelledSeconds <= 0.0 ? 0.0
            : static_cast<double>(accelBytes) / accelModelledSeconds / 1e9;
    }
};

/**
 * The verified warm-up pass: every entry once, in plan order, through
 * the sessions, sequentially, so its totals repeat exactly for a seed.
 */
PassTotals
warmUp(const Plan &plan, Serving &serving)
{
    PassTotals p;
    const size_t clients = nx::checked_cast<size_t>(plan.spec->clients);
    const uint64_t cycles0 = serving.server().stats().engineCyclesSum;
    for (const Entry &e : plan.entries) {
        nx::SessionResult r = issue(serving.session(e.id % clients, e.format), e);
        if (!verify(e, r))
            ++p.failures;
        const bool accel = r.backend == nx::Backend::Accelerator;
        if (!r.fellBack && accel != e.accel)
            throw std::runtime_error("entry " + std::to_string(e.id) +
                " took another route than the plan predicts");
        p.fallbacks += r.fellBack ? 1 : 0;
        ++p.routes[accel][e.op == Op::Decompress];
        if (e.op == Op::Compress) {
            p.compressIn += e.payload.size();
            p.compressOut += r.data.size();
        }
        if (accel) {
            p.accelBytes += e.uncompressedBytes();
            p.accelModelledSeconds += r.seconds;
        }
    }
    p.engineCycles = serving.server().stats().engineCyclesSum - cycles0;
    return p;
}

struct SetupTimes
{
    double generate = 0.0;
    double reference = 0.0;
    double construct = 0.0;
    double warmup = 0.0;
    double total = 0.0;
    double rssMb = 0.0;   ///< peak RSS once constructed, before warm-up
};

/** Everything one set-up builds. */
struct Fixture
{
    Plan plan;
    std::unique_ptr<Serving> serving;
    PassTotals warm;
    SetupTimes times;
};

/** A point to time set-up from: wall, process CPU and stolen time. */
struct Instant
{
    SteadyClock::time_point wall;
    double cpu = 0.0;
    double steal = 0.0;

    static Instant
    now()
    {
        return {SteadyClock::now(), processCpuSeconds(), vmStealSeconds()};
    }

    /** Unstolen host wall seconds from this instant to @p later. */
    double
    until(const Instant &later) const
    {
        return unstolenSeconds(
            std::chrono::duration<double>(later.wall - wall).count(),
            later.cpu - cpu, later.steal - steal);
    }
};

std::unique_ptr<Fixture>
setUp(const WorkloadSpec &spec, const RunOptions &opt, const Instant &t0)
{
    auto fx = std::make_unique<Fixture>();
    Instant last = t0;
    auto lap = [&last] {
        Instant now = Instant::now();
        double s = last.until(now);
        last = now;
        return s;
    };
    fx->plan = generatePlan(spec, opt.seed, opt.planScale);
    fx->times.generate = lap();
    std::string err = buildReferences(fx->plan);
    if (!err.empty())
        throw std::runtime_error(err);
    fx->times.reference = lap();
    fx->serving = std::make_unique<Serving>(fx->plan);
    fx->times.construct = lap();
    fx->times.rssMb = peakRssMb();
    fx->warm = warmUp(fx->plan, *fx->serving);
    fx->times.warmup = lap();
    fx->times.total = t0.until(last);
    return fx;
}

/** One measured request. Times are host wall ns since process start. */
struct Call
{
    int64_t beginNs = 0;
    int64_t endNs = 0;
    uint32_t entry = 0;
    uint32_t client = 0;
    bool ok = false;
    bool accel = false;       ///< the accelerator leg produced the output
    bool fellBack = false;
    double legSeconds = 0.0;  ///< SessionResult::seconds (clock by leg)
};

/** Process CPU and stolen time at a window boundary. */
struct Mark
{
    int64_t wallNs = 0;
    double cpuSeconds = 0.0;
    double stealSeconds = 0.0;
};

struct Phase
{
    /**
     * Per client. A deque grows in fixed blocks, so the memory the
     * samples take follows their count instead of a vector's doublings.
     */
    std::vector<std::deque<Call>> calls;
    std::vector<Mark> marks;

    template <class Fn>
    void
    forEachCall(Fn fn) const
    {
        for (const auto &client : calls)
            for (const Call &c : client)
                fn(c);
    }

    size_t
    callCount() const
    {
        size_t n = 0;
        for (const auto &client : calls)
            n += client.size();
        return n;
    }
};

/**
 * The closed-loop request phase: each client issues its next request
 * when the previous one returns, until the deadline. Verification runs
 * after the timed call. The calling thread only marks window
 * boundaries, so runnable threads are the clients plus the engine
 * worker.
 */
Phase
runPhase(const Plan &plan, Serving &serving, const RunOptions &opt)
{
    const size_t clients = nx::checked_cast<size_t>(plan.spec->clients);
    const int windows = std::max(2, static_cast<int>(
        std::lround(opt.seconds / kWindowSeconds)));
    const auto length = std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double>(opt.seconds));
    const auto start = SteadyClock::now() + std::chrono::milliseconds(5);
    const auto deadline = start + length;

    Phase ph;
    ph.calls.resize(clients);
    std::vector<std::exception_ptr> errors(clients);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            try {
                std::deque<Call> &out = ph.calls[c];
                Schedule order(plan.entries.size(), plan.seed * 977 + c);
                std::this_thread::sleep_until(start);
                for (int64_t n = 0; SteadyClock::now() < deadline; ++n) {
                    const Entry &e = plan.entries[order.next()];
                    nx::Session &s = serving.session(c, e.format);
                    auto t0 = SteadyClock::now();
                    nx::SessionResult r = issue(s, e);
                    auto t1 = SteadyClock::now();
                    if (c == 0 && n == opt.corruptRequest && !r.data.empty())
                        r.data[r.data.size() / 2] ^= 0x5a;
                    Call k;
                    k.beginNs = sinceStart(t0);
                    k.endNs = sinceStart(t1);
                    k.entry = e.id;
                    k.client = nx::checked_cast<uint32_t>(c);
                    k.ok = verify(e, r);
                    k.accel = r.backend == nx::Backend::Accelerator;
                    k.fellBack = r.fellBack;
                    k.legSeconds = r.seconds;
                    out.push_back(k);
                }
            } catch (...) {
                errors[c] = std::current_exception();
            }
        });
    }

    for (int k = 0; k <= windows; ++k) {
        std::this_thread::sleep_until(start + length * k / windows);
        ph.marks.push_back({sinceStart(SteadyClock::now()),
                            processCpuSeconds(), vmStealSeconds()});
    }
    for (auto &t : threads)
        t.join();
    for (const auto &err : errors)
        if (err)
            std::rethrow_exception(err);
    return ph;
}

struct PhaseStats
{
    double throughputMbps = 0.0;
    std::vector<double> windowMbps;   ///< sorted
    double cpuMsPerMb = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    uint64_t samples = 0;
    uint64_t p99Beyond = 0;
    uint64_t failed = 0;
    uint64_t fallbacks = 0;
    // SessionResult::seconds per leg; the clocks differ, so never summed.
    double accelModelledSeconds = 0.0;
    double softwareHostSeconds = 0.0;
    uint64_t accelCalls = 0;
    uint64_t softwareCalls = 0;
    double cpuSeconds = 0.0;      ///< process CPU over the windows
    double stealSeconds = 0.0;    ///< stolen from the VM over the windows
};

PhaseStats
summarize(const Plan &plan, const Phase &ph)
{
    PhaseStats st;
    const size_t windows = ph.marks.size() - 1;
    // Per window: the share of asked-for CPU time the host granted. Wall
    // times are scaled by it, each request by that of the window it
    // completed in.
    std::vector<double> granted(windows);
    for (size_t w = 0; w < windows; ++w) {
        double cpu = ph.marks[w + 1].cpuSeconds - ph.marks[w].cpuSeconds;
        double steal = ph.marks[w + 1].stealSeconds -
            ph.marks[w].stealSeconds;
        granted[w] = unstolenSeconds(1.0, cpu, steal);
        st.cpuSeconds += cpu;
        st.stealSeconds += steal;
    }
    std::vector<double> bytes(windows, 0.0);
    std::vector<double> lat;
    lat.reserve(ph.callCount());
    ph.forEachCall([&](const Call &c) {
        st.failed += c.ok ? 0 : 1;
        st.fallbacks += c.fellBack ? 1 : 0;
        if (c.accel) {
            st.accelModelledSeconds += c.legSeconds;
            ++st.accelCalls;
        } else {
            st.softwareHostSeconds += c.legSeconds;
            ++st.softwareCalls;
        }
        auto it = std::upper_bound(
            ph.marks.begin(), ph.marks.end(), c.endNs,
            [](int64_t t, const Mark &m) { return t < m.wallNs; });
        auto k = static_cast<size_t>(it - ph.marks.begin());
        size_t w = std::clamp<size_t>(k, 1, windows) - 1;
        lat.push_back(static_cast<double>(c.endNs - c.beginNs) / 1e6 *
                      granted[w]);
        if (k >= 1 && k <= windows)
            bytes[w] += static_cast<double>(
                plan.entries[c.entry].uncompressedBytes());
    });
    std::vector<double> tput;
    std::vector<double> cpu;
    for (size_t w = 0; w < windows; ++w) {
        double secs = static_cast<double>(ph.marks[w + 1].wallNs -
                                          ph.marks[w].wallNs) / 1e9;
        double mb = bytes[w] / kMB;
        tput.push_back(mb / (secs * granted[w]));
        if (mb > 0.0)
            cpu.push_back((ph.marks[w + 1].cpuSeconds -
                           ph.marks[w].cpuSeconds) * 1e3 / mb);
    }
    st.throughputMbps = median(tput);
    std::sort(tput.begin(), tput.end());
    st.windowMbps = tput;
    st.cpuMsPerMb = cpu.empty() ? 0.0 : median(cpu);
    st.samples = lat.size();
    if (!lat.empty()) {
        std::sort(lat.begin(), lat.end());
        st.p50Ms = percentile(lat, 50.0);
        st.p99Ms = percentile(lat, 99.0);
        st.p99Beyond = samplesBeyond(lat.size(), 99.0);
    }
    return st;
}

/** Host time of one layer's replay calls, per plan entry. */
struct LayerTimes
{
    std::vector<int64_t> ns;
    std::vector<uint32_t> calls;
    uint64_t mismatches = 0;

    explicit LayerTimes(size_t entries) : ns(entries, 0), calls(entries, 0) {}

    double
    meanNs(uint32_t entry) const
    {
        return calls[entry] == 0 ? 0.0
            : static_cast<double>(ns[entry]) / calls[entry];
    }
};

/** Timing of one replayed call, taken tightly around the entry point. */
struct Timed
{
    SteadyClock::time_point t0;
    SteadyClock::time_point t1;
    bool ok = false;
};

/** Spans and their rows, shared by the request phase and the replays. */
struct TraceLog
{
    std::vector<Span> spans;
    std::vector<std::string> tracks;
    uint64_t nextId = 1;
};

/**
 * One replay pass over one layer: the plan's entries in shuffled full
 * passes, each call timed by @p fn and recorded as a span. @p fn
 * returns the entry point's name, or nullptr when the entry does not
 * reach this layer. Stops after @p budget seconds or kMaxReplayPasses
 * passes, whichever comes first.
 */
template <class Fn>
LayerTimes
replay(const Plan &plan, const char *layer, double budget, TraceLog &log,
       Fn fn)
{
    LayerTimes lt(plan.entries.size());
    const auto track = nx::checked_cast<uint32_t>(log.tracks.size());
    log.tracks.push_back(std::string("replay ") + layer);
    Schedule order(plan.entries.size(), plan.seed * 7919 + track);
    const auto begin = SteadyClock::now();
    for (int pass = 0; pass < kMaxReplayPasses; ++pass) {
        bool any = false;
        for (size_t i = 0; i < plan.entries.size(); ++i) {
            const Entry &e = plan.entries[order.next()];
            Timed t;
            const char *name = fn(e, t);
            if (name == nullptr)
                continue;
            any = true;
            Span s;
            s.name = name;
            s.layer = layer;
            s.beginNs = sinceStart(t.t0);
            s.endNs = sinceStart(t.t1);
            s.track = track;
            s.id = log.nextId++;
            s.request = e.id;
            log.spans.push_back(s);
            lt.ns[e.id] += s.endNs - s.beginNs;
            ++lt.calls[e.id];
            lt.mismatches += t.ok ? 0 : 1;
        }
        if (!any || secondsSince(begin) >= budget)
            break;
    }
    return lt;
}

/** Sum of host ms per uncompressed MB over the entries @p pick accepts. */
template <class Pick>
double
msPerMb(const Plan &plan, const LayerTimes &lt, Pick pick)
{
    double ns = 0.0;
    double bytes = 0.0;
    for (const Entry &e : plan.entries) {
        if (!pick(e))
            continue;
        ns += static_cast<double>(lt.ns[e.id]);
        bytes += static_cast<double>(lt.calls[e.id]) *
            static_cast<double>(e.uncompressedBytes());
    }
    return bytes == 0.0 ? 0.0 : (ns / 1e6) / (bytes / kMB);
}

uint32_t
readLe32(std::span<const uint8_t> b)
{
    return uint32_t{b[0]} | (uint32_t{b[1]} << 8) | (uint32_t{b[2]} << 16) |
        (uint32_t{b[3]} << 24);
}

uint32_t
readBe32(std::span<const uint8_t> b)
{
    return (uint32_t{b[0]} << 24) | (uint32_t{b[1]} << 16) |
        (uint32_t{b[2]} << 8) | uint32_t{b[3]};
}

core::JobSpec
jobSpec(const Entry &e)
{
    core::JobSpec spec;
    spec.kind = e.op == Op::Compress ? core::JobKind::Compress
                                     : core::JobKind::Decompress;
    const nx::SessionPolicy pol = sessionPolicy(e.format, 0);
    spec.codec = e.format == nx::SessionFormat::E842 ? core::Codec::E842
                                                     : core::Codec::Deflate;
    spec.framing = framingOf(e.format);
    spec.mode = pol.mode;
    spec.maxOutput = pol.maxOutputBytes;
    auto in = e.input();
    spec.payload.assign(in.begin(), in.end());
    return spec;
}

void
addSetupLines(RunReport &rep, const std::vector<SetupTimes> &reps)
{
    std::string line = "setup_s per set-up (host wall less steal):";
    for (const SetupTimes &t : reps)
        line += format(" %.4f", t.total);
    rep.lines.push_back(line);
}

void
addPlanLines(RunReport &rep, const Fixture &fx, const RunOptions &opt)
{
    const Plan &plan = fx.plan;
    const PassTotals &w = fx.warm;
    rep.lines.push_back(format(
        "workload %s  seed %llu  clients %d  seconds %.3g  plan %zu "
        "requests  digest %016llx", plan.spec->name,
        static_cast<unsigned long long>(opt.seed), plan.spec->clients,
        opt.seconds, plan.entries.size(),
        static_cast<unsigned long long>(plan.digest())));
    rep.lines.push_back(format(
        "deterministic: ratio=%.6f modelled_gbps=%.6f "
        "nx.engine_cycles=%llu routes: software/compress=%llu "
        "software/decompress=%llu accelerator/compress=%llu "
        "accelerator/decompress=%llu", w.ratio(), w.modelledGbps(),
        static_cast<unsigned long long>(w.engineCycles),
        static_cast<unsigned long long>(w.routes[0][0]),
        static_cast<unsigned long long>(w.routes[0][1]),
        static_cast<unsigned long long>(w.routes[1][0]),
        static_cast<unsigned long long>(w.routes[1][1])));
}

void
addPhaseLines(RunReport &rep, const PhaseStats &st, const char *label)
{
    rep.lines.push_back(format(
        "%s: latency samples %llu (p99 has %llu beyond), failed %llu, "
        "error_rate %.6g, fallbacks %llu", label,
        static_cast<unsigned long long>(st.samples),
        static_cast<unsigned long long>(st.p99Beyond),
        static_cast<unsigned long long>(st.failed),
        st.samples == 0 ? 0.0
            : static_cast<double>(st.failed) / static_cast<double>(st.samples),
        static_cast<unsigned long long>(st.fallbacks)));
    const auto &w = st.windowMbps;
    rep.lines.push_back(format(
        "%s: %zu windows of %.1f s, MB/s min %.4g p25 %.4g median %.4g "
        "p75 %.4g max %.4g", label, w.size(), kWindowSeconds, w.front(),
        percentile(w, 25.0), st.throughputMbps, percentile(w, 75.0),
        w.back()));
    rep.lines.push_back(format(
        "%s: host steal %.3f s against %.3f s of process CPU; wall times "
        "above and below are scaled by the %.4f of asked-for CPU granted",
        label, st.stealSeconds, st.cpuSeconds,
        unstolenSeconds(1.0, st.cpuSeconds, st.stealSeconds)));
    rep.lines.push_back(format(
        "%s: SessionResult::seconds by leg: accelerator %.6f s modelled "
        "over %llu requests; software %.6f s host wall over %llu requests",
        label, st.accelModelledSeconds,
        static_cast<unsigned long long>(st.accelCalls),
        st.softwareHostSeconds,
        static_cast<unsigned long long>(st.softwareCalls)));
}

void
addCounterLine(RunReport &rep, uint64_t fallbacks, uint64_t busyRejects)
{
    rep.lines.push_back(format(
        "counters: session.fallbacks=%llu job_server.busy_rejects=%llu",
        static_cast<unsigned long long>(fallbacks),
        static_cast<unsigned long long>(busyRejects)));
}

void
setMetric(RunReport &rep, const char *name, double value)
{
    for (MetricValue &m : rep.metrics)
        if (m.name == name) {
            m.value = std::isfinite(value) ? value : 0.0;
            return;
        }
    throw std::logic_error(std::string("metric not in the table: ") + name);
}

void
initMetrics(RunReport &rep, std::span<const MetricDef> defs)
{
    for (const MetricDef &d : defs)
        rep.metrics.push_back({d.name, 0.0});
}

/** Per-layer metrics of a traced run (see README.md for each one). */
void
tracedRun(const RunOptions &opt, Fixture &fx,
          const std::vector<SetupTimes> &reps, RunReport &rep)
{
    const Plan &plan = fx.plan;
    initMetrics(rep, perLayerMetrics());

    // The untraced request phase on the set-up server, for the overhead
    // and for the peak RSS an untraced run reaches.
    const Phase basePhase = runPhase(plan, *fx.serving, opt);
    setMetric(rep, "rss_peak_mb", peakRssMb());
    const PhaseStats base = summarize(plan, basePhase);
    setMetric(rep, "latency_p50_ms", base.p50Ms);
    setMetric(rep, "latency_p99_ms", base.p99Ms);
    fx.serving.reset();

    // The traced request phase, on a server that serves only it.
    Serving serving(plan);
    const auto sessions0 = serving.sessionStats();
    const auto server0 = serving.server().stats();
    const Phase ph = runPhase(plan, serving, opt);
    const auto sessions1 = serving.sessionStats();
    const auto server1 = serving.server().stats();
    const PhaseStats st = summarize(plan, ph);
    addPhaseLines(rep, base, "untraced phase");
    addPhaseLines(rep, st, "traced phase");
    rep.attempted = base.samples + st.samples;
    rep.failed = base.failed + st.failed;

    TraceLog log;
    for (int c = 0; c < plan.spec->clients; ++c)
        log.tracks.push_back("client " + std::to_string(c));
    ph.forEachCall([&](const Call &c) {
        const Entry &e = plan.entries[c.entry];
        Span s;
        s.name = e.op == Op::Compress ? "Session::compress"
                                      : "Session::decompress";
        s.layer = "session";
        s.beginNs = c.beginNs;
        s.endNs = c.endNs;
        s.track = c.client;
        s.id = log.nextId++;
        s.request = e.id;
        s.backend = c.accel ? "accelerator" : "software";
        s.fellBack = c.fellBack;
        s.legSeconds = c.legSeconds;
        s.legClock = c.accel ? "modelled" : "host wall";
        log.spans.push_back(s);
    });

    // Replay passes, one layer each, every call verified outside its span.
    const double budget = opt.replaySeconds;
    const nx::NxConfig cfg = chipConfig();
    core::JobServerStats replayServer;
    LayerTimes js = [&] {
        core::JobServer server(cfg);
        LayerTimes lt = replay(plan, "job_server", budget, log,
                               [&](const Entry &e, Timed &t) -> const char * {
            if (!e.accel)
                return nullptr;
            core::JobSpec spec = jobSpec(e);
            t.t0 = SteadyClock::now();
            core::SubmitResult sub = server.submitWithRetry(spec);
            core::AsyncJob job;
            if (sub.accepted())
                job = server.wait(sub.ticket);
            t.t1 = SteadyClock::now();
            t.ok = sub.accepted() && job.result.ok() &&
                sameBytes(job.result.data, e.expected());
            return "JobServer::submitWithRetry+wait";
        });
        replayServer = server.stats();
        return lt;
    }();

    nx::CompressEngine compressEngine(cfg);
    nx::DecompressEngine decompressEngine(cfg);
    uint64_t seq = 0;
    LayerTimes nxl = replay(plan, "nx", budget, log,
                            [&](const Entry &e, Timed &t) -> const char * {
        if (!e.accel || e.format == nx::SessionFormat::E842)
            return nullptr;
        const bool comp = e.op == Op::Compress;
        const nx::SessionPolicy pol = sessionPolicy(e.format, 0);
        t.t0 = SteadyClock::now();
        core::JobResult r = comp
            ? core::runCompressJob(compressEngine, cfg, e.payload,
                                   framingOf(e.format), pol.mode, seq++)
            : core::runDecompressJob(decompressEngine, cfg, e.stream,
                                     framingOf(e.format),
                                     pol.maxOutputBytes, seq++);
        t.t1 = SteadyClock::now();
        t.ok = r.ok() && sameBytes(r.data, e.expected());
        return comp ? "core::runCompressJob" : "core::runDecompressJob";
    });

    e842::E842Engine engine842;
    LayerTimes e8 = replay(plan, "e842", budget, log,
                           [&](const Entry &e, Timed &t) -> const char * {
        if (e.format != nx::SessionFormat::E842)
            return nullptr;
        const bool comp = e.op == Op::Compress;
        t.t0 = SteadyClock::now();
        e842::E842Job job = comp ? engine842.compressJob(e.payload)
                                 : engine842.decompressJob(e.stream);
        t.t1 = SteadyClock::now();
        t.ok = job.ok && sameBytes(job.output, e.expected());
        return comp ? "E842Engine::compressJob" : "E842Engine::decompressJob";
    });

    LayerTimes defl = replay(plan, "deflate", budget, log,
                             [&](const Entry &e, Timed &t) -> const char * {
        if (e.format == nx::SessionFormat::E842)
            return nullptr;
        if (e.op == Op::Compress) {
            if (e.accel)
                return nullptr;    // the engine has its own matcher
            deflate::DeflateOptions o;
            o.level = sessionPolicy(e.format, 0).level;
            t.t0 = SteadyClock::now();
            deflate::DeflateResult r = deflate::deflateCompress(e.payload, o);
            t.t1 = SteadyClock::now();
            t.ok = sameBytes(r.bytes, e.body());
            return "deflate::deflateCompress";
        }
        t.t0 = SteadyClock::now();
        deflate::InflateResult r = deflate::inflateDecompress(e.body());
        t.t1 = SteadyClock::now();
        t.ok = r.ok() && sameBytes(r.bytes, e.payload);
        return "deflate::inflateDecompress";
    });

    LayerTimes util = replay(plan, "util", budget, log,
                             [&](const Entry &e, Timed &t) -> const char * {
        auto trailer = std::span<const uint8_t>(e.stream);
        if (e.format == nx::SessionFormat::Gzip) {
            t.t0 = SteadyClock::now();
            uint32_t c = util::crc32(e.payload);
            t.t1 = SteadyClock::now();
            t.ok = c == readLe32(trailer.last(8));
            return "util::crc32";
        }
        if (e.format == nx::SessionFormat::Zlib) {
            t.t0 = SteadyClock::now();
            uint32_t a = util::adler32(e.payload);
            t.t1 = SteadyClock::now();
            t.ok = a == readBe32(trailer.last(4));
            return "util::adler32";
        }
        return nullptr;
    });

    const uint64_t mismatches = js.mismatches + nxl.mismatches +
        e8.mismatches + defl.mismatches + util.mismatches;
    rep.correct = rep.failed == 0 && fx.warm.failures == 0 && mismatches == 0;
    rep.lines.push_back(format(
        "replay passes: %llu outputs differ from their references",
        static_cast<unsigned long long>(mismatches)));

    using SF = nx::SessionFormat;
    auto isComp = [](const Entry &e) { return e.op == Op::Compress; };
    setMetric(rep, "modelled_gbps", fx.warm.modelledGbps());
    setMetric(rep, "nx.engine_cycles",
              static_cast<double>(fx.warm.engineCycles));
    setMetric(rep, "nx.compress_ms_per_mb",
              msPerMb(plan, nxl, [&](const Entry &e) { return isComp(e); }));
    setMetric(rep, "nx.decompress_ms_per_mb",
              msPerMb(plan, nxl, [&](const Entry &e) { return !isComp(e); }));

    // nx decompress minus the inflate beneath it, request by request.
    double selfNs = 0.0;
    double selfBytes = 0.0;
    for (const Entry &e : plan.entries) {
        if (isComp(e) || nxl.calls[e.id] == 0)
            continue;
        auto parent = static_cast<int64_t>(nxl.meanNs(e.id));
        auto child = static_cast<int64_t>(defl.meanNs(e.id));
        selfNs += static_cast<double>(selfTime({0, parent}, {{0, child}})) *
            nxl.calls[e.id];
        selfBytes += static_cast<double>(e.uncompressedBytes()) *
            nxl.calls[e.id];
    }
    setMetric(rep, "nx.decompress_self_ms_per_mb",
              selfBytes == 0.0 ? 0.0 : (selfNs / 1e6) / (selfBytes / kMB));

    setMetric(rep, "deflate.compress_ms_per_mb",
              msPerMb(plan, defl, [&](const Entry &e) { return isComp(e); }));
    setMetric(rep, "deflate.inflate_ms_per_mb",
              msPerMb(plan, defl, [&](const Entry &e) { return !isComp(e); }));
    setMetric(rep, "e842.compress_ms_per_mb",
              msPerMb(plan, e8, [&](const Entry &e) { return isComp(e); }));
    setMetric(rep, "e842.decompress_ms_per_mb",
              msPerMb(plan, e8, [&](const Entry &e) { return !isComp(e); }));
    auto mbps = [](double msPerMbValue) {
        return msPerMbValue == 0.0 ? 0.0 : 1e3 / msPerMbValue;
    };
    setMetric(rep, "util.crc32_mbps", mbps(msPerMb(plan, util,
        [](const Entry &e) { return e.format == SF::Gzip; })));
    setMetric(rep, "util.adler32_mbps", mbps(msPerMb(plan, util,
        [](const Entry &e) { return e.format == SF::Zlib; })));

    // Session, BufferPool and JobServer: stats() differenced over the
    // traced phase, plus the benchmark's own counts.
    nx::SessionStats sess;
    uint64_t pinned = 0;
    for (size_t i = 0; i < sessions1.size(); ++i) {
        nx::SessionStats d = diff(sessions0[i], sessions1[i]);
        sess.requests += d.requests;
        sess.accelRouted += d.accelRouted;
        sess.fallbacks += d.fallbacks;
        sess.pool.acquires += d.pool.acquires;
        sess.pool.heapFallbacks += d.pool.heapFallbacks;
        pinned += d.pool.pinnedBytes;
    }
    const core::JobServerStats jd = diff(server0, server1);
    addCounterLine(rep, sess.fallbacks, jd.busyRejects);
    double staged = 0.0;
    double overheadNs = 0.0;
    double engineNs = 0.0;
    uint64_t accelCalls = 0;
    ph.forEachCall([&](const Call &c) {
        const Entry &e = plan.entries[c.entry];
        if (e.accel)
            staged += static_cast<double>(e.input().size());
        // The leg beneath the session: the software codec's own wall
        // time, or the replayed JobServer round trip of this request.
        const bool device = c.accel && !c.fellBack;
        auto child = static_cast<int64_t>(device ? js.meanNs(c.entry)
                                                 : c.legSeconds * 1e9);
        overheadNs += static_cast<double>(selfTime(
            {c.beginNs, c.endNs}, {{c.beginNs, c.beginNs + child}}));
        if (device) {
            engineNs += e.format == SF::E842 ? e8.meanNs(c.entry)
                                             : nxl.meanNs(c.entry);
            ++accelCalls;
        }
    });
    const double calls = static_cast<double>(ph.callCount());
    setMetric(rep, "session.requests", static_cast<double>(sess.requests));
    setMetric(rep, "session.accel_share", sess.requests == 0 ? 0.0
        : static_cast<double>(sess.accelRouted) /
            static_cast<double>(sess.requests));
    setMetric(rep, "session.fallbacks", static_cast<double>(sess.fallbacks));
    setMetric(rep, "session.overhead_us",
              calls == 0.0 ? 0.0 : overheadNs / calls / 1e3);
    setMetric(rep, "buffer_pool.staged_mb", staged / kMB);
    setMetric(rep, "buffer_pool.heap_fallback_share",
              sess.pool.acquires == 0 ? 0.0
                  : static_cast<double>(sess.pool.heapFallbacks) /
                      static_cast<double>(sess.pool.acquires));
    setMetric(rep, "buffer_pool.pinned_mb", static_cast<double>(pinned) / kMB);
    setMetric(rep, "job_server.jobs", static_cast<double>(jd.submitted));
    setMetric(rep, "job_server.busy_rejects",
              static_cast<double>(jd.busyRejects));
    setMetric(rep, "job_server.queue_depth_mean", jd.meanQueueDepth);
    setMetric(rep, "job_server.queue_depth_max",
              static_cast<double>(jd.queueDepthHighWater));
    // The server was built for this phase, so its wait samples are the
    // phase's own; they are complete while under the reservoir cap.
    const bool waitsComplete = jd.wait.count == jd.completed &&
        jd.wait.count < kWaitReservoir;
    if (waitsComplete && jd.wait.count > 0) {
        setMetric(rep, "job_server.wait_p50_us", jd.wait.p50 * 1e6);
        if (percentileSupported(jd.wait.count, 99.0))
            setMetric(rep, "job_server.wait_p99_us", jd.wait.p99 * 1e6);
        setMetric(rep, "job_server.dispatch_us",
                  accelCalls == 0 ? 0.0
                      : jd.wait.mean * 1e6 -
                          engineNs / static_cast<double>(accelCalls) / 1e3);
    }
    rep.lines.push_back(format(
        "job_server: %llu wait samples (%s), p99 %s; replay server busy "
        "rejects %llu", static_cast<unsigned long long>(jd.wait.count),
        waitsComplete ? "complete" : "truncated",
        percentileSupported(jd.wait.count, 99.0) ? "supported"
                                                 : "unsupported (reported 0)",
        static_cast<unsigned long long>(replayServer.busyRejects)));

    std::vector<double> gen, ref, con, warm;
    for (const SetupTimes &t : reps) {
        gen.push_back(t.generate);
        ref.push_back(t.reference);
        con.push_back(t.construct);
        warm.push_back(t.warmup);
    }
    setMetric(rep, "setup.generate_s", median(gen));
    setMetric(rep, "setup.reference_s", median(ref));
    setMetric(rep, "setup.construct_s", median(con));
    setMetric(rep, "setup.warmup_s", median(warm));
    setMetric(rep, "trace.overhead_pct", base.throughputMbps <= 0.0 ? 0.0
        : (base.throughputMbps - st.throughputMbps) / base.throughputMbps *
            100.0);

    if (!opt.traceOut.empty()) {
        bool written = writeChromeTrace(opt.traceOut, log.spans, log.tracks);
        rep.lines.push_back(format("trace: %zu spans %s %s", log.spans.size(),
                                   written ? "written to" : "NOT written to",
                                   opt.traceOut.c_str()));
    }
}

} // namespace

RunReport
run(const RunOptions &opt)
{
    const WorkloadSpec *spec = findWorkload(opt.workload);
    if (spec == nullptr)
        throw std::runtime_error("unknown workload: " + opt.workload);
    if (!(opt.seconds > 0.0) || opt.setupReps < 1)
        throw std::runtime_error("seconds and set-up count must be positive");

    // Several complete set-ups; all but the last are torn down again.
    std::vector<SetupTimes> reps;
    std::unique_ptr<Fixture> fx;
    for (int r = 0; r < opt.setupReps; ++r) {
        fx.reset();
        fx = setUp(*spec, opt,
                   r == 0 ? Instant{kProcessStart, 0.0, kStealAtStart}
                          : Instant::now());
        reps.push_back(fx->times);
    }

    RunReport rep;
    addPlanLines(rep, *fx, opt);
    addSetupLines(rep, reps);
    if (opt.trace) {
        tracedRun(opt, *fx, reps, rep);
        return rep;
    }

    initMetrics(rep, endToEndMetrics());
    const Phase ph = runPhase(fx->plan, *fx->serving, opt);
    const double rssPeak = peakRssMb();
    const PhaseStats st = summarize(fx->plan, ph);
    addPhaseLines(rep, st, "measured phase");
    rep.lines.push_back("also reported, not bounded (see README.md):");
    auto row = [&](const char *name, double value, const char *unit,
                   Clock clock) {
        rep.lines.push_back(format("  %-34s %16.6f %-16s %s", name, value,
                                   unit, toString(clock)));
    };
    row("error_rate", st.samples == 0 ? 0.0
        : static_cast<double>(st.failed) / static_cast<double>(st.samples),
        "share", Clock::None);
    row("modelled_gbps", fx->warm.modelledGbps(), "GB/s-modelled",
        Clock::Modelled);
    row("rss_peak_mb", rssPeak, "MB", Clock::None);
    row("latency_p50_ms", st.p50Ms, "ms-unstolen", Clock::HostUnstolen);
    row("latency_p99_ms", st.p99Ms, "ms-unstolen", Clock::HostUnstolen);
    rep.attempted = st.samples;
    rep.failed = st.failed;
    rep.correct = st.failed == 0 && fx->warm.failures == 0;
    rep.p99Supported = percentileSupported(st.samples, 99.0);
    uint64_t fallbacks = 0;
    for (const nx::SessionStats &s : fx->serving->sessionStats())
        fallbacks += s.fallbacks;
    addCounterLine(rep, fallbacks, fx->serving->server().stats().busyRejects);

    std::vector<double> totals;
    for (const SetupTimes &t : reps)
        totals.push_back(t.total);
    setMetric(rep, "throughput_mbps", st.throughputMbps);
    setMetric(rep, "cpu_ms_per_mb", st.cpuMsPerMb);
    // The first set-up's, in a fresh heap: later ones inherit the heap
    // the earlier ones fragmented.
    setMetric(rep, "rss_setup_mb", reps.front().rssMb);
    setMetric(rep, "setup_s", median(totals));
    setMetric(rep, "ratio", fx->warm.ratio());
    return rep;
}

std::string
toJson(const RunReport &r)
{
    std::string out = format(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {", r.correct ? "true" : "false",
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const MetricValue &m = r.metrics[i];
        const MetricDef *def = findMetric(m.name);
        char num[64];
        auto res = std::to_chars(num, num + sizeof num, m.value);
        out += format("%s\"%s\": {\"value\": %.*s, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", m.name.c_str(),
                      static_cast<int>(res.ptr - num), num, def->unit);
    }
    out += "}}";
    return out;
}

} // namespace perfbench
