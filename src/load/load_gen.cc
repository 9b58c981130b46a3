#include "load/load_gen.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

#include "util/checked.h"
#include "util/clock.h"
#include "util/contracts.h"

namespace load {

namespace {

using util::Clock;
using util::secondsSince;

/** FNV-1a fold of one 64-bit value. */
uint64_t
fnv64(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
bitsOf(double d)
{
    return std::bit_cast<uint64_t>(d);
}

/** Deterministic per-client seed split (SplitMix64 step). */
uint64_t
splitSeed(uint64_t seed, uint64_t lane)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (lane + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

uint64_t
planScheduleDigest(const LoadGenConfig &cfg)
{
    // Construction plans the full traffic; nothing runs.
    return LoadGen(cfg).scheduleDigest();
}

LoadGen::LoadGen(const LoadGenConfig &cfg) : cfg_(cfg), mix_(cfg.mix)
{
    NXSIM_EXPECT(cfg_.clients > 0, "load needs >= 1 client");
    NXSIM_EXPECT(cfg_.requestsPerClient > 0,
                 "load needs >= 1 request per client");
    NXSIM_EXPECT(cfg_.warmupFraction >= 0.0 && cfg_.warmupFraction < 1.0,
                 "warmup fraction must be in [0, 1)");
    NXSIM_EXPECT(cfg_.workers > 0 && cfg_.windows > 0,
                 "load geometry needs >= 1 worker and window");
    for (const MixClass &mc : cfg_.mix.classes)
        if (std::find(formats_.begin(), formats_.end(), mc.format) ==
            formats_.end())
            formats_.push_back(mc.format);
    buildPlan();
}

void
LoadGen::buildPlan()
{
    size_t nc = nx::checked_cast<size_t>(cfg_.clients);
    size_t nr = nx::checked_cast<size_t>(cfg_.requestsPerClient);
    plan_.resize(nc);
    uint64_t h = 0xcbf29ce484222325ull;   // FNV offset basis
    for (size_t c = 0; c < nc; ++c) {
        // Two independent deterministic streams per client: arrival
        // timing and request sampling. Thread scheduling can never
        // perturb either — the whole plan exists before any thread.
        ArrivalProcess arr(cfg_.arrival, splitSeed(cfg_.seed, 2 * c));
        util::Xoshiro256 pick(splitSeed(cfg_.seed, 2 * c + 1));
        auto &pl = plan_[c];
        pl.reserve(nr);
        double t = 0.0;
        for (size_t i = 0; i < nr; ++i) {
            Planned p;
            double d = arr.nextDelaySeconds();
            // Open-loop plans carry absolute offsets; closed-loop
            // plans carry the per-request think delay.
            t += d;
            p.at = cfg_.arrival.kind == ArrivalKind::ClosedLoop ? d : t;
            p.req = mix_.sample(pick);
            h = fnv64(h, c);
            h = fnv64(h, i);
            h = fnv64(h, p.req.classIndex);
            h = fnv64(h, p.req.variantIndex);
            h = fnv64(h, p.req.kind == core::JobKind::Compress ? 0 : 1);
            h = fnv64(h, p.req.payload->size());
            h = fnv64(h, bitsOf(p.at));
            pl.push_back(std::move(p));
        }
    }
    digest_ = h;
}

LoadReport
LoadGen::run(const nx::NxConfig &chip)
{
    core::JobServerConfig jcfg;
    jcfg.workers = cfg_.workers;
    jcfg.windows = cfg_.windows;
    jcfg.window.fifoDepth = cfg_.fifoDepth;
    core::JobServer server(chip, jcfg);
    LoadReport rep = run(server);
    server.drainAndStop();
    return rep;
}

LoadReport
LoadGen::run(core::JobServer &server)
{
    size_t nc = plan_.size();
    outcomes_.assign(nc, {});

    // One session per (client, format) over the shared server — a
    // session speaks one stream format, so a mixed-format client owns
    // one per format, all pasting into the client's window (windows
    // assigned round-robin): the many-requesters/one-engine-pool shape.
    std::vector<std::vector<std::unique_ptr<nx::Session>>> sessions(nc);
    for (size_t c = 0; c < nc; ++c) {
        sessions[c].reserve(formats_.size());
        for (nx::SessionFormat f : formats_) {
            nx::SessionPolicy pol = cfg_.policy;
            pol.format = f;
            pol.window = nx::checked_cast<int>(c) % server.windowCount();
            sessions[c].push_back(
                std::make_unique<nx::Session>(server, pol));
        }
    }

    std::vector<std::vector<CapturedResult>> captured(
        cfg_.captureResults ? nc : 0);

    {
        nx::MutexLock lk(mu_);
        gateOpen_ = false;
    }
    std::vector<std::thread> clients;
    clients.reserve(nc);
    for (size_t c = 0; c < nc; ++c) {
        clients.emplace_back([this, c, &sessions, &captured] {
            clientLoop(nx::checked_cast<int>(c), sessions[c],
                       cfg_.captureResults ? &captured[c] : nullptr);
        });
    }

    Clock::time_point t0 = Clock::now();
    {
        nx::MutexLock lk(mu_);
        t0_ = t0;
        gateOpen_ = true;
    }
    gateCv_.notifyAll();
    // A startPaused server is released only after every client is at
    // the gate, so acceptance order is a pure function of the plan.
    server.resume();

    for (auto &t : clients)
        t.join();
    double elapsed = secondsSince(t0);

    LoadReport rep = finish(server, elapsed);
    for (auto &perClient : sessions) {
        for (auto &s : perClient) {
            auto st = s->stats();
            rep.accelRouted += st.accelRouted;
            rep.softwareRouted += st.softwareRouted;
            rep.fallbacks += st.fallbacks;
            rep.deviceFaults += st.deviceFaults;
            rep.bytesIn += st.bytesIn;
            rep.bytesOut += st.bytesOut;
            s->close();
        }
    }
    rep.fallbackRate = rep.accelRouted > 0
        ? static_cast<double>(rep.fallbacks) /
            static_cast<double>(rep.accelRouted)
        : 0.0;
    rep.throughputBps = elapsed > 0.0
        ? static_cast<double>(rep.bytesIn) / elapsed
        : 0.0;
    if (cfg_.captureResults)
        for (auto &per : captured)
            for (auto &r : per)
                rep.captured.push_back(std::move(r));
    return rep;
}

void
LoadGen::clientLoop(
    int client,
    const std::vector<std::unique_ptr<nx::Session>> &sessions,
    std::vector<CapturedResult> *capture)
{
    Clock::time_point t0;
    {
        nx::MutexLock lk(mu_);
        while (!gateOpen_)
            gateCv_.wait(mu_);
        t0 = t0_;
    }

    const auto &pl = plan_[nx::checked_cast<size_t>(client)];
    ClientOutcome &oc = outcomes_[nx::checked_cast<size_t>(client)];
    const bool open = cfg_.arrival.kind != ArrivalKind::ClosedLoop;
    const size_t warmup = static_cast<size_t>(
        cfg_.warmupFraction *
        static_cast<double>(cfg_.requestsPerClient));

    for (size_t i = 0; i < pl.size(); ++i) {
        const Planned &p = pl[i];
        Clock::time_point ref;
        if (open) {
            // Latency is measured from the *scheduled* arrival: when
            // the client is running behind, the backlog it accrued is
            // charged to every late request (no coordinated omission).
            ref = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(p.at));
            std::this_thread::sleep_until(ref);
        } else {
            ref = Clock::now();
        }

        size_t fi = nx::checked_cast<size_t>(
            std::find(formats_.begin(), formats_.end(), p.req.format) -
            formats_.begin());
        nx::Session &session = *sessions[fi];
        auto res = p.req.kind == core::JobKind::Compress
            ? session.compress(*p.req.payload)
            : session.decompress(*p.req.payload);
        double lat = secondsSince(ref);

        ++oc.submitted;
        if (res.ok)
            ++oc.completed;
        else
            ++oc.failed;
        if (i >= warmup) {
            ++oc.measured;
            latency_.record(lat);
        }
        if (capture != nullptr) {
            CapturedResult cr;
            cr.client = client;
            cr.requestIndex = i;
            cr.classIndex = p.req.classIndex;
            cr.variantIndex = p.req.variantIndex;
            cr.kind = p.req.kind;
            cr.ok = res.ok;
            cr.fellBack = res.fellBack;
            cr.backend = res.backend;
            cr.data = std::move(res.data);
            capture->push_back(std::move(cr));
        }

        if (!open)
            std::this_thread::sleep_for(
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(p.at)));
    }
}

LoadReport
LoadGen::finish(core::JobServer &server, double elapsed)
{
    LoadReport rep;
    rep.clients = cfg_.clients;
    rep.requestsPerClient = cfg_.requestsPerClient;
    rep.arrival = cfg_.arrival.kind;
    rep.seed = cfg_.seed;
    rep.workers = server.workerCount();
    rep.windows = server.windowCount();
    rep.fifoDepth = cfg_.fifoDepth;
    rep.scheduleDigest = digest_;
    rep.elapsedSeconds = elapsed;

    rep.perClientCompleted.reserve(outcomes_.size());
    for (const ClientOutcome &oc : outcomes_) {
        rep.submitted += oc.submitted;
        rep.completed += oc.completed;
        rep.failed += oc.failed;
        rep.measured += oc.measured;
        rep.perClientCompleted.push_back(oc.completed);
    }
    uint64_t mn = ~uint64_t{0};
    uint64_t mx = 0;
    for (uint64_t c : rep.perClientCompleted) {
        mn = std::min(mn, c);
        mx = std::max(mx, c);
    }
    rep.fairnessMinOverMax = mx > 0
        ? static_cast<double>(mn) / static_cast<double>(mx)
        : 1.0;

    rep.throughputRps = elapsed > 0.0
        ? static_cast<double>(rep.completed) / elapsed
        : 0.0;
    rep.latency = latency_.snapshot();

    // All requests are synchronous, so by join time the server has
    // completed everything this run pasted: the snapshot is settled.
    auto ss = server.stats();
    rep.busyRejects = ss.busyRejects;
    rep.pasteAttempts = ss.submitted + ss.busyRejects;
    rep.busyRejectRate = rep.pasteAttempts > 0
        ? static_cast<double>(rep.busyRejects) /
            static_cast<double>(rep.pasteAttempts)
        : 0.0;
    rep.queueDepthHighWater = ss.queueDepthHighWater;
    rep.windowBusyRejects = ss.windowBusyRejects;
    return rep;
}

} // namespace load
