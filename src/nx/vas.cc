#include "nx/vas.h"

#include <algorithm>
#include <deque>

#include "util/prng.h"
#include "util/stats.h"
#include "util/checked.h"
#include "util/contracts.h"

namespace nx {

namespace {

/**
 * Modelled requester back-off after a busy-reject before the next
 * paste attempt. The threaded core::JobServer's clients use
 * core::BackoffPolicy wall-clock delays instead.
 */
constexpr sim::Tick kRetryCycles = 2000;

/** Closed-loop chip simulation state. */
class ChipSim
{
  public:
    explicit ChipSim(const VasSimConfig &cfg)
        : cfg_(cfg), service_{cfg.chip}, rng_(cfg.seed)
    {
        int engines = cfg.decompress
            ? cfg.chip.decompressEnginesPerUnit
            : cfg.chip.compressEnginesPerUnit;
        engines *= cfg.chip.unitsPerChip;
        engineFreeAt_.assign(static_cast<size_t>(engines), 0);
    }

    VasSimResult
    run()
    {
        if (cfg_.openArrival)
            scheduleArrival();
        else
            for (int r = 0; r < cfg_.requesters; ++r)
                submit(r);
        eq_.run(cfg_.horizonCycles);
        finalize();
        return result_;
    }

  private:
    struct Job
    {
        sim::Tick pasteTime;
        uint64_t bytes;
        int requester;
    };

    void
    scheduleArrival()
    {
        double gap_s = rng_.exponential(1.0 / cfg_.arrivalsPerSec);
        sim::Tick gap = cfg_.chip.clock.fromSeconds(gap_s);
        eq_.scheduleIn(gap < 1 ? 1 : gap, [this] {
            submit(-1);
            scheduleArrival();
        });
    }

    void
    submit(int requester)
    {
        // Bounded window: a full receive FIFO busy-rejects the paste
        // and the requester re-pastes after a back-off, exactly the
        // RC-busy loop the threaded core::JobServer clients run.
        if (cfg_.window.bounded() &&
            queue_.size() >=
                static_cast<size_t>(cfg_.window.fifoDepth)) {
            ++busyRejects_;
            eq_.scheduleIn(kRetryCycles,
                           [this, requester] { submit(requester); });
            return;
        }
        Job job{eq_.now(), cfg_.jobBytes, requester};
        queue_.push_back(job);
        queueSamples_.add(static_cast<double>(queue_.size()));
        tryDispatch();
    }

    void
    tryDispatch()
    {
        while (!queue_.empty()) {
            // Find a free engine now.
            int eng = -1;
            for (size_t e = 0; e < engineFreeAt_.size(); ++e) {
                if (engineFreeAt_[e] <= eq_.now()) {
                    eng = nx::checked_cast<int>(e);
                    break;
                }
            }
            if (eng < 0)
                return;

            Job job = queue_.front();
            queue_.pop_front();
            sim::Tick svc = cfg_.decompress
                ? service_.decompressCycles(job.bytes)
                : service_.compressCycles(job.bytes);
            sim::Tick done = eq_.now() + svc;
            engineFreeAt_[static_cast<size_t>(eng)] = done;
            busyCycles_ += svc;

            eq_.schedule(done, [this, job, done] {
                complete(job, done);
            });
        }
    }

    void
    complete(const Job &job, sim::Tick done)
    {
        if (done >= cfg_.warmupCycles) {
            ++completed_;
            bytesDone_ += job.bytes;
            sim::Tick lat = done - job.pasteTime;
            latency_.add(static_cast<double>(lat));
            latencyPct_.add(static_cast<double>(lat));
        }
        // Closed loop: requester thinks, then submits the next job.
        // Open-arrival jobs (requester < 0) do not respawn.
        if (job.requester >= 0) {
            eq_.scheduleIn(cfg_.thinkCycles, [this, r = job.requester] {
                submit(r);
            });
        }
        tryDispatch();
    }

    void
    finalize()
    {
        sim::Tick measured = cfg_.horizonCycles > cfg_.warmupCycles
            ? cfg_.horizonCycles - cfg_.warmupCycles : 1;
        double secs = cfg_.chip.clock.toSeconds(measured);
        result_.aggregateBps = static_cast<double>(bytesDone_) / secs;
        result_.utilization = static_cast<double>(busyCycles_) /
            (static_cast<double>(cfg_.horizonCycles) *
             static_cast<double>(engineFreeAt_.size()));
        if (result_.utilization > 1.0)
            result_.utilization = 1.0;
        result_.meanQueueDepth = queueSamples_.mean();
        result_.meanLatencyCycles = latency_.mean();
        result_.p99LatencyCycles = latencyPct_.percentile(99);
        result_.jobsCompleted = completed_;
        result_.busyRejects = busyRejects_;
    }

    VasSimConfig cfg_;
    ServiceModel service_;
    util::Xoshiro256 rng_{1};
    sim::EventQueue eq_;
    std::deque<Job> queue_;
    std::vector<sim::Tick> engineFreeAt_;

    uint64_t completed_ = 0;
    uint64_t bytesDone_ = 0;
    uint64_t busyCycles_ = 0;
    uint64_t busyRejects_ = 0;
    util::RunningStat latency_;
    util::Percentiles latencyPct_;
    util::RunningStat queueSamples_;
    VasSimResult result_;
};

} // namespace

VasSimResult
simulateChip(const VasSimConfig &cfg)
{
    // A zero rate would draw infinite gaps, and an infinite tick count
    // does not exist: the run would complete no job and say nothing.
    NXSIM_EXPECT(!cfg.openArrival || cfg.arrivalsPerSec > 0.0,
                 "open arrival needs a positive arrivalsPerSec");
    ChipSim sim(cfg);
    return sim.run();
}

VasSimResult
simulateSystem(const VasSimConfig &per_chip, int chips)
{
    // Chips are independent in the dispatch path; run one and scale the
    // aggregate rate. Latency statistics are per chip.
    VasSimResult one = simulateChip(per_chip);
    VasSimResult sys = one;
    sys.aggregateBps = one.aggregateBps * chips;
    sys.jobsCompleted = one.jobsCompleted * static_cast<uint64_t>(chips);
    sys.busyRejects = one.busyRejects * static_cast<uint64_t>(chips);
    return sys;
}

} // namespace nx
