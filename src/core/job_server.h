/**
 * @file
 * core::JobServer — the real multithreaded asynchronous dispatch layer
 * in front of the accelerator engines.
 *
 * The paper's scaling story is many requester threads pasting CRBs
 * into VAS windows with no syscall on the submit path, free engines
 * popping a shared receive FIFO in order, and busy-reject/re-paste as
 * the only backpressure mechanism. NxDevice models the per-job
 * functional/timing contract synchronously; this class adds the
 * concurrent half:
 *
 *   client threads --paste--> per-window bounded FIFOs --pop--> engine
 *   workers (one modelled engine each) --CSB--> completion table
 *
 * - submitAsync() is non-blocking: a full window FIFO returns
 *   PasteStatus::Busy (never blocks, never queues elsewhere), exactly
 *   the hardware's paste RC. submitWithRetry() is the client-side
 *   helper that re-pastes with capped exponential backoff.
 * - Workers execute the *actual* compress/decompress through the same
 *   runCompressJob/runDecompressJob helpers as the synchronous device,
 *   so async outputs are bit-identical to NxDevice::compress/
 *   decompress for the same job list — while charging the modelled
 *   engine cycles to their worker, so aggregate modelled throughput
 *   can be cross-checked against the analytic nx::ServiceModel / vas.h
 *   queueing predictions (E6/A6).
 * - Per-window FIFO order is a hard guarantee: jobs pasted into one
 *   window are dispatched to engines in paste order (completions may
 *   reorder across windows/engines, as on hardware).
 * - Each worker also runs 842 jobs, on the one stateless 842 engine
 *   model all workers share: a JobSpec selects its engine family per
 *   CRB (Codec::Deflate / Codec::E842), the way one VAS window serves
 *   both engine types on the real unit.
 * - An optional nx::FaultInjector hook (JobServerConfig::faultInjector)
 *   makes engine-reported failures injectable: a tripped job completes
 *   with the injected CSB condition code and no output, and is counted
 *   in stats().jobFaults / faultsInjected — the observable the session
 *   layer's software-fallback decision rests on.
 *
 * Thread-safety: every public method may be called from any thread.
 * Shutdown (drainAndStop or destruction) completes every accepted job
 * — a saturated server drains cleanly with no lost or double-completed
 * tickets. Each ticket has one claimant: a wait or drain that would
 * claim a ticket another thread is already waiting on is a contract
 * violation, not a second sleeper that never wakes. The ticket
 * lifecycle is annotated with NXSIM_ACQUIRES/RELEASES(job_ticket) and
 * checked by nxown; the server's own call order is an nxstate
 * protocol.
 *
 * The lock discipline is stated in the types (util/thread_annotations.h)
 * and machine-checked by the `clang-tsa` preset: everything mu_
 * protects is NXSIM_GUARDED_BY(mu_), lock-assuming helpers are
 * NXSIM_REQUIRES(mu_), and public entry points are NXSIM_EXCLUDES(mu_)
 * so calling one with the lock held is a compile error, not a deadlock
 * found in production.
 */

#ifndef NXSIM_CORE_JOB_SERVER_H
#define NXSIM_CORE_JOB_SERVER_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/device.h"
#include "core/fault_injector.h"
#include "e842/e842_engine.h"
#include "nx/window.h"
#include "sim/ticks.h"
#include "util/latency_recorder.h"
#include "util/ownership.h"
#include "util/protocol.h"
#include "util/thread_annotations.h"

namespace core {

/** What a job asks the engine pool to do. */
enum class JobKind
{
    Compress,
    Decompress,
};

/**
 * Which engine family executes a job. The NX unit carries gzip
 * (DEFLATE) and 842 engines side by side; a window serves both, so
 * the codec is per-CRB, not per-server.
 */
enum class Codec : uint8_t
{
    Deflate,   ///< gzip/zlib/raw-deflate engines
    E842,      ///< 842 memory-compression engines
};

/** One asynchronous request as pasted into a window FIFO. */
struct JobSpec
{
    JobKind kind = JobKind::Compress;
    Codec codec = Codec::Deflate;
    Mode mode = Mode::Auto;               ///< compress-only (Deflate)
    nx::Framing framing = nx::Framing::Gzip;  ///< Deflate-only
    uint64_t maxOutput = uint64_t{1} << 30;  ///< decompress-only cap
    std::vector<uint8_t> payload;         ///< source or framed stream
};

/** Completion handle returned by an accepted paste. Never 0. */
using Ticket = uint64_t;

/** Outcome of one paste attempt. */
struct SubmitResult
{
    nx::PasteStatus status = nx::PasteStatus::Busy;
    Ticket ticket = 0;                    ///< valid iff accepted()
    int attempts = 1;                     ///< pastes issued (retry helper)

    bool accepted() const
    {
        return status == nx::PasteStatus::Accepted;
    }
};

/** One completed job with its dispatch provenance. */
struct AsyncJob
{
    Ticket ticket = 0;
    int window = 0;
    uint64_t windowSeq = 0;     ///< paste order within the window
    uint64_t dispatchSeq = 0;   ///< global engine-pop order
    JobResult result;
};

/** Client-side re-paste policy for busy-rejected submissions. */
struct BackoffPolicy
{
    int maxAttempts = 16;
    std::chrono::microseconds initialDelay{50};
    std::chrono::microseconds maxDelay{2000};   ///< exponential cap
};

/** Pool geometry. */
struct JobServerConfig
{
    /**
     * Engine workers (each owns one modelled compress + decompress
     * engine). 0 derives the count from the chip config:
     * max(compress, decompress engines) x unitsPerChip.
     */
    int workers = 0;

    /** VAS windows (independent bounded FIFOs) clients paste into. */
    int windows = 4;

    /** Receive-FIFO depth and retry model per window. */
    nx::WindowConfig window;

    /**
     * Start with the engine pool gated (no job is popped until
     * resume()). Deterministic backpressure tests and benches use this
     * to fill FIFOs without racing the workers; it models engines
     * held in reset.
     */
    bool startPaused = false;

    /**
     * Optional fault hook, consulted once per job before it runs: an
     * injected fault completes the job with the injected condition
     * code and no output, exactly like an engine-reported CSB failure.
     * Not owned; must outlive the server. Null: never fault.
     */
    nx::FaultInjector *faultInjector = nullptr;
};

/** Aggregate view of the server's thread-safe stats block. */
struct JobServerStats
{
    uint64_t submitted = 0;       ///< accepted pastes
    uint64_t completed = 0;
    uint64_t busyRejects = 0;     ///< pastes bounced off a full FIFO
    /** submitWithRetry calls that exhausted their attempt budget. */
    uint64_t busyExhausted = 0;
    /** Jobs completed with a non-success CSB (real or injected). */
    uint64_t jobFaults = 0;
    /** Subset of jobFaults produced by the fault-injector hook. */
    uint64_t faultsInjected = 0;
    uint64_t bytesIn = 0;
    uint64_t bytesOut = 0;
    uint64_t unclaimed = 0;       ///< tickets issued, not yet claimed
    sim::Tick engineCyclesSum = 0;   ///< total modelled engine occupancy
    sim::Tick engineCyclesMax = 0;   ///< busiest worker (parallel makespan)
    double meanQueueDepth = 0.0;     ///< sampled at each accepted paste
    /** Deepest total backlog (all FIFOs) seen at any accepted paste. */
    uint64_t queueDepthHighWater = 0;
    /** Busy rejects per VAS window (who bounced off which FIFO). */
    std::vector<uint64_t> windowBusyRejects;
    util::LatencyRecorder::Snapshot wait;      ///< wall seconds, paste->CSB

    /** Modelled wall time of the run assuming engines ran in parallel. */
    double
    modelledSeconds(const nx::NxConfig &cfg) const
    {
        return cfg.clock.toSeconds(engineCyclesMax);
    }
};

/** The dispatch layer. Non-copyable; owns its worker threads. */
NXSIM_PROTOCOL(JobServer, {submitAsync|submitWithRetry}* -> drainAndStop+);
class JobServer
{
  public:
    explicit JobServer(const nx::NxConfig &cfg,
                       const JobServerConfig &jcfg = {});
    ~JobServer();

    JobServer(const JobServer &) = delete;
    JobServer &operator=(const JobServer &) = delete;

    /**
     * Paste one job into @p window. Non-blocking: returns Busy when
     * the window FIFO is at capacity and Closed once draining began.
     * An accepted spec is moved into the FIFO, so pass an rvalue to
     * hand the payload over without a copy.
     */
    [[nodiscard]] SubmitResult submitAsync(JobSpec spec, int window = 0)
        NXSIM_EXCLUDES(mu_) NXSIM_ACQUIRES(job_ticket);

    /**
     * Paste with the paper's RC-busy loop: on Busy, back off
     * (exponential, capped at policy.maxDelay) and re-paste, up to
     * policy.maxAttempts total attempts. A rejected attempt leaves the
     * spec with the loop; only the accepted one moves it.
     */
    [[nodiscard]] SubmitResult submitWithRetry(
        JobSpec spec, int window = 0,
        const BackoffPolicy &policy = {}) NXSIM_EXCLUDES(mu_)
        NXSIM_ACQUIRES(job_ticket);

    /**
     * Block until @p t completes and claim it; wakes only this thread.
     * Each ticket is claimed exactly once, by wait() or drain().
     */
    [[nodiscard]] AsyncJob wait(Ticket t) NXSIM_EXCLUDES(mu_)
        NXSIM_RELEASES(job_ticket);

    /**
     * Batch drain: block until every accepted job has completed, then
     * claim all still-unclaimed records, sorted by ticket. No wait()
     * may overlap it.
     */
    std::vector<AsyncJob> drain() NXSIM_EXCLUDES(mu_)
        NXSIM_RELEASES(job_ticket);

    /**
     * Stop accepting work (subsequent pastes return Closed), finish
     * every queued/in-flight job, and join the workers. Completed
     * records stay claimable via wait/drain. Idempotent; the
     * destructor calls it.
     */
    void drainAndStop() NXSIM_EXCLUDES(mu_) NXSIM_RELEASES(job_ticket);

    /** Release the engine pool when constructed with startPaused. */
    void resume() NXSIM_EXCLUDES(mu_);

    /** Snapshot of the thread-safe stats block. */
    JobServerStats stats() const NXSIM_EXCLUDES(mu_);

    int workerCount() const;
    int windowCount() const;
    const nx::NxConfig &config() const { return cfg_; }

  private:
    struct Pending
    {
        Ticket ticket = 0;
        int window = 0;
        uint64_t windowSeq = 0;
        JobSpec spec;
        std::chrono::steady_clock::time_point pasteTime;
    };

    /** One issued ticket: created at paste, erased at claim. */
    struct Slot
    {
        bool done = false;
        AsyncJob job;                    ///< valid once done
        nx::CondVar *waiter = nullptr;   ///< the wait() blocked on it
    };

    /** One paste attempt; moves @p spec into the FIFO iff accepted. */
    [[nodiscard]] SubmitResult paste(JobSpec &spec, int window)
        NXSIM_EXCLUDES(mu_);
    void workerLoop(int w) NXSIM_EXCLUDES(mu_);

    // Immutable after construction (workers are spawned last, so every
    // thread observes the finished setup): safe to read without mu_.
    nx::NxConfig cfg_;
    JobServerConfig jcfg_;

    // One modelled engine pair per worker (engine k <-> worker k). The
    // vectors never change shape after construction and engine k is
    // touched only by worker thread k, so the pool needs no lock.
    std::vector<std::unique_ptr<nx::CompressEngine>> comp_;
    std::vector<std::unique_ptr<nx::DecompressEngine>> decomp_;
    /// The 842 engine keeps no state between jobs: every worker runs
    /// its const methods on this one.
    const e842::E842Engine e842_{};
    std::vector<std::thread> workers_;

    mutable nx::Mutex mu_;
    nx::CondVar workCv_;   ///< work arrived / stop
    nx::CondVar idleCv_;   ///< completed_ caught up with accepted_

    std::vector<std::deque<Pending>> fifo_
        NXSIM_GUARDED_BY(mu_);                  ///< per-window FIFOs
    std::vector<uint64_t> windowPastes_
        NXSIM_GUARDED_BY(mu_);                  ///< paste seq per window
    /// Issued, unclaimed tickets. Tickets are monotonic, so one below
    /// nextTicket_ without a slot has been claimed.
    std::map<Ticket, Slot> slots_ NXSIM_GUARDED_BY(mu_);
    int drainers_ NXSIM_GUARDED_BY(mu_) = 0;    ///< drain() calls asleep

    Ticket nextTicket_ NXSIM_GUARDED_BY(mu_) = 1;
    /// Global engine-pop order; also each CRB's seq.
    uint64_t dispatchSeq_ NXSIM_GUARDED_BY(mu_) = 0;
    size_t queuedTotal_ NXSIM_GUARDED_BY(mu_) = 0;
    /// Round-robin pop fairness cursor.
    size_t rrWindow_ NXSIM_GUARDED_BY(mu_) = 0;
    bool paused_ NXSIM_GUARDED_BY(mu_) = false;
    bool draining_ NXSIM_GUARDED_BY(mu_) = false;
    bool stopping_ NXSIM_GUARDED_BY(mu_) = false;
    bool joined_ NXSIM_GUARDED_BY(mu_) = false;

    // Stats (counters under mu_; recorders internally locked).
    uint64_t accepted_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t completed_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t busyRejects_ NXSIM_GUARDED_BY(mu_) = 0;
    std::vector<uint64_t> windowBusyRejects_ NXSIM_GUARDED_BY(mu_);
    uint64_t queueHighWater_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t busyExhausted_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t jobFaults_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t faultsInjected_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t bytesIn_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t bytesOut_ NXSIM_GUARDED_BY(mu_) = 0;
    std::vector<sim::Tick> workerCycles_ NXSIM_GUARDED_BY(mu_);
    util::RunningStat queueDepth_ NXSIM_GUARDED_BY(mu_);
    util::LatencyRecorder waitLatency_;
};

} // namespace core

#endif // NXSIM_CORE_JOB_SERVER_H
