/**
 * @file
 * nx::Session — the servable hybrid HW/SW routing layer.
 *
 * The paper's headline result is that the accelerator only beats
 * software above a request-size crossover; in the production stacks
 * (zlibNX on AIX, zEDC on z/OS, QATzip on x86) that is not a benchmark
 * footnote but a *live routing decision* made per request by a session
 * object that owns the policy. This class is that layer for this
 * repo's modelled NX unit, shaped after QATzip's qzSession:
 *
 *  - the policy names the stream format (gzip / zlib / raw DEFLATE /
 *    842), software level, accelerator Huffman mode, and the
 *    input-size threshold: requests below the threshold run on the
 *    software codec (the CRB round trip would cost more than it
 *    saves), requests at/above it are pasted to the modelled
 *    accelerator through a core::JobServer;
 *  - the device path is never load-bearing for correctness: busy-
 *    reject exhaustion (the paste budget ran out), a closed window,
 *    or a faulted CSB after the retry budget all fall back to the
 *    software codec, which produces the output the caller sees —
 *    like qzCompress falling back to software when QAT is saturated;
 *  - translation faults are resubmitted (the paper's touch-and-
 *    resubmit page-fault protocol) up to SessionPolicy::faultRetries
 *    times before software takes over; other condition codes fall
 *    back immediately, except a decompress the engine rejects as
 *    BadData: the software leg reads the stream through the same
 *    decoder under the same cap, so the device leg answers it;
 *  - nothing stages a request: NX engines read the requester's
 *    memory through address translation, so an accelerator-bound
 *    request is copied once, into its job (again per translation-
 *    fault resubmission);
 *  - every routing and fallback decision is counted in stats(), so
 *    operators can see *why* traffic landed where it did.
 *
 * Sessions are thread-safe and can share one JobServer (many sessions,
 * one engine pool — the multi-requester shape of the paper's shared
 * queue), or own a private one.
 *
 * Lifecycle (machine-checked by nxstate): optionally configure() a
 * policy, then any number of compress()/decompress() calls, then at
 * most one close(). Using a closed session is a contract violation.
 */

#ifndef NXSIM_CORE_SESSION_H
#define NXSIM_CORE_SESSION_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/buffer_pool.h"
#include "core/job_server.h"
#include "util/ownership.h"
#include "util/protocol.h"
#include "util/thread_annotations.h"

namespace nx {

/** Stream format a session speaks. */
enum class SessionFormat : uint8_t
{
    Gzip,         ///< RFC 1952 member (CRC-32 trailer)
    Zlib,         ///< RFC 1950 stream (Adler-32 trailer)
    RawDeflate,   ///< bare RFC 1951 bit stream
    E842,         ///< 842-class memory-compression stream
};

/** Human-readable format name. */
const char *toString(SessionFormat f);

/**
 * The CRB framing of a deflate-family format (E842 has no DEFLATE
 * framing and maps to Raw): the one SessionFormat->Framing switch.
 */
Framing deflateFraming(SessionFormat f);

/** Where a request's output was actually produced. */
enum class Backend : uint8_t
{
    Software,
    Accelerator,
};

/** Human-readable backend name. */
const char *toString(Backend b);

/** Per-session routing and execution policy. */
struct SessionPolicy
{
    SessionFormat format = SessionFormat::Gzip;

    /** Software codec level (DEFLATE formats; 842 has no levels). */
    int level = 6;

    /** Accelerator Huffman-table mode (DEFLATE formats). */
    core::Mode mode = core::Mode::Auto;

    /**
     * Requests of at least this many input bytes go to the
     * accelerator; smaller ones run on the software codec. 0 routes
     * everything to the device (benchmarks); the default mirrors the
     * production libraries' crossover (libnxz: 4 KiB).
     */
    uint64_t accelThresholdBytes = 4096;

    /** VAS window this session pastes into. */
    int window = 0;

    /** Busy re-paste budget for one request (the paper's RC loop). */
    core::BackoffPolicy backoff;

    /**
     * Translation-fault resubmits before software fallback. Other
     * condition codes are not retried.
     */
    int faultRetries = 1;

    /** Never touch the device (maintenance drain, A/B baselines). */
    bool forceSoftware = false;

    /** Decompress output cap. */
    uint64_t maxOutputBytes = uint64_t{1} << 30;
};

/** One completed session request. */
struct SessionResult
{
    bool ok = false;
    std::string error;                ///< set when !ok
    std::vector<uint8_t> data;        ///< produced stream / payload

    /** Backend that produced `data`. */
    Backend backend = Backend::Software;

    /** Routed to the accelerator but completed in software. */
    bool fellBack = false;

    /** Device submissions issued for this request (0: pure software). */
    int deviceSubmits = 0;

    /**
     * Time of the leg that produced the output: modelled seconds on
     * the accelerator, measured wall seconds in software.
     */
    double seconds = 0.0;

    uint64_t inputBytes = 0;

    double
    ratio() const
    {
        return data.empty() ? 0.0
            : static_cast<double>(inputBytes) /
                static_cast<double>(data.size());
    }
};

/** @p kind over @p input on the software codec of @p policy's format,
 *  level and cap; a failure reads `software codec: <condition code>`. */
[[nodiscard]] SessionResult softwareLeg(const SessionPolicy &policy,
                                        core::JobKind kind,
                                        std::span<const uint8_t> input);

/** Aggregate session counters (one consistent snapshot). */
struct SessionStats
{
    uint64_t requests = 0;
    uint64_t softwareRouted = 0;   ///< policy sent it to software
    uint64_t accelRouted = 0;      ///< policy sent it to the device

    /** Accel-routed requests whose output came from software. */
    uint64_t fallbacks = 0;
    /** Fallback cause: paste budget exhausted (all attempts Busy). */
    uint64_t busyExhausted = 0;
    /** Fallback cause: window closed (server draining/stopped). */
    uint64_t closedRejects = 0;
    /** Faulted device completions observed (each failed CSB). */
    uint64_t deviceFaults = 0;

    uint64_t bytesIn = 0;
    uint64_t bytesOut = 0;         ///< produced bytes of ok requests

    /** Always zero: nothing stages a request (see buffer_pool.h). */
    BufferPoolStats pool;

    // Dispatch-layer view behind this session. On a shared JobServer
    // these aggregate every session's traffic, not just this one's —
    // the operator-facing saturation signals of the serving report.
    /** Pastes bounced off a full window FIFO. */
    uint64_t serverBusyRejects = 0;
    /** Deepest total FIFO backlog any accepted paste observed. */
    uint64_t serverQueueDepthHighWater = 0;
    /** Busy rejects split per VAS window. */
    std::vector<uint64_t> serverWindowBusyRejects;
};

/** The session. Thread-safe; non-copyable. */
NXSIM_PROTOCOL(Session, configure? -> {compress|decompress}* -> close?);
class Session
{
  public:
    /**
     * Open a session owning a private JobServer on @p cfg's modelled
     * chip (simple single-client shape).
     */
    explicit Session(const nx::NxConfig &cfg,
                     const SessionPolicy &policy = {});

    /**
     * Open a session over a shared JobServer (many sessions, one
     * engine pool). @p server must outlive the session.
     */
    explicit Session(core::JobServer &server,
                     const SessionPolicy &policy = {});

    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Replace the policy. Legal only before the first request
     * (enforced by contract and by the nxstate protocol).
     */
    void configure(const SessionPolicy &policy) NXSIM_EXCLUDES(mu_);

    /** Compress @p input into a stream of the session's format. */
    [[nodiscard]] SessionResult compress(std::span<const uint8_t> input)
        NXSIM_EXCLUDES(mu_);

    /** Decompress a stream of the session's format. */
    [[nodiscard]] SessionResult decompress(
        std::span<const uint8_t> stream) NXSIM_EXCLUDES(mu_);

    /**
     * Close the session: further requests are a contract violation.
     * Drains the private JobServer when the session owns one; a
     * shared server is left running. Idempotent (the destructor
     * closes an open session).
     */
    void close() NXSIM_EXCLUDES(mu_) NXSIM_RELEASES(job_ticket);

    /** One consistent snapshot of the counters. */
    [[nodiscard]] SessionStats stats() const NXSIM_EXCLUDES(mu_);

    /**
     * The routing predicate, exported so tests can check the decision
     * against the policy without submitting: true when a request of
     * @p bytes input bytes goes to the accelerator.
     */
    [[nodiscard]] bool
    routesToAccelerator(uint64_t bytes) const
    {
        return !pol_.forceSoftware && bytes >= pol_.accelThresholdBytes;
    }

    const SessionPolicy &policy() const { return pol_; }

    /** The dispatch layer behind this session (shared or owned). */
    core::JobServer &server() { return *server_; }

  private:
    /** How the device leg ended; all but Answered fall back. */
    enum class DeviceOutcome
    {
        Answered,   ///< out holds the result: output or a BadData stream
        BusyExhausted,
        Closed,
        Faulted,
    };

    [[nodiscard]] SessionResult run(core::JobKind kind,
                                    std::span<const uint8_t> input)
        NXSIM_EXCLUDES(mu_);
    [[nodiscard]] DeviceOutcome deviceLeg(core::JobKind kind,
                                          std::span<const uint8_t> input,
                                          SessionResult *out)
        NXSIM_EXCLUDES(mu_);

    // Written by the constructor/configure() before the first request,
    // immutable afterwards (contract-enforced): read without mu_.
    SessionPolicy pol_;

    std::unique_ptr<core::JobServer> ownedServer_;
    core::JobServer *server_;   ///< owned or shared; never null

    mutable nx::Mutex mu_;
    bool closed_ NXSIM_GUARDED_BY(mu_) = false;
    bool used_ NXSIM_GUARDED_BY(mu_) = false;
    uint64_t requests_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t softwareRouted_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t accelRouted_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t fallbacks_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t busyExhausted_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t closedRejects_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t deviceFaults_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t bytesIn_ NXSIM_GUARDED_BY(mu_) = 0;
    uint64_t bytesOut_ NXSIM_GUARDED_BY(mu_) = 0;
};

} // namespace nx

#endif // NXSIM_CORE_SESSION_H
