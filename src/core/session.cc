#include "core/session.h"

#include <chrono>

#include "e842/e842.h"
#include "util/checked.h"
#include "util/contracts.h"

namespace nx {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CRB framing for the deflate-family session formats. */
Framing
framingOf(SessionFormat f)
{
    switch (f) {
      case SessionFormat::Gzip: return Framing::Gzip;
      case SessionFormat::Zlib: return Framing::Zlib;
      case SessionFormat::RawDeflate: return Framing::Raw;
      case SessionFormat::E842: break;   // no DEFLATE framing
    }
    return Framing::Raw;
}

} // namespace

const char *
toString(SessionFormat f)
{
    switch (f) {
      case SessionFormat::Gzip: return "gzip";
      case SessionFormat::Zlib: return "zlib";
      case SessionFormat::RawDeflate: return "raw-deflate";
      case SessionFormat::E842: return "842";
    }
    return "?";
}

const char *
toString(Backend b)
{
    switch (b) {
      case Backend::Software: return "software";
      case Backend::Accelerator: return "accelerator";
    }
    return "?";
}

Session::Session(const nx::NxConfig &cfg, const SessionPolicy &policy,
                 const BufferPoolConfig &pool)
    : pol_(policy),
      ownedServer_(std::make_unique<core::JobServer>(cfg)),
      server_(ownedServer_.get()), pool_(pool)
{
}

Session::Session(core::JobServer &server, const SessionPolicy &policy,
                 const BufferPoolConfig &pool)
    : pol_(policy), server_(&server), pool_(pool)
{
}

Session::~Session()
{
    close();
}

void
Session::configure(const SessionPolicy &policy)
{
    nx::MutexLock lk(mu_);
    NXSIM_EXPECT(!used_, "configure() after the first request");
    NXSIM_EXPECT(!closed_, "configure() on a closed session");
    pol_ = policy;
}

SessionResult
Session::compress(std::span<const uint8_t> input)
{
    return run(core::JobKind::Compress, input);
}

SessionResult
Session::decompress(std::span<const uint8_t> stream)
{
    return run(core::JobKind::Decompress, stream);
}

void
Session::close()
{
    {
        nx::MutexLock lk(mu_);
        if (closed_)
            return;
        closed_ = true;
    }
    if (ownedServer_)
        ownedServer_->drainAndStop();
}

SessionResult
Session::run(core::JobKind kind, std::span<const uint8_t> input)
{
    {
        nx::MutexLock lk(mu_);
        NXSIM_EXPECT(!closed_, "request on a closed session");
        used_ = true;
        ++requests_;
        bytesIn_ += input.size();
    }

    const bool toAccel = routesToAccelerator(input.size());
    SessionResult res;
    DeviceOutcome dev = DeviceOutcome::Faulted;
    if (toAccel) {
        // Stage the request into the pinned pool — the copy a
        // production stack pays so the DMA engine sees page-aligned,
        // never-paged memory — then paste from the staged bytes.
        auto lease = pool_.acquire(input.size());
        nx::copyBytes(lease.data(), input.data(), input.size());
        dev = deviceLeg(kind, lease.prefix(input.size()), &res);
    }

    if (!toAccel || dev != DeviceOutcome::Completed) {
        int submits = res.deviceSubmits;
        res = softwareLeg(kind, input);
        res.deviceSubmits = submits;
        res.fellBack = toAccel;
    }
    res.inputBytes = input.size();

    {
        nx::MutexLock lk(mu_);
        if (toAccel)
            ++accelRouted_;
        else
            ++softwareRouted_;
        if (res.fellBack)
            ++fallbacks_;
        switch (dev) {
          case DeviceOutcome::BusyExhausted: ++busyExhausted_; break;
          case DeviceOutcome::Closed: ++closedRejects_; break;
          case DeviceOutcome::Completed:
          case DeviceOutcome::Faulted:
            break;   // deviceFaults_ counted per faulted completion
        }
        if (res.ok)
            bytesOut_ += res.data.size();
    }
    return res;
}

Session::DeviceOutcome
Session::deviceLeg(core::JobKind kind, std::span<const uint8_t> staged,
                   SessionResult *out)
{
    NXSIM_EXPECT(pol_.faultRetries >= 0, "negative fault-retry budget");
    for (int attempt = 0; attempt <= pol_.faultRetries; ++attempt) {
        // The job's own copy of the staged bytes, moved into the FIFO
        // on acceptance; a fault resubmission copies the lease again.
        core::JobSpec spec;
        spec.kind = kind;
        spec.codec = pol_.format == SessionFormat::E842
            ? core::Codec::E842 : core::Codec::Deflate;
        spec.framing = framingOf(pol_.format);
        spec.mode = pol_.mode;
        spec.maxOutput = pol_.maxOutputBytes;
        spec.payload.assign(staged.begin(), staged.end());
        auto sub = server_->submitWithRetry(std::move(spec), pol_.window,
                                            pol_.backoff);
        if (sub.status == PasteStatus::Busy)
            return DeviceOutcome::BusyExhausted;
        if (sub.status == PasteStatus::Closed)
            return DeviceOutcome::Closed;
        ++out->deviceSubmits;
        core::AsyncJob job = server_->wait(sub.ticket);
        if (job.result.ok()) {
            out->ok = true;
            out->backend = Backend::Accelerator;
            out->data = std::move(job.result.data);
            out->seconds = job.result.seconds;
            return DeviceOutcome::Completed;
        }
        {
            nx::MutexLock lk(mu_);
            ++deviceFaults_;
        }
        // The paper's protocol: translation faults are resubmitted
        // (software touches the page and re-pastes); anything else is
        // terminal for the device leg — retrying BadData cannot help.
        if (job.result.csb.cc != CondCode::TranslationFault)
            break;
    }
    return DeviceOutcome::Faulted;
}

SessionResult
Session::softwareLeg(core::JobKind kind,
                     std::span<const uint8_t> input) const
{
    SessionResult out;
    out.backend = Backend::Software;
    if (pol_.format == SessionFormat::E842) {
        auto t0 = Clock::now();
        if (kind == core::JobKind::Compress) {
            auto r = e842::compress(input);
            out.ok = true;
            out.data = std::move(r.bytes);
        } else {
            auto r = e842::decompress(
                input, nx::checked_cast<size_t>(pol_.maxOutputBytes));
            out.ok = r.ok;
            if (r.ok)
                out.data = std::move(r.bytes);
            else
                out.error = r.error;
        }
        out.seconds = secondsSince(t0);
        return out;
    }

    core::SoftwareCodec codec(pol_.level);
    core::JobResult r = kind == core::JobKind::Compress
        ? codec.compress(input, framingOf(pol_.format))
        : codec.decompress(input, framingOf(pol_.format),
                           pol_.maxOutputBytes);
    out.ok = r.ok();
    out.seconds = r.seconds;
    if (r.ok())
        out.data = std::move(r.data);
    else
        out.error = std::string("software codec: ") +
            nx::toString(r.csb.cc);
    return out;
}

SessionStats
Session::stats() const
{
    SessionStats s;
    {
        nx::MutexLock lk(mu_);
        s.requests = requests_;
        s.softwareRouted = softwareRouted_;
        s.accelRouted = accelRouted_;
        s.fallbacks = fallbacks_;
        s.busyExhausted = busyExhausted_;
        s.closedRejects = closedRejects_;
        s.deviceFaults = deviceFaults_;
        s.bytesIn = bytesIn_;
        s.bytesOut = bytesOut_;
    }
    s.pool = pool_.stats();
    core::JobServerStats js = server_->stats();
    s.serverBusyRejects = js.busyRejects;
    s.serverQueueDepthHighWater = js.queueDepthHighWater;
    s.serverWindowBusyRejects = std::move(js.windowBusyRejects);
    return s;
}

} // namespace nx
