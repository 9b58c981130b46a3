#include "core/session.h"

#include "e842/e842.h"
#include "util/checked.h"
#include "util/clock.h"
#include "util/contracts.h"

namespace nx {

using util::Clock;
using util::secondsSince;

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

Framing
deflateFraming(SessionFormat f)
{
    switch (f) {
      case SessionFormat::Gzip: return Framing::Gzip;
      case SessionFormat::Zlib: return Framing::Zlib;
      case SessionFormat::RawDeflate: return Framing::Raw;
      case SessionFormat::E842: break;   // no DEFLATE framing
    }
    return Framing::Raw;
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

Session::Session(const nx::NxConfig &cfg, const SessionPolicy &policy)
    : pol_(policy),
      ownedServer_(std::make_unique<core::JobServer>(cfg)),
      server_(ownedServer_.get())
{
}

Session::Session(core::JobServer &server, const SessionPolicy &policy)
    : pol_(policy), server_(&server)
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
    if (toAccel)
        dev = deviceLeg(kind, input, &res);

    if (!toAccel || dev != DeviceOutcome::Answered) {
        int submits = res.deviceSubmits;
        res = softwareLeg(pol_, kind, input);
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
          case DeviceOutcome::Answered:
          case DeviceOutcome::Faulted:
            break;   // deviceFaults_ counted per faulted completion
        }
        if (res.ok)
            bytesOut_ += res.data.size();
    }
    return res;
}

Session::DeviceOutcome
Session::deviceLeg(core::JobKind kind, std::span<const uint8_t> input,
                   SessionResult *out)
{
    NXSIM_EXPECT(pol_.faultRetries >= 0, "negative fault-retry budget");
    for (int attempt = 0; attempt <= pol_.faultRetries; ++attempt) {
        // The job's own copy of the caller's bytes, moved into the
        // FIFO on acceptance; a fault resubmission copies them again.
        core::JobSpec spec;
        spec.kind = kind;
        spec.codec = pol_.format == SessionFormat::E842
            ? core::Codec::E842 : core::Codec::Deflate;
        spec.framing = deflateFraming(pol_.format);
        spec.mode = pol_.mode;
        spec.maxOutput = pol_.maxOutputBytes;
        spec.payload.assign(input.begin(), input.end());
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
            return DeviceOutcome::Answered;
        }
        {
            nx::MutexLock lk(mu_);
            ++deviceFaults_;
        }
        const CondCode cc = job.result.csb.cc;
        // A stream the engine rejects is the stream's fault: the
        // software leg reads it through the same deflate::unwrap (or
        // e842::decompress) under the same cap, so it cannot answer
        // differently, and the device leg answers instead.
        if (kind == core::JobKind::Decompress && cc == CondCode::BadData) {
            out->backend = Backend::Accelerator;
            out->error = std::string("accelerator: ") + nx::toString(cc);
            out->seconds = job.result.seconds;
            return DeviceOutcome::Answered;
        }
        // The paper's protocol: translation faults are resubmitted
        // (software touches the page and re-pastes); anything else is
        // terminal for the device leg and falls back.
        if (cc != CondCode::TranslationFault)
            break;
    }
    return DeviceOutcome::Faulted;
}

SessionResult
softwareLeg(const SessionPolicy &policy, core::JobKind kind,
            std::span<const uint8_t> input)
{
    core::JobResult r;
    if (policy.format == SessionFormat::E842) {
        auto t0 = Clock::now();
        if (kind == core::JobKind::Compress) {
            r.data = e842::compress(input).bytes;
        } else {
            auto d = e842::decompress(
                input, nx::checked_cast<size_t>(policy.maxOutputBytes));
            r.csb.cc = core::condCode(d.status);
            r.data = std::move(d.bytes);
        }
        r.seconds = secondsSince(t0);
    } else {
        core::SoftwareCodec codec(policy.level);
        r = kind == core::JobKind::Compress
            ? codec.compress(input, deflateFraming(policy.format))
            : codec.decompress(input, deflateFraming(policy.format),
                               policy.maxOutputBytes);
    }

    SessionResult out;
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
    core::JobServerStats js = server_->stats();
    s.serverBusyRejects = js.busyRejects;
    s.serverQueueDepthHighWater = js.queueDepthHighWater;
    s.serverWindowBusyRejects = std::move(js.windowBusyRejects);
    return s;
}

} // namespace nx
