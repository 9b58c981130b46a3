#include "core/job_server.h"

#include <algorithm>

#include "util/checked.h"
#include "util/contracts.h"

namespace core {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Run one 842 job on @p eng, shaped like the DEFLATE JobResult. */
JobResult
runE842Job(const e842::E842Engine &eng, const JobSpec &spec)
{
    e842::E842Job job = spec.kind == JobKind::Compress
        ? eng.compressJob(spec.payload)
        : eng.decompressJob(spec.payload,
                            nx::checked_cast<size_t>(spec.maxOutput));
    JobResult out;
    out.csb.valid = true;
    out.csb.cc = job.ok ? nx::CondCode::Success : nx::CondCode::BadData;
    out.csb.processedBytes = spec.payload.size();
    out.csb.producedBytes = job.output.size();
    out.data = std::move(job.output);
    out.engineCycles = job.cycles;
    out.seconds = job.seconds;
    return out;
}

/** A CSB-failure completion for an injected device fault. */
JobResult
faultedResult(nx::CondCode cc)
{
    JobResult out;
    out.csb.valid = true;
    out.csb.cc = cc;
    return out;
}

} // namespace

JobServer::JobServer(const nx::NxConfig &cfg, const JobServerConfig &jcfg)
    : cfg_(cfg), jcfg_(jcfg)
{
    NXSIM_EXPECT(jcfg_.windows > 0, "job server needs >= 1 window");
    int workers = jcfg_.workers;
    if (workers <= 0) {
        workers = std::max(cfg.compressEnginesPerUnit,
                           cfg.decompressEnginesPerUnit) *
            cfg.unitsPerChip;
        workers = std::max(workers, 1);
    }
    jcfg_.workers = workers;

    size_t nw = nx::checked_cast<size_t>(workers);
    comp_.reserve(nw);
    decomp_.reserve(nw);
    e842_.reserve(nw);
    for (size_t i = 0; i < nw; ++i) {
        comp_.push_back(std::make_unique<nx::CompressEngine>(cfg_));
        decomp_.push_back(std::make_unique<nx::DecompressEngine>(cfg_));
        e842_.push_back(std::make_unique<e842::E842Engine>(jcfg_.e842));
    }
    workerCycles_.assign(nw, 0);
    fifo_.resize(nx::checked_cast<size_t>(jcfg_.windows));
    windowPastes_.assign(fifo_.size(), 0);
    windowBusyRejects_.assign(fifo_.size(), 0);
    paused_ = jcfg_.startPaused;

    workers_.reserve(nw);
    for (int w = 0; w < workers; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

JobServer::~JobServer()
{
    drainAndStop();
}

SubmitResult
JobServer::submitAsync(JobSpec spec, int window)
{
    return paste(spec, window);
}

SubmitResult
JobServer::paste(JobSpec &spec, int window)
{
    SubmitResult out;
    {
        nx::MutexLock lk(mu_);
        NXSIM_EXPECT(window >= 0 && window < jcfg_.windows,
                     "paste into a window that does not exist");
        if (draining_ || stopping_) {
            out.status = nx::PasteStatus::Closed;
            return out;
        }
        size_t w = nx::checked_cast<size_t>(window);
        if (jcfg_.window.bounded() &&
            fifo_[w].size() >=
                nx::checked_cast<size_t>(jcfg_.window.fifoDepth)) {
            ++busyRejects_;
            ++windowBusyRejects_[w];
            out.status = nx::PasteStatus::Busy;
            return out;
        }
        Pending p;
        p.ticket = nextTicket_++;
        p.window = window;
        p.windowSeq = windowPastes_[w]++;
        p.spec = std::move(spec);    // accepted: the payload moves in
        p.pasteTime = Clock::now();
        slots_.emplace(p.ticket, Slot{});
        fifo_[w].push_back(std::move(p));
        ++queuedTotal_;
        ++accepted_;
        queueDepth_.add(static_cast<double>(queuedTotal_));
        queueHighWater_ = std::max<uint64_t>(queueHighWater_, queuedTotal_);
        out.status = nx::PasteStatus::Accepted;
        out.ticket = nextTicket_ - 1;
    }
    workCv_.notifyOne();
    return out;
}

SubmitResult
JobServer::submitWithRetry(JobSpec spec, int window,
                           const BackoffPolicy &policy)
{
    NXSIM_EXPECT(policy.maxAttempts > 0, "retry policy needs >= 1 attempt");
    auto delay = policy.initialDelay;
    SubmitResult res;
    for (int attempt = 1; attempt <= policy.maxAttempts; ++attempt) {
        res = paste(spec, window);
        res.attempts = attempt;
        if (res.status != nx::PasteStatus::Busy)
            return res;
        if (attempt == policy.maxAttempts)
            break;
        std::this_thread::sleep_for(delay);
        delay = std::min(delay * 2, policy.maxDelay);
    }
    {
        // The give-up is the event routing layers act on (software
        // fallback); count it here so they need not re-derive it.
        nx::MutexLock lk(mu_);
        ++busyExhausted_;
    }
    return res;    // still Busy after maxAttempts
}

void
JobServer::workerLoop(int w)
{
    size_t wi = nx::checked_cast<size_t>(w);
    for (;;) {
        Pending p;
        uint64_t dispatch = 0;
        uint64_t crbSeq = 0;
        {
            nx::MutexLock lk(mu_);
            // Explicit predicate loop: the guarded reads stay in this
            // function, where the analysis can see the lock is held.
            while (!stopping_ && (paused_ || queuedTotal_ == 0))
                workCv_.wait(mu_);
            if (queuedTotal_ == 0)
                return;    // stopping_ and nothing left to run
            // Round-robin window scan so no window starves.
            size_t nw = fifo_.size();
            size_t picked = nw;
            for (size_t k = 0; k < nw; ++k) {
                size_t idx = (rrWindow_ + k) % nw;
                if (!fifo_[idx].empty()) {
                    picked = idx;
                    break;
                }
            }
            NXSIM_ASSERT(picked < nw, "queuedTotal_ out of sync");
            p = std::move(fifo_[picked].front());
            fifo_[picked].pop_front();
            rrWindow_ = (picked + 1) % nw;
            --queuedTotal_;
            ++inFlight_;
            dispatch = dispatchSeq_++;
            crbSeq = crbSeq_++;
        }

        // The fault hook models engine-reported failures (translation
        // fault, DDE overflow): the job completes with a failure CSB
        // and no output, and the requester decides what to do — which
        // is exactly the contract real faults arrive under.
        JobResult r;
        bool injected = false;
        nx::CondCode injectedCc = nx::CondCode::TranslationFault;
        if (jcfg_.faultInjector != nullptr &&
            jcfg_.faultInjector->shouldFail(&injectedCc)) {
            r = faultedResult(injectedCc);
            injected = true;
        } else if (p.spec.codec == Codec::E842) {
            r = runE842Job(*e842_[wi], p.spec);
        } else {
            r = p.spec.kind == JobKind::Compress
                ? runCompressJob(*comp_[wi], cfg_, p.spec.payload,
                                 p.spec.framing, p.spec.mode, crbSeq)
                : runDecompressJob(*decomp_[wi], cfg_, p.spec.payload,
                                   p.spec.framing, p.spec.maxOutput,
                                   crbSeq);
        }

        waitLatency_.record(secondsSince(p.pasteTime));

        bool idle = false;
        {
            nx::MutexLock lk(mu_);
            workerCycles_[wi] += r.engineCycles;
            bytesIn_ += p.spec.payload.size();
            bytesOut_ += r.data.size();
            --inFlight_;
            ++completed_;
            if (!r.ok())
                ++jobFaults_;
            if (injected)
                ++faultsInjected_;

            auto it = slots_.find(p.ticket);
            NXSIM_ASSERT(it != slots_.end(), "completion without a slot");
            Slot &slot = it->second;
            slot.job.ticket = p.ticket;
            slot.job.window = p.window;
            slot.job.windowSeq = p.windowSeq;
            slot.job.dispatchSeq = dispatch;
            slot.job.result = std::move(r);
            slot.done = true;
            // Under mu_: the condition variable lives on the waiter's
            // stack and is gone once it has claimed the slot.
            if (slot.waiter != nullptr)
                slot.waiter->notifyOne();
            idle = completed_ == accepted_;
        }
        if (idle)
            idleCv_.notifyAll();
    }
}

JobServer::Slot &
JobServer::claimableLocked(Ticket t)
{
    auto it = slots_.find(t);
    NXSIM_EXPECT(it != slots_.end(), "ticket already claimed");
    NXSIM_EXPECT(it->second.waiter == nullptr && drainers_ == 0,
                 "ticket already being waited on");
    return it->second;
}

bool
JobServer::poll(Ticket t, AsyncJob *out)
{
    nx::MutexLock lk(mu_);
    NXSIM_EXPECT(t != 0 && t < nextTicket_, "poll of an unknown ticket");
    Slot &slot = claimableLocked(t);
    if (!slot.done)
        return false;
    if (out != nullptr)
        *out = std::move(slot.job);
    slots_.erase(t);
    return true;
}

AsyncJob
JobServer::wait(Ticket t)
{
    nx::MutexLock lk(mu_);
    NXSIM_EXPECT(t != 0 && t < nextTicket_, "wait on an unknown ticket");
    Slot &slot = claimableLocked(t);
    nx::CondVar completed;
    slot.waiter = &completed;
    while (!slot.done)
        completed.wait(mu_);
    AsyncJob out = std::move(slot.job);
    slots_.erase(t);
    return out;
}

std::vector<AsyncJob>
JobServer::drain()
{
    nx::MutexLock lk(mu_);
    for (const auto &kv : slots_)
        NXSIM_EXPECT(kv.second.waiter == nullptr,
                     "ticket already being waited on");
    ++drainers_;
    while (completed_ != accepted_)
        idleCv_.wait(mu_);
    --drainers_;
    std::vector<AsyncJob> out;
    out.reserve(slots_.size());
    for (auto &kv : slots_)
        out.push_back(std::move(kv.second.job));
    slots_.clear();
    return out;    // std::map iteration order: sorted by ticket
}

void
JobServer::drainAndStop()
{
    {
        nx::MutexLock lk(mu_);
        draining_ = true;
        if (paused_) {
            paused_ = false;    // gated engines must run to drain
            workCv_.notifyAll();
        }
        while (completed_ != accepted_)
            idleCv_.wait(mu_);
        stopping_ = true;
        if (joined_)
            return;
        joined_ = true;
    }
    workCv_.notifyAll();
    for (auto &t : workers_)
        if (t.joinable())
            t.join();
}

void
JobServer::resume()
{
    {
        nx::MutexLock lk(mu_);
        paused_ = false;
    }
    workCv_.notifyAll();
}

JobServerStats
JobServer::stats() const
{
    JobServerStats s;
    {
        nx::MutexLock lk(mu_);
        s.submitted = accepted_;
        s.completed = completed_;
        s.busyRejects = busyRejects_;
        s.busyExhausted = busyExhausted_;
        s.jobFaults = jobFaults_;
        s.faultsInjected = faultsInjected_;
        s.bytesIn = bytesIn_;
        s.bytesOut = bytesOut_;
        s.unclaimed = slots_.size();
        for (sim::Tick c : workerCycles_) {
            s.engineCyclesSum += c;
            s.engineCyclesMax = std::max(s.engineCyclesMax, c);
        }
        s.meanQueueDepth = queueDepth_.mean();
        s.queueDepthHighWater = queueHighWater_;
        s.windowBusyRejects = windowBusyRejects_;
    }
    s.wait = waitLatency_.snapshot();
    return s;
}

int
JobServer::workerCount() const
{
    return jcfg_.workers;
}

int
JobServer::windowCount() const
{
    return jcfg_.windows;
}

} // namespace core
