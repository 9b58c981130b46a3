#include "nx/decompress_engine.h"

#include "deflate/framing.h"
#include "util/checked.h"

namespace nx {

CondCode
condCode(const deflate::UnwrapResult &res)
{
    if (res.ok)
        return CondCode::Success;
    return res.inflate.status == deflate::InflateStatus::OutputLimit
        ? CondCode::OutputOverflow : CondCode::BadData;
}

DecompressEngine::DecompressEngine(const NxConfig &cfg)
    : cfg_(cfg), dmaIn_(cfg.dmaIn), dmaOut_(cfg.dmaOut)
{
}

DecompressJobResult
DecompressEngine::run(const Crb &crb, std::span<const uint8_t> source)
{
    DecompressJobResult job;

    CondCode cc = validateCrb(crb);
    if (cc != CondCode::Success || crb.func != FuncCode::Decompress) {
        job.csb.cc = cc != CondCode::Success ? cc : CondCode::BadCrb;
        return job;
    }

    job.timing.dispatch = cfg_.dispatchCycles;
    job.timing.completion = cfg_.completionCycles;
    job.timing.dmaIn = dmaIn_.transferCycles(source.size());

    // The target DDEs cap the inflate itself: a stream that does not
    // fit stops at the cap instead of being decoded in full first.
    const auto cap = nx::checked_cast<size_t>(crb.target.totalBytes());
    auto res = deflate::unwrap(crb.framing, source, cap);
    job.csb.cc = condCode(res);
    if (!res.ok)
        return job;

    // Timing from the decoded stream's statistics.
    const auto &st = res.inflate.stats;
    const uint64_t produced = res.inflate.bytes.size();
    job.timing.decode = sim::ceilDiv(st.symbols(),
        static_cast<uint64_t>(cfg_.decodeSymbolsPerCycle));
    job.timing.copyOut = sim::ceilDiv(produced,
        static_cast<uint64_t>(cfg_.decompressBytesPerCycle));
    // Each dynamic block header serializes a table build in front of
    // its symbols; model a fixed cost per table (two tables per block).
    job.timing.tableLoads = (st.dynamicBlocks * 2) * 512;
    job.timing.dmaOut = dmaOut_.transferCycles(produced);

    job.csb.processedBytes = source.size();
    job.csb.producedBytes = produced;
    job.csb.checksum = res.checksum;
    job.output = std::move(res.inflate.bytes);
    return job;
}

} // namespace nx
