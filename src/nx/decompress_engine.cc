#include "nx/decompress_engine.h"

#include "deflate/gzip_stream.h"
#include "deflate/inflate_decoder.h"
#include "deflate/zlib_stream.h"
#include "util/checked.h"
#include "util/crc32.h"

namespace nx {

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
        job.csb.valid = true;
        return job;
    }

    job.timing.dispatch = cfg_.dispatchCycles;
    job.timing.completion = cfg_.completionCycles;
    job.timing.dmaIn = dmaIn_.transferCycles(source.size());

    // The target DDEs cap the inflate itself: a stream that does not
    // fit stops at the cap instead of being decoded in full first.
    const auto cap = nx::checked_cast<size_t>(crb.target.totalBytes());
    deflate::InflateResult inf;
    bool ok = false;
    uint32_t checksum = 0;
    switch (crb.framing) {
      case Framing::Raw:
        inf = deflate::inflateDecompress(source, cap);
        ok = inf.ok();
        if (ok)
            checksum = util::crc32(inf.bytes);
        break;
      case Framing::Gzip: {
        auto res = deflate::gzipUnwrap(source, cap);
        ok = res.ok;
        inf = std::move(res.inflate);
        checksum = res.crc;
        break;
      }
      case Framing::Zlib: {
        auto res = deflate::zlibUnwrap(source, cap);
        ok = res.ok;
        inf = std::move(res.inflate);
        checksum = res.adler;
        break;
      }
    }
    if (!ok) {
        job.csb.cc = inf.status == deflate::InflateStatus::OutputLimit
            ? CondCode::OutputOverflow : CondCode::BadData;
        job.csb.valid = true;
        return job;
    }

    // Timing from the decoded stream's statistics.
    const auto &st = inf.stats;
    job.timing.decode = sim::ceilDiv(st.symbols(),
        static_cast<uint64_t>(cfg_.decodeSymbolsPerCycle));
    job.timing.copyOut = sim::ceilDiv(inf.bytes.size(),
        static_cast<uint64_t>(cfg_.decompressBytesPerCycle));
    // Each dynamic block header serializes a table build in front of
    // its symbols; model a fixed cost per table (two tables per block).
    job.timing.tableLoads = (st.dynamicBlocks * 2) * 512;
    job.timing.dmaOut = dmaOut_.transferCycles(inf.bytes.size());

    job.csb.cc = CondCode::Success;
    job.csb.valid = true;
    job.csb.processedBytes = source.size();
    job.csb.producedBytes = inf.bytes.size();
    job.csb.checksum = checksum;
    job.output = std::move(inf.bytes);
    return job;
}

} // namespace nx
