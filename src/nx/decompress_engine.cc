#include "nx/decompress_engine.h"

#include "deflate/gzip_stream.h"
#include "deflate/inflate_decoder.h"
#include "deflate/zlib_stream.h"
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
        stats_.inc("bad_crbs");
        return job;
    }

    job.timing.dispatch = cfg_.dispatchCycles;
    job.timing.completion = cfg_.completionCycles;
    job.timing.dmaIn = dmaIn_.transferCycles(source.size());
    dmaIn_.recordTransfer(source.size());

    deflate::InflateResult inf;
    uint32_t checksum = 0;
    switch (crb.framing) {
      case Framing::Raw: {
        inf = deflate::inflateDecompress(source);
        if (inf.ok())
            checksum = util::crc32(inf.bytes);
        break;
      }
      case Framing::Gzip: {
        auto res = deflate::gzipUnwrap(source);
        if (!res.ok) {
            job.csb.cc = CondCode::BadData;
            job.csb.valid = true;
            stats_.inc("bad_data");
            return job;
        }
        inf = std::move(res.inflate);
        checksum = res.crc;
        break;
      }
      case Framing::Zlib: {
        auto res = deflate::zlibUnwrap(source);
        if (!res.ok) {
            job.csb.cc = CondCode::BadData;
            job.csb.valid = true;
            stats_.inc("bad_data");
            return job;
        }
        inf = std::move(res.inflate);
        checksum = res.adler;
        break;
      }
    }
    if (!inf.ok()) {
        job.csb.cc = CondCode::BadData;
        job.csb.valid = true;
        stats_.inc("bad_data");
        return job;
    }

    if (inf.bytes.size() > crb.target.totalBytes()) {
        job.csb.cc = CondCode::OutputOverflow;
        job.csb.valid = true;
        stats_.inc("output_overflows");
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
    dmaOut_.recordTransfer(inf.bytes.size());

    job.csb.cc = CondCode::Success;
    job.csb.valid = true;
    job.csb.processedBytes = source.size();
    job.csb.producedBytes = inf.bytes.size();
    job.csb.checksum = checksum;
    job.output = std::move(inf.bytes);

    stats_.inc("jobs");
    stats_.inc("source_bytes", source.size());
    stats_.inc("output_bytes", job.output.size());
    stats_.inc("cycles", job.timing.total());
    return job;
}

} // namespace nx
