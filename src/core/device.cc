#include "core/device.h"

#include <algorithm>
#include <chrono>

#include "deflate/deflate_encoder.h"
#include "deflate/gzip_stream.h"
#include "deflate/inflate_decoder.h"
#include "deflate/zlib_stream.h"
#include "util/crc32.h"
#include "util/checked.h"

namespace core {

NxDevice::NxDevice(const nx::NxConfig &cfg) : cfg_(cfg)
{
    int nc = cfg.compressEnginesPerUnit * cfg.unitsPerChip;
    int nd = cfg.decompressEnginesPerUnit * cfg.unitsPerChip;
    for (int i = 0; i < nc; ++i)
        comp_.push_back(std::make_unique<nx::CompressEngine>(cfg));
    for (int i = 0; i < nd; ++i)
        decomp_.push_back(std::make_unique<nx::DecompressEngine>(cfg));
}

JobResult
runCompressJob(nx::CompressEngine &eng, const nx::NxConfig &cfg,
               std::span<const uint8_t> source, nx::Framing framing,
               Mode mode, uint64_t seq)
{
    Mode effective = mode;
    if (mode == Mode::Auto) {
        effective = source.size() < NxDevice::autoFhtThreshold()
            ? Mode::Fht : Mode::DhtSampled;
    }

    nx::Crb crb;
    crb.func = effective == Mode::Fht
        ? nx::FuncCode::CompressFht : nx::FuncCode::CompressDht;
    crb.framing = framing;
    crb.source = nx::DdeList::direct(0x1000, nx::checked_cast<uint32_t>(
        source.size()));
    // Worst-case expansion: FHT emits 9-bit codes for literals
    // 144-255, so incompressible data can grow by up to 12.5 %
    // (plus framing). Stored-block fallback does not exist in FHT
    // mode, so the target must cover the full bound.
    crb.target = nx::DdeList::direct(0x2000000, nx::checked_cast<uint32_t>(
        source.size() + source.size() / 7 + 1024));
    crb.seq = seq;

    nx::DhtMode dmode = effective == Mode::DhtTwoPass
        ? nx::DhtMode::TwoPass : nx::DhtMode::Sampled;

    auto res = eng.run(crb, source, dmode);

    JobResult out;
    out.csb = res.csb;
    out.data = std::move(res.output);
    out.engineCycles = res.timing.total();
    out.seconds = cfg.clock.toSeconds(out.engineCycles);
    return out;
}

JobResult
runDecompressJob(nx::DecompressEngine &eng, const nx::NxConfig &cfg,
                 std::span<const uint8_t> stream, nx::Framing framing,
                 uint64_t max_output, uint64_t seq)
{
    nx::Crb crb;
    crb.func = nx::FuncCode::Decompress;
    crb.framing = framing;
    crb.source = nx::DdeList::direct(0x1000, nx::checked_cast<uint32_t>(
        stream.size()));
    crb.target = nx::DdeList::direct(0x2000000, nx::checked_cast<uint32_t>(
        max_output));
    crb.seq = seq;

    auto res = eng.run(crb, stream);

    JobResult out;
    out.csb = res.csb;
    out.data = std::move(res.output);
    out.engineCycles = res.timing.total();
    out.seconds = cfg.clock.toSeconds(out.engineCycles);
    return out;
}

JobResult
NxDevice::compress(std::span<const uint8_t> source, nx::Framing framing,
                   Mode mode)
{
    auto &eng = *comp_[nextComp_];
    nextComp_ = (nextComp_ + 1) % comp_.size();
    return runCompressJob(eng, cfg_, source, framing, mode, seq_++);
}

JobResult
NxDevice::decompress(std::span<const uint8_t> stream, nx::Framing framing,
                     uint64_t max_output)
{
    auto &eng = *decomp_[nextDecomp_];
    nextDecomp_ = (nextDecomp_ + 1) % decomp_.size();
    return runDecompressJob(eng, cfg_, stream, framing, max_output,
                            seq_++);
}

JobResult
NxDevice::compressLarge(std::span<const uint8_t> source,
                        size_t chunk_bytes, Mode mode)
{
    JobResult out;
    out.csb.cc = nx::CondCode::Success;
    out.csb.valid = true;

    std::vector<sim::Tick> engineBusy(comp_.size(), 0);
    size_t next = 0;
    size_t off = 0;
    do {
        size_t n = std::min(chunk_bytes, source.size() - off);
        auto job = compress(source.subspan(off, n),
                            nx::Framing::Gzip, mode);
        if (!job.ok()) {
            out.csb.cc = job.csb.cc;
            out.data.clear();
            return out;
        }
        out.data.insert(out.data.end(), job.data.begin(),
                        job.data.end());
        engineBusy[next] += job.engineCycles;
        next = (next + 1) % engineBusy.size();
        off += n;
    } while (off < source.size());

    out.csb.processedBytes = source.size();
    out.csb.producedBytes = out.data.size();
    out.engineCycles = *std::max_element(engineBusy.begin(),
                                         engineBusy.end());
    out.seconds = cfg_.clock.toSeconds(out.engineCycles);
    return out;
}

JobResult
NxDevice::decompressLarge(std::span<const uint8_t> file,
                          uint64_t max_output)
{
    JobResult out;
    out.csb.valid = true;

    std::vector<sim::Tick> engineBusy(decomp_.size(), 0);
    size_t next = 0;
    size_t off = 0;
    uint64_t produced = 0;
    while (off < file.size()) {
        // Each member is one decompress CRB on the next engine.
        auto member = deflate::gzipUnwrap(file.subspan(off));
        if (!member.ok) {
            out.csb.cc = nx::CondCode::BadData;
            out.data.clear();
            return out;
        }
        auto job = decompress(file.subspan(off, member.memberBytes),
                              nx::Framing::Gzip,
                              max_output - produced);
        if (!job.ok()) {
            out.csb.cc = job.csb.cc;
            out.data.clear();
            return out;
        }
        out.data.insert(out.data.end(), job.data.begin(),
                        job.data.end());
        produced += job.data.size();
        engineBusy[next] += job.engineCycles;
        next = (next + 1) % engineBusy.size();
        off += member.memberBytes;
    }

    out.csb.cc = nx::CondCode::Success;
    out.csb.processedBytes = file.size();
    out.csb.producedBytes = out.data.size();
    out.engineCycles = engineBusy.empty() ? 0
        : *std::max_element(engineBusy.begin(), engineBusy.end());
    out.seconds = cfg_.clock.toSeconds(out.engineCycles);
    return out;
}

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

JobResult
SoftwareCodec::compress(std::span<const uint8_t> source,
                        nx::Framing framing)
{
    JobResult out;
    auto t0 = Clock::now();
    deflate::DeflateOptions opts;
    opts.level = level_;
    auto res = deflate::deflateCompress(source, opts);
    switch (framing) {
      case nx::Framing::Raw:
        out.data = std::move(res.bytes);
        out.csb.checksum = util::crc32(source);
        break;
      case nx::Framing::Gzip:
        out.data = deflate::gzipWrap(res.bytes, source);
        out.csb.checksum = deflate::gzipTrailerCrc(out.data);
        break;
      case nx::Framing::Zlib:
        out.data = deflate::zlibWrap(res.bytes, source, level_);
        out.csb.checksum = deflate::zlibTrailerAdler(out.data);
        break;
    }
    out.seconds = secondsSince(t0);
    out.csb.cc = nx::CondCode::Success;
    out.csb.valid = true;
    out.csb.processedBytes = source.size();
    out.csb.producedBytes = out.data.size();
    return out;
}

JobResult
SoftwareCodec::decompress(std::span<const uint8_t> stream,
                          nx::Framing framing)
{
    JobResult out;
    auto t0 = Clock::now();
    deflate::InflateResult inf;
    switch (framing) {
      case nx::Framing::Raw:
        inf = deflate::inflateDecompress(stream);
        break;
      case nx::Framing::Gzip: {
        auto res = deflate::gzipUnwrap(stream);
        if (!res.ok) {
            out.csb.cc = nx::CondCode::BadData;
            out.csb.valid = true;
            return out;
        }
        inf = std::move(res.inflate);
        break;
      }
      case nx::Framing::Zlib: {
        auto res = deflate::zlibUnwrap(stream);
        if (!res.ok) {
            out.csb.cc = nx::CondCode::BadData;
            out.csb.valid = true;
            return out;
        }
        inf = std::move(res.inflate);
        break;
      }
    }
    if (!inf.ok()) {
        out.csb.cc = nx::CondCode::BadData;
        out.csb.valid = true;
        return out;
    }
    out.seconds = secondsSince(t0);
    out.csb.cc = nx::CondCode::Success;
    out.csb.valid = true;
    out.csb.processedBytes = stream.size();
    out.csb.producedBytes = inf.bytes.size();
    out.data = std::move(inf.bytes);
    return out;
}

} // namespace core
