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

NxDevice::NxDevice(const nx::NxConfig &cfg)
    : cfg_(cfg), comp_(cfg), decomp_(cfg)
{
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
    // One direct DDE describes at most UINT32_MAX bytes. A larger cap
    // is clamped to it; an output past that overflows on the device
    // and is left to the caller's software leg.
    crb.target = nx::DdeList::direct(0x2000000, nx::checked_cast<uint32_t>(
        std::min<uint64_t>(max_output, UINT32_MAX)));
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
    return runCompressJob(comp_, cfg_, source, framing, mode, seq_++);
}

JobResult
NxDevice::decompress(std::span<const uint8_t> stream, nx::Framing framing,
                     uint64_t max_output)
{
    return runDecompressJob(decomp_, cfg_, stream, framing, max_output,
                            seq_++);
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
                          nx::Framing framing, uint64_t max_output)
{
    JobResult out;
    auto t0 = Clock::now();
    const auto cap = nx::checked_cast<size_t>(max_output);
    deflate::InflateResult inf;
    bool ok = false;
    switch (framing) {
      case nx::Framing::Raw:
        inf = deflate::inflateDecompress(stream, cap);
        ok = inf.ok();
        break;
      case nx::Framing::Gzip: {
        auto res = deflate::gzipUnwrap(stream, cap);
        ok = res.ok;
        inf = std::move(res.inflate);
        break;
      }
      case nx::Framing::Zlib: {
        auto res = deflate::zlibUnwrap(stream, cap);
        ok = res.ok;
        inf = std::move(res.inflate);
        break;
      }
    }
    out.csb.valid = true;
    if (!ok) {
        out.csb.cc = inf.status == deflate::InflateStatus::OutputLimit
            ? nx::CondCode::OutputOverflow : nx::CondCode::BadData;
        return out;
    }
    out.seconds = secondsSince(t0);
    out.csb.cc = nx::CondCode::Success;
    out.csb.processedBytes = stream.size();
    out.csb.producedBytes = inf.bytes.size();
    out.data = std::move(inf.bytes);
    return out;
}

} // namespace core
