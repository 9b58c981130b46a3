#include "core/device.h"

#include <algorithm>

#include "deflate/deflate_encoder.h"
#include "deflate/framing.h"
#include "util/checked.h"
#include "util/clock.h"

namespace core {

NxDevice::NxDevice(const nx::NxConfig &cfg)
    : cfg_(cfg), comp_(cfg), decomp_(cfg)
{
}

nx::FuncCode
compressFunc(Mode mode, uint64_t source_bytes)
{
    const bool fht = mode == Mode::Fht ||
        (mode == Mode::Auto && source_bytes < NxDevice::autoFhtThreshold());
    return fht ? nx::FuncCode::CompressFht : nx::FuncCode::CompressDht;
}

nx::CondCode
condCode(e842::DecodeStatus s)
{
    if (s == e842::DecodeStatus::Ok)
        return nx::CondCode::Success;
    return s == e842::DecodeStatus::OutputLimit
        ? nx::CondCode::OutputOverflow : nx::CondCode::BadData;
}

JobResult
runCompressJob(nx::CompressEngine &eng, const nx::NxConfig &cfg,
               std::span<const uint8_t> source, nx::Framing framing,
               Mode mode, uint64_t seq)
{
    auto res = eng.run(nx::compressCrb(compressFunc(mode, source.size()),
                                       framing, source.size(), seq),
                       source,
                       mode == Mode::DhtTwoPass ? nx::DhtMode::TwoPass
                                                : nx::DhtMode::Sampled);

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

using util::Clock;
using util::secondsSince;

JobResult
SoftwareCodec::compress(std::span<const uint8_t> source,
                        nx::Framing framing)
{
    JobResult out;
    auto t0 = Clock::now();
    deflate::DeflateOptions opts;
    opts.level = level_;
    auto framed = deflate::wrap(framing,
                                deflate::deflateCompress(source, opts).bytes,
                                source, level_);
    out.seconds = secondsSince(t0);
    out.csb.cc = nx::CondCode::Success;
    out.csb.processedBytes = source.size();
    out.csb.producedBytes = framed.bytes.size();
    out.csb.checksum = framed.checksum;
    out.data = std::move(framed.bytes);
    return out;
}

JobResult
SoftwareCodec::decompress(std::span<const uint8_t> stream,
                          nx::Framing framing, uint64_t max_output)
{
    JobResult out;
    auto t0 = Clock::now();
    auto res = deflate::unwrap(framing, stream,
                               nx::checked_cast<size_t>(max_output));
    out.csb.cc = nx::condCode(res);
    if (!res.ok)
        return out;
    out.seconds = secondsSince(t0);
    out.csb.processedBytes = stream.size();
    out.csb.producedBytes = res.inflate.bytes.size();
    out.csb.checksum = res.checksum;
    out.data = std::move(res.inflate.bytes);
    return out;
}

} // namespace core
