#include "deflate/host_cal.h"

#include "deflate/deflate_encoder.h"
#include "deflate/inflate_decoder.h"
#include "util/clock.h"

namespace deflate {

using util::Clock;
using util::secondsSince;

SwCodecRates
measureSoftwareRates(std::span<const uint8_t> sample,
                     std::span<const int> levels, double min_seconds)
{
    SwCodecRates rates;
    std::vector<uint8_t> compressed6;

    for (int level : levels) {
        deflate::DeflateOptions opts;
        opts.level = level;
        uint64_t bytes = 0;
        int iters = 0;
        auto t0 = Clock::now();
        deflate::DeflateResult res;
        do {
            res = deflate::deflateCompress(sample, opts);
            bytes += sample.size();
            ++iters;
        } while (secondsSince(t0) < min_seconds);
        double secs = secondsSince(t0);
        rates.compressBps[level] = static_cast<double>(bytes) / secs;
        rates.ratio[level] = res.bytes.empty()
            ? 1.0
            : static_cast<double>(sample.size()) /
                static_cast<double>(res.bytes.size());
        if (level == 6 || compressed6.empty())
            compressed6 = std::move(res.bytes);
    }

    // Decompression rate over the last compressed stream.
    if (!compressed6.empty()) {
        uint64_t bytes = 0;
        auto t0 = Clock::now();
        do {
            auto out = deflate::inflateDecompress(compressed6);
            bytes += out.bytes.size();
        } while (secondsSince(t0) < min_seconds);
        double secs = secondsSince(t0);
        rates.decompressBps = static_cast<double>(bytes) / secs;
    }
    return rates;
}

} // namespace deflate
