#include "e842/e842_engine.h"

namespace e842 {

E842Job
E842Engine::compressJob(std::span<const uint8_t> input) const
{
    E842Job job;
    auto res = compress(input);
    job.stats = res.stats;
    job.cycles = streamCycles(input.size(), res.bytes.size());
    job.seconds = kClock.toSeconds(job.cycles);
    job.output = std::move(res.bytes);
    job.ok = true;
    return job;
}

E842Job
E842Engine::decompressJob(std::span<const uint8_t> stream,
                          size_t max_output) const
{
    E842Job job;
    auto res = decompress(stream, max_output);
    if (!res.ok)
        return job;
    job.cycles = streamCycles(res.bytes.size(), stream.size());
    job.seconds = kClock.toSeconds(job.cycles);
    job.output = std::move(res.bytes);
    job.ok = true;
    return job;
}

} // namespace e842
