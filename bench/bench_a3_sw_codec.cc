/**
 * @file
 * A3 [ablation] — Software baseline microbenchmarks (google-benchmark).
 *
 * Validates that our zlib-equivalent baseline has zlib's *shape*:
 * throughput falls and ratio rises with level; lazy matching costs
 * time and buys ratio; inflate is several times faster than deflate.
 * These are the properties E1/E2's speedup math depends on.
 *
 * The per-record cases time one call on a 256 B, 1 KiB or 4 KiB text
 * record, the sizes Session sends to the software codec (below its
 * 4 KiB crossover), where fixed per-call cost (scratch set-up, block
 * headers, decode-table builds) outweighs per-byte cost. The checksum
 * kernels give CRC-32 and Adler-32 their own throughput figures.
 */

#include <benchmark/benchmark.h>

#include "deflate/deflate_encoder.h"
#include "deflate/inflate_decoder.h"
#include "deflate/inflate_stream.h"
#include "util/adler32.h"
#include "util/crc32.h"
#include "workloads/corpus.h"

namespace {

const std::vector<uint8_t> &
sample()
{
    static const auto data = workloads::makeMixed(2 << 20, 9901);
    return data;
}

void
BM_DeflateLevel(benchmark::State &state)
{
    deflate::DeflateOptions opts;
    opts.level = static_cast<int>(state.range(0));
    size_t out = 0;
    for (auto _ : state) {
        auto res = deflate::deflateCompress(sample(), opts);
        out = res.bytes.size();
        benchmark::DoNotOptimize(res.bytes.data());
    }
    state.SetBytesProcessed(
        state.iterations() * static_cast<int64_t>(sample().size()));
    state.counters["ratio"] = static_cast<double>(sample().size()) /
        static_cast<double>(out);
}
BENCHMARK(BM_DeflateLevel)->DenseRange(1, 9, 2)
    ->Unit(benchmark::kMillisecond);

void
BM_Inflate(benchmark::State &state)
{
    deflate::DeflateOptions opts;
    opts.level = static_cast<int>(state.range(0));
    auto stream = deflate::deflateCompress(sample(), opts).bytes;
    for (auto _ : state) {
        auto res = deflate::inflateDecompress(stream);
        benchmark::DoNotOptimize(res.bytes.data());
    }
    state.SetBytesProcessed(
        state.iterations() * static_cast<int64_t>(sample().size()));
}
BENCHMARK(BM_Inflate)->Arg(1)->Arg(6)->Unit(benchmark::kMillisecond);

void
BM_InflateStream(benchmark::State &state)
{
    // The BM_Inflate stream fed in 4 KiB chunks, as a DMA engine or a
    // socket delivers it.
    constexpr size_t kChunk = 4096;
    deflate::DeflateOptions opts;
    opts.level = static_cast<int>(state.range(0));
    auto stream = deflate::deflateCompress(sample(), opts).bytes;
    std::span<const uint8_t> in(stream);
    for (auto _ : state) {
        deflate::InflateStream is;
        std::vector<uint8_t> out;
        for (size_t off = 0; off < in.size(); off += kChunk) {
            auto chunk = in.subspan(off, std::min(kChunk, in.size() - off));
            if (is.feed(chunk, out) == deflate::StreamStatus::Error)
                state.SkipWithError("inflate failed");
        }
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        state.iterations() * static_cast<int64_t>(sample().size()));
}
BENCHMARK(BM_InflateStream)->Arg(1)->Arg(6)->Unit(benchmark::kMillisecond);

void
BM_Lz77Only(benchmark::State &state)
{
    deflate::Lz77Matcher matcher(
        deflate::levelParams(static_cast<int>(state.range(0))));
    for (auto _ : state) {
        auto tokens = matcher.tokenize(sample());
        benchmark::DoNotOptimize(tokens.data());
    }
    state.SetBytesProcessed(
        state.iterations() * static_cast<int64_t>(sample().size()));
}
BENCHMARK(BM_Lz77Only)->Arg(1)->Arg(6)->Arg(9)
    ->Unit(benchmark::kMillisecond);

void
BM_HuffmanOnly(benchmark::State &state)
{
    // Entropy-coding cost in isolation: tokens precomputed.
    deflate::Lz77Matcher matcher(deflate::levelParams(6));
    auto tokens = matcher.tokenize(sample());
    deflate::SymbolFreqs freqs;
    freqs.accumulate(tokens);
    for (auto _ : state) {
        auto codes = deflate::buildDynamicCodes(freqs);
        util::BitWriter bw;
        deflate::writeDynamicHeader(bw, codes);
        deflate::emitTokens(bw, tokens, codes.litlen, codes.dist);
        auto bytes = bw.take();
        benchmark::DoNotOptimize(bytes.data());
    }
    state.SetBytesProcessed(
        state.iterations() * static_cast<int64_t>(sample().size()));
}
BENCHMARK(BM_HuffmanOnly)->Unit(benchmark::kMillisecond);

std::vector<uint8_t>
record(const benchmark::State &state)
{
    return workloads::makeText(static_cast<size_t>(state.range(0)), 9902);
}

void
BM_DeflateRecord(benchmark::State &state)
{
    auto rec = record(state);
    deflate::DeflateOptions opts;
    opts.level = 6;
    for (auto _ : state) {
        auto res = deflate::deflateCompress(rec, opts);
        benchmark::DoNotOptimize(res.bytes.data());
    }
    state.SetBytesProcessed(
        state.iterations() * static_cast<int64_t>(rec.size()));
}
BENCHMARK(BM_DeflateRecord)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void
BM_InflateRecord(benchmark::State &state)
{
    auto rec = record(state);
    auto stream = deflate::deflateCompress(rec).bytes;
    uint64_t dynamic = 0;
    for (auto _ : state) {
        auto res = deflate::inflateDecompress(stream);
        dynamic = res.stats.dynamicBlocks;
        benchmark::DoNotOptimize(res.bytes.data());
    }
    state.SetBytesProcessed(
        state.iterations() * static_cast<int64_t>(rec.size()));
    state.counters["dynamic_blocks"] = static_cast<double>(dynamic);
}
BENCHMARK(BM_InflateRecord)->Arg(256)->Arg(1024)->Arg(4096)->Arg(128 << 10)
    ->Unit(benchmark::kMicrosecond);

void
BM_Crc32(benchmark::State &state)
{
    auto data = record(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(util::crc32(data));
    state.SetBytesProcessed(
        state.iterations() * static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(1 << 20);

void
BM_Adler32(benchmark::State &state)
{
    auto data = record(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(util::adler32(data));
    state.SetBytesProcessed(
        state.iterations() * static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Adler32)->Arg(4096)->Arg(1 << 20);

} // namespace

BENCHMARK_MAIN();
