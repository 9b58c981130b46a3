#include "nx/compress_engine.h"

#include <algorithm>

#include "deflate/deflate_encoder.h"
#include "deflate/framing.h"

namespace nx {

CompressEngine::CompressEngine(const NxConfig &cfg)
    : cfg_(cfg), matchPipe_(cfg), dhtGen_(cfg), huffman_(cfg),
      dmaIn_(cfg.dmaIn), dmaOut_(cfg.dmaOut)
{
}

CompressJobResult
CompressEngine::run(const Crb &crb, std::span<const uint8_t> source,
                    DhtMode dht_mode, uint64_t dht_sample_bytes)
{
    CompressJobResult job;

    CondCode cc = validateCrb(crb);
    if (cc != CondCode::Success || crb.func == FuncCode::Decompress) {
        job.csb.cc = cc != CondCode::Success ? cc : CondCode::BadCrb;
        return job;
    }

    job.timing.dispatch = cfg_.dispatchCycles;
    job.timing.completion = cfg_.completionCycles;
    job.timing.dmaIn = dmaIn_.transferCycles(source.size());

    EncodeResult enc;
    if (crb.func == FuncCode::Wrap) {
        // One level-0 block covering the input: the software encoder's
        // stored-block writer cuts it into 65,535-byte pieces.
        enc.bytes = deflate::deflateCompress(
            source, {.level = 0,
                     .blockBytes = std::max<size_t>(source.size(), 1)})
                        .bytes;
        // Stored blocks drain at the output DMA width, not the bit packer.
        enc.cycles = sim::ceilDiv(enc.bytes.size(),
            static_cast<uint64_t>(cfg_.compressBytesPerCycle));
        job.timing.match = sim::ceilDiv(source.size(),
            static_cast<uint64_t>(cfg_.compressBytesPerCycle));
    } else {
        job.matchInfo = matchPipe_.run(source);
        job.timing.match = job.matchInfo.cycles;

        if (crb.func == FuncCode::CompressDht) {
            DhtResult dht = dhtGen_.generate(job.matchInfo.tokens,
                source.size(), dht_mode, dht_sample_bytes);
            job.timing.dhtGen = dht.cycles;
            enc = huffman_.encodeDynamic(job.matchInfo.tokens,
                                         dht.codes);
        } else {
            enc = huffman_.encodeFixed(job.matchInfo.tokens);
        }
    }
    job.timing.encode = enc.cycles;

    // Framing + checksums, computed inline with the data pipe (no extra
    // cycles beyond the streaming floor already counted).
    auto framed = deflate::wrap(crb.framing, std::move(enc.bytes), source);
    job.csb.checksum = framed.checksum;

    if (framed.bytes.size() > crb.target.totalBytes()) {
        job.csb.cc = CondCode::OutputOverflow;
        job.csb.processedBytes = 0;
        job.csb.producedBytes = 0;
        return job;
    }

    job.timing.dmaOut = dmaOut_.transferCycles(framed.bytes.size());

    job.csb.cc = CondCode::Success;
    job.csb.processedBytes = source.size();
    job.csb.producedBytes = framed.bytes.size();
    job.output = std::move(framed.bytes);
    return job;
}

} // namespace nx
