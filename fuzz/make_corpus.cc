/**
 * @file
 * Seed-corpus generator: writes small, diverse, deterministic inputs
 * for each fuzz target into fuzz/corpus/<target>/. The generated files
 * are checked into git; re-run this tool (build target
 * fuzz_make_corpus, argument = corpus root) only when the stream
 * formats change, and commit the result.
 */

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "deflate/deflate_encoder.h"
#include "deflate/gzip_stream.h"
#include "deflate/lz77.h"
#include "deflate/zlib_stream.h"
#include "e842/e842.h"
#include "util/bitstream.h"
#include "workloads/corpus.h"

namespace {

namespace fs = std::filesystem;

void
save(const fs::path &dir, const std::string &name,
     std::span<const uint8_t> bytes)
{
    fs::create_directories(dir);
    std::ofstream f(dir / name, std::ios::binary);
    f.write(reinterpret_cast<const char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<uint8_t>
deflateAt(std::span<const uint8_t> input, int level)
{
    deflate::DeflateOptions opts;
    opts.level = level;
    return deflate::deflateCompress(input, opts).bytes;
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = argc > 1 ? argv[1] : "fuzz/corpus";

    auto text = workloads::makeText(2000, 1);
    auto log = workloads::makeLog(3000, 2);
    auto bin = workloads::makeBinary(1500, 3);
    auto json = workloads::makeJson(2500, 4);
    auto rnd = workloads::makeRandom(800, 5);
    auto zeros = workloads::makeZeros(4096);

    // --- inflate: raw DEFLATE streams of every block flavour ---------
    save(root / "inflate", "text-l6.bin", deflateAt(text, 6));
    save(root / "inflate", "log-l1.bin", deflateAt(log, 1));
    save(root / "inflate", "bin-l9.bin", deflateAt(bin, 9));
    save(root / "inflate", "stored-l0.bin", deflateAt(rnd, 0));
    save(root / "inflate", "zeros-l6.bin", deflateAt(zeros, 6));
    {
        // One final fixed-Huffman block: the level-6 tokens under the
        // fixed codes.
        deflate::Lz77Matcher matcher(deflate::levelParams(6));
        util::BitWriter bw;
        bw.writeBits(1, 1);
        bw.writeBits(static_cast<uint32_t>(deflate::BlockType::FixedHuffman),
                     2);
        deflate::emitTokens(bw, matcher.tokenize(text),
                            deflate::HuffmanCode::fixedLitLen(),
                            deflate::HuffmanCode::fixedDist());
        save(root / "inflate", "fixed.bin", bw.take());
    }
    {
        // Multi-block stream: small blockBytes forces block boundaries.
        deflate::DeflateOptions opts;
        opts.blockBytes = 512;
        save(root / "inflate", "multiblock.bin",
             deflate::deflateCompress(json, opts).bytes);
    }
    save(root / "inflate", "empty-input.bin",
         deflateAt(std::span<const uint8_t>{}, 6));

    // --- gzip: container framing, gzip and zlib --------------------
    save(root / "gzip", "basic.gz", deflate::gzipWrap(
        deflateAt(text, 6), text, "seed.txt"));
    {
        deflate::GzipWriteOptions w;
        w.name = "n.bin";
        w.comment = "seed comment";
        w.extra = {0x01, 0x02, 0x03, 0x04};
        w.headerCrc = true;
        w.mtime = 0x5f000000;
        save(root / "gzip", "all-fields.gz", deflate::gzipWrapEx(
            deflateAt(log, 6), log, w));
    }
    {
        auto m1 = deflate::gzipWrap(deflateAt(text, 6), text, "");
        auto m2 = deflate::gzipWrap(deflateAt(bin, 1), bin, "");
        m1.insert(m1.end(), m2.begin(), m2.end());
        save(root / "gzip", "two-members.gz", m1);
    }
    save(root / "gzip", "stream.zlib",
         deflate::zlibWrap(deflateAt(json, 6), json));
    save(root / "gzip", "tiny.gz", deflate::gzipWrap(
        deflateAt(std::span<const uint8_t>{}, 6), {}, ""));

    // --- e842: streams from every opcode family --------------------
    save(root / "e842", "text.842", e842::compress(text).bytes);
    save(root / "e842", "zeros.842", e842::compress(zeros).bytes);
    save(root / "e842", "random.842", e842::compress(rnd).bytes);
    {
        // Periodic data exercises REPEAT and the index templates.
        std::vector<uint8_t> periodic;
        for (int i = 0; i < 600; ++i)
            periodic.push_back(static_cast<uint8_t>("NXGZIP42"[i % 8]));
        save(root / "e842", "periodic.842",
             e842::compress(periodic).bytes);
    }
    {
        // Tail shorter than a chunk exercises SHORT_DATA.
        std::vector<uint8_t> odd(json.begin(), json.begin() + 21);
        save(root / "e842", "shortdata.842", e842::compress(odd).bytes);
    }

    // --- roundtrip: [level byte][mode byte][payload] ----------------
    auto seedRt = [&](const std::string &name, uint8_t level,
                      uint8_t mode, std::span<const uint8_t> payload) {
        std::vector<uint8_t> v = {level, mode};
        v.insert(v.end(), payload.begin(), payload.end());
        save(root / "roundtrip", name, v);
    };
    seedRt("text-l6-dht.bin", 6, 1, text);
    seedRt("log-l1-fht.bin", 1, 0, log);
    seedRt("bin-l9-dht.bin", 9, 1, bin);
    seedRt("zeros-l6-fht.bin", 6, 0, zeros);
    seedRt("rnd-l0-fht.bin", 0, 0, rnd);
    seedRt("empty-l6-dht.bin", 6, 1, {});

    // --- session: [format][log2 thresh][retries][fault plan][payload]
    // Seeds cover each format on both sides of its routing threshold
    // and each fault-plan family (one-shot translation faults, one-shot
    // terminal faults, periodic faults, clean runs).
    auto seedSession = [&](const std::string &name, uint8_t format,
                           uint8_t log2Thresh, uint8_t retries,
                           uint8_t faultPlan,
                           std::span<const uint8_t> payload) {
        std::vector<uint8_t> v = {format, log2Thresh, retries,
                                  faultPlan};
        v.insert(v.end(), payload.begin(), payload.end());
        save(root / "session", name, v);
    };
    seedSession("gzip-accel-clean.bin", 0, 8, 1, 0x00, text);
    seedSession("gzip-sw-clean.bin", 0, 11, 1, 0x00, rnd);
    seedSession("zlib-accel-xlate-fault.bin", 1, 6, 2, 0x02, log);
    seedSession("raw-accel-terminal-fault.bin", 2, 4, 1, 0x11, json);
    seedSession("e842-accel-periodic.bin", 3, 5, 0, 0x80, bin);
    seedSession("e842-sw-small.bin", 3, 11, 1, 0x00,
                std::span<const uint8_t>(zeros).first(64));
    seedSession("gzip-fault-storm.bin", 0, 0, 2, 0xFF, text);
    seedSession("empty-payload.bin", 0, 4, 1, 0x00, {});
    return 0;
}
