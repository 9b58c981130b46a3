/**
 * @file
 * Byte-exact oracle for the one-call encoder: the CRC-32 and length of
 * every deflateCompress / deflateCompressWithDict output over a fixed
 * input matrix, concatenated per level. The table pins the encoder's
 * exact output, so a change to the matcher, the block-type rule or the
 * Huffman emission that moves a single bit fails here; a change meant
 * to move output regenerates the table and says why.
 *
 * The matrix covers every workload generator at sizes that are one
 * block (0 B to 64 KiB, plus exactly blockBytes at levels 1 and 6), and
 * preset-dictionary compresses of compressible inputs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "deflate/deflate_encoder.h"
#include "util/crc32.h"
#include "workloads/corpus.h"

namespace {

using Generator = std::function<std::vector<uint8_t>(size_t, uint64_t)>;

struct Workload
{
    const char *name;
    Generator make;
    bool compressible;    ///< used for the dictionary cases
};

std::vector<Workload>
workloadSet()
{
    return {
        {"text", workloads::makeText, true},
        {"log", workloads::makeLog, true},
        {"json", workloads::makeJson, true},
        {"csv", workloads::makeCsv, true},
        {"source", workloads::makeSource, true},
        {"html", workloads::makeHtml, true},
        {"binary", workloads::makeBinary, false},
        {"random", workloads::makeRandom, false},
        {"zeros", [](size_t n, uint64_t) { return workloads::makeZeros(n); },
         false},
        {"mixed", workloads::makeMixed, false},
    };
}

/** Every one-call output of the matrix at @p level, concatenated. */
std::vector<uint8_t>
matrixOutput(int level)
{
    deflate::DeflateOptions opts;
    opts.level = level;
    std::vector<uint8_t> all;
    auto append = [&all](const deflate::DeflateResult &res) {
        all.insert(all.end(), res.bytes.begin(), res.bytes.end());
    };

    uint64_t seed = 1600;
    for (const Workload &w : workloadSet()) {
        ++seed;
        for (size_t size : {0u, 1u, 255u, 4095u, 65536u})
            append(deflate::deflateCompress(w.make(size, seed), opts));
        if (level == 1 || level == 6)
            append(deflate::deflateCompress(
                w.make(opts.blockBytes, seed), opts));
        if (!w.compressible)
            continue;
        auto dict = w.make(40000, seed + 100);    // only its tail is used
        for (size_t size : {0u, 1u, 255u, 4095u, 20000u})
            append(deflate::deflateCompressWithDict(
                w.make(size, seed + 200), dict, opts));
    }
    return all;
}

struct Golden
{
    uint32_t crc;
    size_t length;
};

/** {CRC-32, length} of matrixOutput(level), indexed by level. */
constexpr Golden kGolden[10] = {
    {0xd38ba5a3u, 845426},    // level 0
    {0xfbfa4678u, 987233},    // level 1
    {0x70f4e772u, 228262},    // level 2
    {0xba7f3912u, 219210},    // level 3
    {0x243877a9u, 222032},    // level 4
    {0x26587f48u, 214597},    // level 5
    {0x93633f5au, 886422},    // level 6
    {0x9204eb7au, 208503},    // level 7
    {0xfefd34a4u, 206312},    // level 8
    {0xd7c29170u, 206041},    // level 9
};

class DeflateGolden : public ::testing::TestWithParam<int>
{
};

} // namespace

TEST_P(DeflateGolden, OneCallOutputMatchesTable)
{
    int level = GetParam();
    auto out = matrixOutput(level);
    EXPECT_EQ(out.size(), kGolden[level].length);
    EXPECT_EQ(util::crc32(out), kGolden[level].crc)
        << std::hex << "crc 0x" << util::crc32(out);
}

INSTANTIATE_TEST_SUITE_P(Levels, DeflateGolden, ::testing::Range(0, 10));
