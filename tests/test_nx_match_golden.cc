/**
 * @file
 * Exact oracle for the accelerator's match stage and compress engine.
 *
 * MatchPipeline: for every geometry in the table (the two presets, and
 * indexBits {4, 10, 14} x ways {1, 2, 3, 8} at minMatch 3 and a 4 KiB
 * window) and every input of a fixed matrix, one record holds the
 * CRC-32 of the serialized token stream and all seven MatchResult
 * counters. Each row pins the CRC-32 of its geometry's records, in
 * input order, and the counters summed over the inputs. The matrix is
 * every workload generator at 0-9, 100, 4095 and 65536 bytes (the
 * sizes around the end-of-input tail and the 8-byte compare), the
 * standard corpus at 64 KiB, and a 256 KiB mixed input that spans
 * several windows.
 *
 * CompressEngine: for each function code and DHT mode x framing, the
 * CRC-32 of every output followed by its timing.total(), over a few
 * inputs on both presets, and the totals summed.
 *
 * A change to the hash, the insert policy, the comparators, the bank
 * accounting or the encoders that moves one token, counter, byte or
 * cycle fails here; a change meant to move them regenerates the tables
 * (each failure prints the row to paste) and says why.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "nx/compress_engine.h"
#include "nx/match_pipeline.h"
#include "util/crc32.h"
#include "workloads/corpus.h"

namespace {

using nx::CompressEngine;
using nx::CondCode;
using nx::Crb;
using nx::DdeList;
using nx::DhtMode;
using nx::Framing;
using nx::FuncCode;
using nx::MatchPipeline;
using nx::MatchResult;
using nx::NxConfig;

void
putLe(std::vector<uint8_t> &out, uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

/** The match-stage input matrix, in record order. */
const std::vector<std::vector<uint8_t>> &
matchInputs()
{
    static const std::vector<std::vector<uint8_t>> inputs = [] {
        using Generator =
            std::function<std::vector<uint8_t>(size_t, uint64_t)>;
        const Generator generators[] = {
            workloads::makeText, workloads::makeLog,
            workloads::makeJson, workloads::makeCsv,
            workloads::makeSource, workloads::makeHtml,
            workloads::makeBinary, workloads::makeRandom,
            [](size_t n, uint64_t) { return workloads::makeZeros(n); },
            workloads::makeMixed,
        };
        std::vector<std::vector<uint8_t>> all;
        uint64_t seed = 2100;
        for (const Generator &make : generators) {
            ++seed;
            for (size_t size : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 100u,
                                4095u, 65536u})
                all.push_back(make(size, seed));
        }
        for (auto &file : workloads::standardCorpus(64 * 1024))
            all.push_back(std::move(file.data));
        all.push_back(workloads::makeMixed(256 * 1024, 2200));
        return all;
    }();
    return inputs;
}

struct MatchGolden
{
    const char *geometry;
    uint32_t crc;    ///< CRC-32 of the per-input records
    uint64_t cycles;
    uint64_t rows;
    uint64_t bankStallCycles;
    uint64_t lookups;
    uint64_t candidatesTried;
    uint64_t matches;
    uint64_t matchedBytes;
};

/** A row as it appears in the table below. */
std::string
format(const MatchGolden &g)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"%s\", 0x%08" PRIx32 "u, %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 "},",
                  g.geometry, g.crc, g.cycles, g.rows, g.bankStallCycles,
                  g.lookups, g.candidatesTried, g.matches,
                  g.matchedBytes);
    return buf;
}

/** Geometry @p name: a preset, or "iXwY" for the swept tables. */
NxConfig
geometry(const std::string &name)
{
    if (name == "power9")
        return NxConfig::power9();
    if (name == "z15")
        return NxConfig::z15();
    NxConfig cfg = NxConfig::power9();
    int index_bits = 0;
    int ways = 0;
    EXPECT_EQ(std::sscanf(name.c_str(), "i%dw%d", &index_bits, &ways), 2);
    cfg.hash.indexBits = index_bits;
    cfg.hash.ways = ways;
    cfg.hash.minMatch = 3;
    cfg.windowBytes = 4096;
    return cfg;
}

MatchGolden
runMatchMatrix(const char *name)
{
    MatchGolden g{name, 0, 0, 0, 0, 0, 0, 0, 0};
    MatchPipeline pipe(geometry(name));
    std::vector<uint8_t> records;
    std::vector<uint8_t> tokens;
    for (const auto &input : matchInputs()) {
        MatchResult r = pipe.run(input);
        tokens.clear();
        for (const deflate::Token &t : r.tokens) {
            putLe(tokens, t.length, 2);
            putLe(tokens, t.dist, 2);
            tokens.push_back(t.literal);
        }
        putLe(records, util::crc32(tokens), 4);
        const uint64_t counters[] = {r.cycles, r.rows, r.bankStallCycles,
                                     r.lookups, r.candidatesTried,
                                     r.matches, r.matchedBytes};
        for (uint64_t c : counters)
            putLe(records, c, 8);
        g.cycles += r.cycles;
        g.rows += r.rows;
        g.bankStallCycles += r.bankStallCycles;
        g.lookups += r.lookups;
        g.candidatesTried += r.candidatesTried;
        g.matches += r.matches;
        g.matchedBytes += r.matchedBytes;
    }
    g.crc = util::crc32(records);
    return g;
}

// geometry, crc, cycles, rows, bankStallCycles, lookups,
// candidatesTried, matches, matchedBytes
constexpr MatchGolden kMatchGolden[] = {
    {"power9", 0xb0cb5bbbu, 421357, 387442, 33915, 325612, 1751773, 105102, 1328917},
    {"z15", 0x06a0c702u, 237874, 193746, 44128, 324850, 1355098, 105048, 1329628},
    {"i4w1", 0x46639be3u, 545150, 387442, 157708, 1064470, 1063771, 81152, 566164},
    {"i4w2", 0x32495b12u, 511314, 387442, 123872, 894854, 1787829, 107571, 762206},
    {"i4w3", 0x765be579u, 488747, 387442, 101305, 767597, 2299286, 118303, 900203},
    {"i4w8", 0x771dbcedu, 450769, 387442, 63327, 534789, 4261730, 123474, 1138188},
    {"i10w1", 0xdfb3fe8au, 426312, 387442, 38870, 402836, 389081, 161949, 1308617},
    {"i10w2", 0xd7f330eau, 423727, 387442, 36285, 374916, 712970, 149372, 1323962},
    {"i10w3", 0xd1641c9eu, 422951, 387442, 35509, 364816, 1025053, 143004, 1327694},
    {"i10w8", 0x23dd2facu, 422007, 387442, 34565, 348021, 2452666, 130757, 1332243},
    {"i14w1", 0xf6fc5b9au, 423619, 387442, 36177, 385041, 311525, 166010, 1330475},
    {"i14w2", 0xea93d64eu, 422720, 387442, 35278, 367489, 539781, 149851, 1331868},
    {"i14w3", 0x4ba44aa9u, 422360, 387442, 34918, 360211, 726930, 142781, 1332076},
    {"i14w8", 0xf5ecbf24u, 421755, 387442, 34313, 346590, 1375639, 130428, 1333345},
};

void
PrintTo(const MatchGolden &g, std::ostream *os)
{
    *os << format(g);
}

class MatchGoldenTest : public ::testing::TestWithParam<MatchGolden>
{
};

/** Engine inputs: compressible, multi-window, incompressible, runs. */
const std::vector<std::vector<uint8_t>> &
engineInputs()
{
    static const std::vector<std::vector<uint8_t>> inputs = {
        workloads::makeLog(100000, 2301),
        workloads::makeMixed(256 * 1024, 2200),
        workloads::makeRandom(20000, 2302),
        workloads::makeZeros(70000),
        workloads::makeText(5000, 2303),
    };
    return inputs;
}

struct EngineGolden
{
    const char *mode;    ///< fht, sampled, two-pass or wrap
    Framing framing;
    uint32_t crc;        ///< CRC-32 of each output and its total
    uint64_t totalCycles;
};

std::string
format(const EngineGolden &g)
{
    static const char *const kFraming[] = {"Framing::Raw",
                                           "Framing::Gzip",
                                           "Framing::Zlib"};
    char buf[160];
    std::snprintf(buf, sizeof buf, "{\"%s\", %s, 0x%08" PRIx32 "u, %"
                  PRIu64 "},", g.mode,
                  kFraming[static_cast<int>(g.framing)], g.crc,
                  g.totalCycles);
    return buf;
}

EngineGolden
runEngineMatrix(const char *mode, Framing framing)
{
    const std::string m = mode;
    FuncCode func = m == "fht" ? FuncCode::CompressFht
        : m == "wrap" ? FuncCode::Wrap : FuncCode::CompressDht;
    DhtMode dht = m == "two-pass" ? DhtMode::TwoPass : DhtMode::Sampled;
    EngineGolden g{mode, framing, 0, 0};
    std::vector<uint8_t> stream;
    for (const NxConfig &cfg : {NxConfig::power9(), NxConfig::z15()}) {
        CompressEngine eng(cfg);
        for (const auto &input : engineInputs()) {
            Crb crb;
            crb.func = func;
            crb.framing = framing;
            crb.source = DdeList::direct(0x10000,
                static_cast<uint32_t>(input.size()));
            crb.target = DdeList::direct(0x20000,
                static_cast<uint32_t>(input.size() * 2 + 1024));
            auto job = eng.run(crb, input, dht);
            EXPECT_EQ(job.csb.cc, CondCode::Success);
            putLe(stream, util::crc32(job.output), 4);
            putLe(stream, job.timing.total(), 8);
            g.totalCycles += job.timing.total();
        }
    }
    g.crc = util::crc32(stream);
    return g;
}

// mode, framing, crc, sum of timing.total()
constexpr EngineGolden kEngineGolden[] = {
    {"fht", Framing::Raw, 0x52d00673u, 229778},
    {"fht", Framing::Gzip, 0xc3a40bb5u, 229778},
    {"fht", Framing::Zlib, 0xaa54090eu, 229778},
    {"sampled", Framing::Raw, 0x7beb20f4u, 317081},
    {"sampled", Framing::Gzip, 0x74e2679cu, 317081},
    {"sampled", Framing::Zlib, 0x38473058u, 317081},
    {"two-pass", Framing::Raw, 0xb43a3fecu, 442167},
    {"two-pass", Framing::Gzip, 0x6d47656du, 442167},
    {"two-pass", Framing::Zlib, 0xb0083403u, 442167},
    {"wrap", Framing::Raw, 0x3e89915eu, 210456},
    {"wrap", Framing::Gzip, 0xf1749683u, 210456},
    {"wrap", Framing::Zlib, 0x1048030eu, 210456},
};

void
PrintTo(const EngineGolden &g, std::ostream *os)
{
    *os << format(g);
}

class EngineGoldenTest : public ::testing::TestWithParam<EngineGolden>
{
};

std::string
geometryName(const ::testing::TestParamInfo<MatchGolden> &p)
{
    return p.param.geometry;
}

/** "two-pass" x Zlib -> "two_pass_Zlib". */
std::string
modeName(const ::testing::TestParamInfo<EngineGolden> &p)
{
    static const char *const kFraming[] = {"Raw", "Gzip", "Zlib"};
    std::string name = p.param.mode;
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name + "_" + kFraming[static_cast<int>(p.param.framing)];
}

} // namespace

TEST_P(MatchGoldenTest, TokensAndCountersMatchTable)
{
    const MatchGolden &want = GetParam();
    EXPECT_EQ(format(runMatchMatrix(want.geometry)), format(want));
}

INSTANTIATE_TEST_SUITE_P(Geometries, MatchGoldenTest,
                         ::testing::ValuesIn(kMatchGolden), geometryName);

TEST_P(EngineGoldenTest, OutputAndCyclesMatchTable)
{
    const EngineGolden &want = GetParam();
    EXPECT_EQ(format(runEngineMatrix(want.mode, want.framing)),
              format(want));
}

INSTANTIATE_TEST_SUITE_P(Modes, EngineGoldenTest,
                         ::testing::ValuesIn(kEngineGolden), modeName);
