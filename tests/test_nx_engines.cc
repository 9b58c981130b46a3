/**
 * @file
 * Compress/decompress engine tests: CRB handling, functional round
 * trips through the independent software inflater (and the reverse:
 * software streams through the accelerator decompressor), framing,
 * checksums, error condition codes, timing-model invariants, and that
 * a job on a reused engine equals the same job on a fresh one.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "deflate/deflate_encoder.h"
#include "deflate/gzip_stream.h"
#include "deflate/inflate_decoder.h"
#include "deflate/zlib_stream.h"
#include "nx/compress_engine.h"
#include "nx/decompress_engine.h"
#include "nx/match_pipeline.h"
#include "util/adler32.h"
#include "util/crc32.h"
#include "workloads/corpus.h"

using nx::CompressEngine;
using nx::CondCode;
using nx::Crb;
using nx::DdeList;
using nx::DecompressEngine;
using nx::DhtMode;
using nx::Framing;
using nx::FuncCode;
using nx::NxConfig;

namespace {

Crb
makeCrb(FuncCode func, Framing framing, size_t source_bytes,
        size_t target_bytes)
{
    Crb crb;
    crb.func = func;
    crb.framing = framing;
    crb.source = DdeList::direct(0x10000,
        static_cast<uint32_t>(source_bytes));
    crb.target = DdeList::direct(0x20000,
        static_cast<uint32_t>(target_bytes));
    return crb;
}

} // namespace

class CompressEngineTest : public ::testing::Test
{
  protected:
    NxConfig cfg_ = NxConfig::power9();
};

TEST_F(CompressEngineTest, FhtRawRoundTrip)
{
    auto input = workloads::makeText(200000, 41);
    CompressEngine eng(cfg_);
    auto crb = makeCrb(FuncCode::CompressFht, Framing::Raw,
                       input.size(), input.size() * 2);
    auto job = eng.run(crb, input);
    ASSERT_EQ(job.csb.cc, CondCode::Success);
    EXPECT_EQ(job.csb.processedBytes, input.size());
    auto out = deflate::inflateDecompress(job.output);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.bytes, input);
}

TEST_F(CompressEngineTest, DhtSampledRoundTrip)
{
    auto input = workloads::makeLog(300000, 42);
    CompressEngine eng(cfg_);
    auto crb = makeCrb(FuncCode::CompressDht, Framing::Raw,
                       input.size(), input.size() * 2);
    auto job = eng.run(crb, input, DhtMode::Sampled);
    ASSERT_EQ(job.csb.cc, CondCode::Success);
    auto out = deflate::inflateDecompress(job.output);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.bytes, input);
    EXPECT_EQ(out.stats.dynamicBlocks, 1u);
}

TEST_F(CompressEngineTest, DhtTwoPassRoundTrip)
{
    auto input = workloads::makeCsv(300000, 43);
    CompressEngine eng(cfg_);
    auto crb = makeCrb(FuncCode::CompressDht, Framing::Raw,
                       input.size(), input.size() * 2);
    auto job = eng.run(crb, input, DhtMode::TwoPass);
    ASSERT_EQ(job.csb.cc, CondCode::Success);
    auto out = deflate::inflateDecompress(job.output);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.bytes, input);
}

TEST_F(CompressEngineTest, AllCorpusMembersAllModes)
{
    for (const auto &file : workloads::standardCorpus(32 * 1024)) {
        for (auto func : {FuncCode::CompressFht,
                          FuncCode::CompressDht, FuncCode::Wrap}) {
            CompressEngine eng(cfg_);
            auto crb = makeCrb(func, Framing::Raw, file.data.size(),
                               file.data.size() * 2 + 1024);
            auto job = eng.run(crb, file.data);
            ASSERT_EQ(job.csb.cc, CondCode::Success) << file.name;
            auto out = deflate::inflateDecompress(job.output);
            ASSERT_TRUE(out.ok()) << file.name;
            EXPECT_EQ(out.bytes, file.data) << file.name;
        }
    }
}

TEST_F(CompressEngineTest, GzipFramingVerifies)
{
    auto input = workloads::makeJson(100000, 44);
    CompressEngine eng(cfg_);
    auto crb = makeCrb(FuncCode::CompressDht, Framing::Gzip,
                       input.size(), input.size() * 2);
    auto job = eng.run(crb, input);
    ASSERT_EQ(job.csb.cc, CondCode::Success);
    auto res = deflate::gzipUnwrap(job.output);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.inflate.bytes, input);
    EXPECT_EQ(job.csb.checksum, util::crc32(input));
}

TEST_F(CompressEngineTest, ZlibFramingVerifies)
{
    auto input = workloads::makeHtml(100000, 45);
    CompressEngine eng(cfg_);
    auto crb = makeCrb(FuncCode::CompressFht, Framing::Zlib,
                       input.size(), input.size() * 2);
    auto job = eng.run(crb, input);
    ASSERT_EQ(job.csb.cc, CondCode::Success);
    EXPECT_EQ(job.csb.checksum, util::adler32(input));
}

TEST_F(CompressEngineTest, WrapModeStores)
{
    auto input = workloads::makeRandom(150000, 46);
    CompressEngine eng(cfg_);
    auto crb = makeCrb(FuncCode::Wrap, Framing::Raw, input.size(),
                       input.size() + 4096);
    auto job = eng.run(crb, input);
    ASSERT_EQ(job.csb.cc, CondCode::Success);
    // Stored framing: ~5 bytes per 64 KiB block of overhead.
    EXPECT_LT(job.output.size(), input.size() + 64);
    EXPECT_GE(job.output.size(), input.size());
    auto out = deflate::inflateDecompress(job.output);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.bytes, input);
}

TEST_F(CompressEngineTest, OutputOverflowReported)
{
    auto input = workloads::makeRandom(100000, 47);
    CompressEngine eng(cfg_);
    auto crb = makeCrb(FuncCode::CompressFht, Framing::Raw,
                       input.size(), 1000);    // tiny target
    auto job = eng.run(crb, input);
    EXPECT_EQ(job.csb.cc, CondCode::OutputOverflow);
    EXPECT_TRUE(job.output.empty());
}

TEST_F(CompressEngineTest, BadCrbRejected)
{
    CompressEngine eng(cfg_);
    Crb crb;    // no target DDE
    crb.func = FuncCode::CompressFht;
    auto job = eng.run(crb, {});
    EXPECT_EQ(job.csb.cc, CondCode::BadCrb);
}

TEST_F(CompressEngineTest, DecompressFuncRejected)
{
    CompressEngine eng(cfg_);
    auto crb = makeCrb(FuncCode::Decompress, Framing::Raw, 10, 10);
    std::vector<uint8_t> dummy(10, 0);
    auto job = eng.run(crb, dummy);
    EXPECT_EQ(job.csb.cc, CondCode::BadCrb);
}

TEST_F(CompressEngineTest, TimingBreakdownConsistent)
{
    auto input = workloads::makeText(1 << 20, 48);
    CompressEngine eng(cfg_);
    auto crb = makeCrb(FuncCode::CompressDht, Framing::Gzip,
                       input.size(), input.size() * 2);
    auto job = eng.run(crb, input);
    ASSERT_EQ(job.csb.cc, CondCode::Success);
    const auto &t = job.timing;
    EXPECT_EQ(t.dispatch, cfg_.dispatchCycles);
    EXPECT_EQ(t.completion, cfg_.completionCycles);
    EXPECT_GT(t.match, 0u);
    EXPECT_GT(t.encode, 0u);
    EXPECT_GT(t.dhtGen, 0u);
    EXPECT_GE(t.total(), t.dispatch + t.match + t.completion);
    // Modelled throughput cannot exceed the engine's peak.
    double secs = cfg_.clock.toSeconds(t.total());
    EXPECT_LE(static_cast<double>(input.size()) / secs,
              cfg_.peakCompressBps() * 1.01);
}

TEST_F(CompressEngineTest, FhtFasterButBiggerThanDht)
{
    auto input = workloads::makeText(1 << 20, 49);
    CompressEngine e1(cfg_);
    CompressEngine e2(cfg_);
    auto crbF = makeCrb(FuncCode::CompressFht, Framing::Raw,
                        input.size(), input.size() * 2);
    auto crbD = makeCrb(FuncCode::CompressDht, Framing::Raw,
                        input.size(), input.size() * 2);
    auto fht = e1.run(crbF, input);
    auto dht = e2.run(crbD, input, DhtMode::Sampled);
    ASSERT_EQ(fht.csb.cc, CondCode::Success);
    ASSERT_EQ(dht.csb.cc, CondCode::Success);
    EXPECT_LE(fht.timing.total(), dht.timing.total());
    EXPECT_GT(fht.output.size(), dht.output.size());
}

class DecompressEngineTest : public ::testing::Test
{
  protected:
    NxConfig cfg_ = NxConfig::power9();
};

TEST_F(DecompressEngineTest, AcceptsSoftwareStreams)
{
    // Cross-check: streams produced by the software encoder at every
    // level must decode on the accelerator model.
    auto input = workloads::makeMixed(200000, 50);
    for (int level : {0, 1, 6, 9}) {
        deflate::DeflateOptions opts;
        opts.level = level;
        auto stream = deflate::deflateCompress(input, opts).bytes;
        DecompressEngine eng(cfg_);
        auto crb = makeCrb(FuncCode::Decompress, Framing::Raw,
                           stream.size(), input.size() + 4096);
        auto job = eng.run(crb, stream);
        ASSERT_EQ(job.csb.cc, CondCode::Success) << "level " << level;
        EXPECT_EQ(job.output, input) << "level " << level;
    }
}

TEST_F(DecompressEngineTest, AcceptsAcceleratorStreams)
{
    auto input = workloads::makeLog(200000, 51);
    CompressEngine comp(cfg_);
    auto ccrb = makeCrb(FuncCode::CompressDht, Framing::Gzip,
                        input.size(), input.size() * 2);
    auto cjob = comp.run(ccrb, input);
    ASSERT_EQ(cjob.csb.cc, CondCode::Success);

    DecompressEngine eng(cfg_);
    auto dcrb = makeCrb(FuncCode::Decompress, Framing::Gzip,
                        cjob.output.size(), input.size() + 4096);
    auto djob = eng.run(dcrb, cjob.output);
    ASSERT_EQ(djob.csb.cc, CondCode::Success);
    EXPECT_EQ(djob.output, input);
    EXPECT_EQ(djob.csb.checksum, util::crc32(input));
}

TEST_F(DecompressEngineTest, BadDataReported)
{
    std::vector<uint8_t> garbage(1000, 0xA7);
    DecompressEngine eng(cfg_);
    auto crb = makeCrb(FuncCode::Decompress, Framing::Gzip,
                       garbage.size(), 1 << 20);
    auto job = eng.run(crb, garbage);
    EXPECT_EQ(job.csb.cc, CondCode::BadData);
}

TEST_F(DecompressEngineTest, OutputOverflowReported)
{
    auto input = workloads::makeZeros(100000);
    auto stream = deflate::deflateCompress(input).bytes;
    DecompressEngine eng(cfg_);
    auto crb = makeCrb(FuncCode::Decompress, Framing::Raw,
                       stream.size(), 1000);
    auto job = eng.run(crb, stream);
    EXPECT_EQ(job.csb.cc, CondCode::OutputOverflow);
}

TEST_F(DecompressEngineTest, TimingScalesWithOutput)
{
    auto small = workloads::makeText(64 * 1024, 52);
    auto large = workloads::makeText(1 << 20, 52);
    auto s1 = deflate::deflateCompress(small).bytes;
    auto s2 = deflate::deflateCompress(large).bytes;
    DecompressEngine e1(cfg_);
    DecompressEngine e2(cfg_);
    auto j1 = e1.run(makeCrb(FuncCode::Decompress, Framing::Raw,
                             s1.size(), small.size() + 4096), s1);
    auto j2 = e2.run(makeCrb(FuncCode::Decompress, Framing::Raw,
                             s2.size(), large.size() + 4096), s2);
    ASSERT_EQ(j1.csb.cc, CondCode::Success);
    ASSERT_EQ(j2.csb.cc, CondCode::Success);
    EXPECT_GT(j2.timing.total(), j1.timing.total());
    // Output-side throughput bounded by the engine's peak.
    double secs = cfg_.clock.toSeconds(j2.timing.total());
    EXPECT_LE(static_cast<double>(large.size()) / secs,
              cfg_.peakDecompressBps() * 1.01);
}

TEST_F(DecompressEngineTest, Z15FasterThanPower9)
{
    auto input = workloads::makeText(1 << 20, 53);
    auto stream = deflate::deflateCompress(input).bytes;
    DecompressEngine p9(NxConfig::power9());
    DecompressEngine z15(NxConfig::z15());
    auto crb = makeCrb(FuncCode::Decompress, Framing::Raw,
                       stream.size(), input.size() + 4096);
    auto jp = p9.run(crb, stream);
    auto jz = z15.run(crb, stream);
    ASSERT_EQ(jp.csb.cc, CondCode::Success);
    ASSERT_EQ(jz.csb.cc, CondCode::Success);
    EXPECT_LT(jz.timing.total(), jp.timing.total());
}

// ---------------------------------------------------------------------------
// Reuse: NxDevice and every JobServer worker run all their jobs on one
// engine, so a job on a used engine must equal the same job on a fresh
// one, field for field.
// ---------------------------------------------------------------------------

namespace {

/** The two inputs every reuse test runs, in this order. */
struct ReuseInputs
{
    std::vector<uint8_t> first = workloads::makeJson(200000, 60);
    std::vector<uint8_t> second = workloads::makeLog(90000, 61);
};

void
expectSameCsb(const nx::Csb &a, const nx::Csb &b)
{
    EXPECT_EQ(a.cc, b.cc);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.processedBytes, b.processedBytes);
    EXPECT_EQ(a.producedBytes, b.producedBytes);
    EXPECT_EQ(a.faultAddress, b.faultAddress);
    EXPECT_EQ(a.checksum, b.checksum);
}

void
expectSameMatch(const nx::MatchResult &a, const nx::MatchResult &b)
{
    ASSERT_EQ(a.tokens.size(), b.tokens.size());
    for (size_t i = 0; i < a.tokens.size(); ++i) {
        const deflate::Token &x = a.tokens[i];
        const deflate::Token &y = b.tokens[i];
        ASSERT_TRUE(x.length == y.length && x.dist == y.dist &&
                    x.literal == y.literal) << "token " << i;
    }
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.bankStallCycles, b.bankStallCycles);
    EXPECT_EQ(a.lookups, b.lookups);
    EXPECT_EQ(a.candidatesTried, b.candidatesTried);
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.matchedBytes, b.matchedBytes);
}

} // namespace

TEST_F(CompressEngineTest, ReusedEngineMatchesFreshEngine)
{
    const ReuseInputs in;
    const struct
    {
        FuncCode func;
        DhtMode dht;
        const char *name;
    } modes[] = {
        {FuncCode::CompressFht, DhtMode::Sampled, "fht"},
        {FuncCode::CompressDht, DhtMode::Sampled, "sampled"},
        {FuncCode::CompressDht, DhtMode::TwoPass, "two-pass"},
    };
    for (const auto &m : modes) {
        for (Framing fr : {Framing::Raw, Framing::Gzip, Framing::Zlib}) {
            SCOPED_TRACE(std::string(m.name) + " framing " +
                         std::to_string(static_cast<int>(fr)));
            CompressEngine reused(cfg_);
            (void)reused.run(makeCrb(m.func, fr, in.first.size(),
                                     in.first.size() * 2),
                             in.first, m.dht);
            auto crb = makeCrb(m.func, fr, in.second.size(),
                               in.second.size() * 2);
            auto a = reused.run(crb, in.second, m.dht);
            auto b = CompressEngine(cfg_).run(crb, in.second, m.dht);
            ASSERT_EQ(a.csb.cc, CondCode::Success);
            EXPECT_EQ(a.output, b.output);
            expectSameCsb(a.csb, b.csb);
            EXPECT_EQ(a.timing.dispatch, b.timing.dispatch);
            EXPECT_EQ(a.timing.dmaIn, b.timing.dmaIn);
            EXPECT_EQ(a.timing.dhtGen, b.timing.dhtGen);
            EXPECT_EQ(a.timing.match, b.timing.match);
            EXPECT_EQ(a.timing.encode, b.timing.encode);
            EXPECT_EQ(a.timing.dmaOut, b.timing.dmaOut);
            EXPECT_EQ(a.timing.completion, b.timing.completion);
            expectSameMatch(a.matchInfo, b.matchInfo);
        }
    }
}

TEST_F(DecompressEngineTest, ReusedEngineMatchesFreshEngine)
{
    const ReuseInputs in;
    // Multi-block software streams: each dynamic block loads tables.
    const auto raw1 = deflate::deflateCompress(in.first).bytes;
    const auto raw2 = deflate::deflateCompress(in.second).bytes;
    for (Framing fr : {Framing::Raw, Framing::Gzip, Framing::Zlib}) {
        SCOPED_TRACE("framing " + std::to_string(static_cast<int>(fr)));
        auto frame = [fr](const std::vector<uint8_t> &raw,
                          const std::vector<uint8_t> &orig) {
            switch (fr) {
              case Framing::Gzip: return deflate::gzipWrap(raw, orig);
              case Framing::Zlib: return deflate::zlibWrap(raw, orig);
              case Framing::Raw: break;
            }
            return raw;
        };
        const auto s1 = frame(raw1, in.first);
        const auto s2 = frame(raw2, in.second);
        DecompressEngine reused(cfg_);
        (void)reused.run(makeCrb(FuncCode::Decompress, fr, s1.size(),
                                 in.first.size()),
                         s1);
        auto crb = makeCrb(FuncCode::Decompress, fr, s2.size(),
                           in.second.size());
        auto a = reused.run(crb, s2);
        auto b = DecompressEngine(cfg_).run(crb, s2);
        ASSERT_EQ(a.csb.cc, CondCode::Success);
        EXPECT_EQ(a.output, in.second);
        EXPECT_EQ(a.output, b.output);
        expectSameCsb(a.csb, b.csb);
        EXPECT_EQ(a.timing.dispatch, b.timing.dispatch);
        EXPECT_EQ(a.timing.dmaIn, b.timing.dmaIn);
        EXPECT_EQ(a.timing.tableLoads, b.timing.tableLoads);
        EXPECT_EQ(a.timing.decode, b.timing.decode);
        EXPECT_EQ(a.timing.copyOut, b.timing.copyOut);
        EXPECT_EQ(a.timing.dmaOut, b.timing.dmaOut);
        EXPECT_EQ(a.timing.completion, b.timing.completion);
    }
}

TEST(MatchPipelineReuse, ReusedPipelineMatchesFreshPipeline)
{
    const ReuseInputs in;
    const NxConfig cfg = NxConfig::power9();
    nx::MatchPipeline reused(cfg);
    (void)reused.run(in.first);
    expectSameMatch(reused.run(in.second),
                    nx::MatchPipeline(cfg).run(in.second));
}
