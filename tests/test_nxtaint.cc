/**
 * @file
 * Drives nxtaint (tools/nxtaint) on small in-memory fixtures: one
 * flagging and one clean case per source, sink, and sanitizer rule,
 * the suppression grammar with stale-allow detection, and a
 * deliberately vulnerable decoder fixture that must light up every
 * taint rule at once. The real-tree invocation (which must be clean)
 * runs both here and as the separate `nxtaint` ctest.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nxtaint/nxtaint.h"

namespace {

using nxtaint::analyzeFile;
using nxtaint::Finding;

std::vector<std::string>
rulesOf(const std::vector<Finding> &fs)
{
    std::vector<std::string> out;
    for (const Finding &f : fs)
        out.push_back(f.rule);
    return out;
}

bool
fired(const std::vector<Finding> &fs, std::string_view rule)
{
    return std::any_of(fs.begin(), fs.end(), [&](const Finding &f) {
        return f.rule == rule;
    });
}

std::string
dump(const std::vector<Finding> &fs)
{
    std::string out;
    for (const Finding &f : fs)
        out += nxtaint::format(f) + "\n";
    return out;
}

// ---------------------------------------------------------------------------
// sources
// ---------------------------------------------------------------------------

TEST(NxtaintSource, BitReaderResultTaintsVariable)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned n = br.readBits(16);\n"
        "    out.resize(n);\n"
        "}\n");
    ASSERT_TRUE(fired(fs, "taint-alloc-size")) << dump(fs);
    EXPECT_EQ(fs[0].line, 3);
    EXPECT_NE(fs[0].message.find("'n'"), std::string::npos);
}

TEST(NxtaintSource, InlineSourceCallIsTainted)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "int f(util::BitReader &br) {\n"
        "    return kTable[br.readBits(5)];\n"
        "}\n");
    ASSERT_TRUE(fired(fs, "taint-index")) << dump(fs);
    EXPECT_NE(fs[0].message.find("readBits() result"), std::string::npos);
}

TEST(NxtaintSource, UntrustedParameterIsTainted)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(NXSIM_UNTRUSTED std::span<const uint8_t> data,\n"
        "       std::vector<uint8_t> &out) {\n"
        "    out.resize(data[0]);\n"
        "}\n");
    ASSERT_TRUE(fired(fs, "taint-alloc-size")) << dump(fs);
    EXPECT_NE(fs[0].message.find("NXSIM_UNTRUSTED parameter 'data'"),
              std::string::npos);
}

TEST(NxtaintSource, PlainParameterIsNotTainted)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(std::span<const uint8_t> data, std::vector<uint8_t> &out) {\n"
        "    out.resize(data[0]);\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSource, TaintPropagatesThroughArithmetic)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned n = br.readBits(5);\n"
        "    size_t m = n + 4;\n"
        "    out.resize(m);\n"
        "}\n");
    ASSERT_TRUE(fired(fs, "taint-alloc-size")) << dump(fs);
    EXPECT_EQ(fs[0].line, 4);
}

TEST(NxtaintSource, ReassignmentWithCleanValueClearsTaint)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned n = br.readBits(5);\n"
        "    n = 4;\n"
        "    out.resize(n);\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSource, TaintDoesNotLeakAcrossFunctions)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br) {\n"
        "    unsigned n = br.readBits(8);\n"
        "    (void)n;\n"
        "}\n"
        "void g(std::vector<uint8_t> &out, unsigned n) {\n"
        "    out.resize(n);\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ---------------------------------------------------------------------------
// sinks
// ---------------------------------------------------------------------------

TEST(NxtaintSinkCopySize, MemcpyAndCopyBytesFire)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, uint8_t *d, const uint8_t *s) {\n"
        "    size_t n = br.readBits(16);\n"
        "    std::memcpy(d, s, n);\n"
        "    nx::copyBytes(d, s, n);\n"
        "}\n");
    auto rs = rulesOf(fs);
    EXPECT_EQ(std::count(rs.begin(), rs.end(),
                         std::string("taint-copy-size")),
              2)
        << dump(fs);
}

TEST(NxtaintSinkCopySize, LiteralSizeIsClean)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, uint8_t *d, const uint8_t *s) {\n"
        "    unsigned n = br.readBits(16);\n"
        "    (void)n;\n"
        "    std::memcpy(d, s, 8);\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSinkAllocSize, ResizeReserveAssignInsertFire)
{
    // insert(end, n, fill) is the exact shape of the code-length run
    // bug fixed in the inflate decoders.
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    size_t n = 11 + br.readBits(7);\n"
        "    out.resize(n);\n"
        "    out.reserve(n);\n"
        "    out.assign(n, 0);\n"
        "    out.insert(out.end(), n, 0);\n"
        "}\n");
    auto rs = rulesOf(fs);
    EXPECT_EQ(std::count(rs.begin(), rs.end(),
                         std::string("taint-alloc-size")),
              4)
        << dump(fs);
}

TEST(NxtaintSinkAllocSize, FreeFunctionResizeIsNotASink)
{
    // Only member resize/reserve are allocation sinks.
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br) {\n"
        "    unsigned n = br.readBits(4);\n"
        "    resize(n);\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSinkIndex, TaintedSubscriptFires)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "int f(util::BitReader &br, const int *table) {\n"
        "    unsigned v = br.readBits(7);\n"
        "    return table[v];\n"
        "}\n");
    ASSERT_TRUE(fired(fs, "taint-index")) << dump(fs);
    EXPECT_EQ(fs[0].line, 3);
}

TEST(NxtaintSinkIndex, UntaintedSubscriptIsClean)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "int f(util::BitReader &br, const int *table) {\n"
        "    unsigned v = br.readBits(7);\n"
        "    (void)v;\n"
        "    return table[3];\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSinkShift, TaintedShiftAmountFires)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "unsigned f(util::BitReader &br) {\n"
        "    unsigned s = br.readBits(5);\n"
        "    return 1u << s;\n"
        "}\n");
    ASSERT_TRUE(fired(fs, "taint-shift")) << dump(fs);
}

TEST(NxtaintSinkShift, StreamInsertionIsNotAShift)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::ostream &os) {\n"
        "    unsigned n = br.readBits(8);\n"
        "    os << \"n=\" << n;\n"
        "}\n");
    EXPECT_FALSE(fired(fs, "taint-shift")) << dump(fs);
}

TEST(NxtaintSinkLoopBound, TaintedLoopBoundFires)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned n = br.readBits(16);\n"
        "    for (unsigned i = 0; i < n; ++i)\n"
        "        out.push_back(0);\n"
        "}\n");
    ASSERT_TRUE(fired(fs, "taint-loop-bound")) << dump(fs);
    EXPECT_EQ(fs[0].line, 3);
}

TEST(NxtaintSinkLoopBound, WhileConditionFiresToo)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned n = br.readBits(16);\n"
        "    while (out.size() < n)\n"
        "        out.push_back(0);\n"
        "}\n");
    EXPECT_TRUE(fired(fs, "taint-loop-bound")) << dump(fs);
}

// ---------------------------------------------------------------------------
// sanitizers
// ---------------------------------------------------------------------------

TEST(NxtaintSanitizer, IfComparisonSanitizes)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned n = br.readBits(16);\n"
        "    if (n > 1024)\n"
        "        return;\n"
        "    out.resize(n);\n"
        "    for (unsigned i = 0; i < n; ++i)\n"
        "        out[i] = 0;\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSanitizer, ContractMacroSanitizes)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned n = br.readBits(16);\n"
        "    NXSIM_EXPECT(n <= 1024, \"header length in range\");\n"
        "    out.resize(n);\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSanitizer, CheckedCastWrapperSanitizes)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned n = br.readBits(16);\n"
        "    out.resize(nx::checked_cast<uint8_t>(n));\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSanitizer, StdMinAssignmentSanitizes)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned n = br.readBits(16);\n"
        "    size_t m = std::min<size_t>(n, out.size());\n"
        "    out.resize(m);\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSanitizer, ConstantMaskSanitizes)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "int f(util::BitReader &br, const int *table) {\n"
        "    unsigned v = br.readBits(9);\n"
        "    return table[v & 0x1f] + table[v % kTableSize];\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSanitizer, GeometryQueriesOnTaintedBufferAreClean)
{
    // data's *contents* are attacker-controlled; data.size() is the
    // local buffer geometry, which is what checks compare against.
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(NXSIM_UNTRUSTED std::span<const uint8_t> data,\n"
        "       std::vector<uint8_t> &out) {\n"
        "    out.resize(data.size());\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSanitizer, SizeCallDoesNotSanitizeTheBufferItself)
{
    // Comparing data.size() must not mark data's contents clean.
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(NXSIM_UNTRUSTED std::span<const uint8_t> data,\n"
        "       std::vector<uint8_t> &out) {\n"
        "    if (data.size() < 4)\n"
        "        return;\n"
        "    out.resize(data[0]);\n"
        "}\n");
    EXPECT_TRUE(fired(fs, "taint-alloc-size")) << dump(fs);
}

TEST(NxtaintSanitizer, LoopBoundSanitizedByPriorCheckIsClean)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned n = br.readBits(4);\n"
        "    if (n >= kNumClc)\n"
        "        return;\n"
        "    for (unsigned i = 0; i < n; ++i)\n"
        "        out.push_back(0);\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ---------------------------------------------------------------------------
// path-sensitive flow (the shared CFG walker)
// ---------------------------------------------------------------------------

TEST(NxtaintFlow, CheckOnOneBranchDoesNotSanitizeAfterTheJoin)
{
    // The path that skips the outer if reaches the store unchecked.
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, uint8_t *buf, bool c) {\n"
        "    unsigned n = br.readBits(8);\n"
        "    if (c) {\n"
        "        if (n >= 16)\n"
        "            return;\n"
        "    }\n"
        "    buf[n] = 0;\n"
        "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "taint-index");
    EXPECT_EQ(fs[0].line, 7);
}

TEST(NxtaintFlow, CheckOnBothBranchesSanitizes)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, uint8_t *buf, bool c) {\n"
        "    unsigned n = br.readBits(8);\n"
        "    if (c)\n"
        "        NXSIM_EXPECT(n < 16, \"in range\");\n"
        "    else if (n >= 16)\n"
        "        return;\n"
        "    buf[n] = 0;\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintFlow, ReadAtTheEndOfAnIterationIsFlaggedAtTheTopOfTheNext)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, uint8_t *buf, int k) {\n"
        "    unsigned n = 0;\n"
        "    while (k-- > 0) {\n"
        "        buf[n] = 0;\n"
        "        n = br.readBits(8);\n"
        "    }\n"
        "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "taint-index");
    EXPECT_EQ(fs[0].line, 4);
    EXPECT_NE(fs[0].message.find("tainted at line 5"), std::string::npos)
        << fs[0].message;
}

TEST(NxtaintFlow, LoopHeadComparesTheReReadValueOnTheBackEdge)
{
    // The head runs again before the second pass: it compares the
    // re-read n (a loop bound) and so checks it before the store.
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, uint8_t *buf) {\n"
        "    unsigned n = 0;\n"
        "    while (n < 16) {\n"
        "        buf[n] = 0;\n"
        "        n = br.readBits(8);\n"
        "    }\n"
        "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "taint-loop-bound");
    EXPECT_EQ(fs[0].line, 3);
    EXPECT_FALSE(fired(fs, "taint-index")) << dump(fs);
}

TEST(NxtaintFlow, ForUpdateRunsOnTheBackEdgeBeforeTheTest)
{
    // The first pass stores at i = 0; the back edge adds the read, then
    // `i < 16` compares the tainted i (a loop bound) and checks it
    // before the second pass stores.
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, uint8_t *buf) {\n"
        "    unsigned i;\n"
        "    for (i = 0; i < 16; i += br.readBits(2))\n"
        "        buf[i] = 0;\n"
        "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "taint-loop-bound");
    EXPECT_EQ(fs[0].line, 3);
}

TEST(NxtaintFlow, InlineLambdaKeepsItsCheckThenIndexReading)
{
    // e842::decompress's readI2/readI4 shape: read, check, index — all
    // inside the lambda body.
    auto fs = analyzeFile(
        "src/e842/x.cc",
        "void f(util::BitReader &br, const uint16_t *ring, bool &bad) {\n"
        "    auto readI2 = [&](uint8_t *dst) {\n"
        "        uint32_t idx = br.readBits(8);\n"
        "        if (idx >= kRing2)\n"
        "            bad = true;\n"
        "        uint16_t v = ring[idx];\n"
        "        std::memcpy(dst, &v, 2);\n"
        "    };\n"
        "    readI2(nullptr);\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintFlow, InlineLambdaIndexWithoutTheCheckFires)
{
    auto fs = analyzeFile(
        "src/e842/x.cc",
        "void f(util::BitReader &br, const uint16_t *ring) {\n"
        "    auto readI2 = [&](uint16_t *d) { *d = ring[br.readBits(8)]; };\n"
        "    auto readI4 = [&](uint16_t *dst) {\n"
        "        uint32_t idx = br.readBits(8);\n"
        "        *dst = ring[idx];\n"
        "    };\n"
        "    (void)readI2;\n"
        "    (void)readI4;\n"
        "}\n");
    ASSERT_EQ(fs.size(), 2u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "taint-index");
    EXPECT_EQ(fs[0].line, 2);
    EXPECT_EQ(fs[1].rule, "taint-index");
    EXPECT_EQ(fs[1].line, 5);
}

TEST(NxtaintFlow, LambdaBodyTaintStaysInsideTheLambda)
{
    // The lambda runs later, if at all: its locals and its checks do
    // not leak into the enclosing body.
    auto fs = analyzeFile(
        "src/e842/x.cc",
        "void f(util::BitReader &br, const uint16_t *ring) {\n"
        "    unsigned n = br.readBits(8);\n"
        "    auto check = [&] {\n"
        "        if (n >= 16)\n"
        "            return;\n"
        "    };\n"
        "    check();\n"
        "    (void)ring[n];\n"
        "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].line, 8);
}

// ---------------------------------------------------------------------------
// the deliberately vulnerable fixture
// ---------------------------------------------------------------------------

TEST(NxtaintVulnerableFixture, EveryTaintRuleFires)
{
    // A compact header decoder written the wrong way on purpose: every
    // taint rule must light up, proving end-to-end source -> sink
    // coverage on realistic decode-loop code.
    auto fs = analyzeFile(
        "src/deflate/bad_decoder.cc",
        "void decode(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned count = br.readBits(16);\n"
        "    out.reserve(count);\n"
        "    unsigned shift = br.readBits(5);\n"
        "    unsigned base = 1u << shift;\n"
        "    (void)base;\n"
        "    for (unsigned i = 0; i < count; ++i)\n"
        "        out.push_back(kTable[br.readBits(4)]);\n"
        "}\n");
    EXPECT_TRUE(fired(fs, "taint-alloc-size")) << dump(fs);
    EXPECT_TRUE(fired(fs, "taint-shift")) << dump(fs);
    EXPECT_TRUE(fired(fs, "taint-loop-bound")) << dump(fs);
    EXPECT_TRUE(fired(fs, "taint-index")) << dump(fs);
    EXPECT_EQ(fs.size(), 4u) << dump(fs);
}

// ---------------------------------------------------------------------------
// suppressions
// ---------------------------------------------------------------------------

TEST(NxtaintSuppression, JustifiedAllowSuppressesNextLine)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned n = br.readBits(16);\n"
        "    // nxtaint: allow(taint-alloc-size): capped by the framing\n"
        "    out.resize(n);\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSuppression, MultiLineJustificationCoversNextCodeLine)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned n = br.readBits(16);\n"
        "    // nxtaint: allow(taint-alloc-size): the 16-bit field is\n"
        "    // validated against the container cap by the caller\n"
        "    out.resize(n);\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSuppression, BareAllowIsAFindingAndSuppressesNothing)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    unsigned n = br.readBits(16);\n"
        "    // nxtaint: allow(taint-alloc-size)\n"
        "    out.resize(n);\n"
        "}\n");
    EXPECT_TRUE(fired(fs, "bare-allow")) << dump(fs);
    EXPECT_TRUE(fired(fs, "taint-alloc-size")) << dump(fs);
}

TEST(NxtaintSuppression, UnknownRuleInAllowFires)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "int a; // nxtaint: allow(no-such-rule): why\n");
    ASSERT_TRUE(fired(fs, "bare-allow")) << dump(fs);
    EXPECT_NE(fs[0].message.find("no-such-rule"), std::string::npos);
}

TEST(NxtaintSuppression, FileScopeAllowBeforeAnyCode)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "// nxtaint: allow(taint-index): table is 1 << maxBits entries\n"
        "#include \"a.h\"\n"
        "int f(util::BitReader &br, const int *table) {\n"
        "    return table[br.readBits(5)];\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintSuppression, UnusedAllowIsStale)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(std::vector<uint8_t> &out) {\n"
        "    // nxtaint: allow(taint-alloc-size): was tainted once\n"
        "    out.resize(4);\n"
        "}\n");
    ASSERT_TRUE(fired(fs, "stale-allow")) << dump(fs);
    EXPECT_EQ(fs[0].line, 2);
    EXPECT_NE(fs[0].message.find("taint-alloc-size"), std::string::npos);
}

TEST(NxtaintSuppression, StaleAllowItselfCanBeExcused)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(std::vector<uint8_t> &out) {\n"
        "    // nxtaint: allow(stale-allow): taint is ifdef'd per target\n"
        "    // nxtaint: allow(taint-alloc-size): only on z15 builds\n"
        "    out.resize(4);\n"
        "}\n");
    EXPECT_FALSE(fired(fs, "stale-allow")) << dump(fs);
}

TEST(NxtaintSuppression, MentionInProseDoesNotSuppress)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "/* docs: write `// nxtaint: allow(taint-index): why` */\n"
        "int f(util::BitReader &br, const int *table) {\n"
        "    return table[br.readBits(5)];\n"
        "}\n");
    EXPECT_TRUE(fired(fs, "taint-index")) << dump(fs);
}

// ---------------------------------------------------------------------------
// cross-function propagation (call-graph summaries)
// ---------------------------------------------------------------------------

TEST(NxtaintCross, TaintedArgReachingCalleeSinkFlagsCallSite)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void copyBody(uint8_t *dst, const uint8_t *src, size_t n) {\n"
        "    memcpy(dst, src, n);\n"
        "}\n"
        "void f(util::BitReader &br, uint8_t *dst, const uint8_t *s) {\n"
        "    size_t n = br.readBits(16);\n"
        "    copyBody(dst, s, n);\n"
        "}\n");
    ASSERT_TRUE(fired(fs, "taint-copy-size")) << dump(fs);
    const Finding *cross = nullptr;
    for (const Finding &f : fs)
        if (f.line == 6)
            cross = &f;
    ASSERT_NE(cross, nullptr) << dump(fs);
    EXPECT_NE(cross->message.find("call chain"), std::string::npos);
    EXPECT_NE(cross->message.find("copyBody -> memcpy"),
              std::string::npos)
        << cross->message;
}

TEST(NxtaintCross, HelperReturningSourceTaintsCaller)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "unsigned readLen(util::BitReader &br) {\n"
        "    return br.readBits(16);\n"
        "}\n"
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    out.resize(readLen(br));\n"
        "}\n");
    ASSERT_TRUE(fired(fs, "taint-alloc-size")) << dump(fs);
    EXPECT_EQ(fs[0].line, 5);
}

TEST(NxtaintCross, ArgFlowsThroughToResult)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "size_t scaled(size_t v) { return v * 2; }\n"
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    size_t n = br.readBits(12);\n"
        "    out.resize(scaled(n));\n"
        "}\n");
    ASSERT_TRUE(fired(fs, "taint-alloc-size")) << dump(fs);
}

TEST(NxtaintCross, CalleeWithInternalCheckIsCleanAtCallSite)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void copyChecked(uint8_t *dst, const uint8_t *s, size_t n) {\n"
        "    if (n > kMaxBlock)\n"
        "        return;\n"
        "    memcpy(dst, s, n);\n"
        "}\n"
        "void f(util::BitReader &br, uint8_t *dst, const uint8_t *s) {\n"
        "    size_t n = br.readBits(16);\n"
        "    copyChecked(dst, s, n);\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintCross, ResolvedCalleeNotReturningArgIsClean)
{
    // Before summaries, `headerCost(n)` was conservatively tainted
    // because n is; the summary proves the result ignores its arg.
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "size_t headerCost(size_t n) { (void)n; return 4; }\n"
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    size_t n = br.readBits(16);\n"
        "    out.resize(headerCost(n));\n"
        "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxtaintCross, UnresolvedExternalStaysConservative)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    size_t n = br.readBits(16);\n"
        "    out.resize(externalTransform(n));\n"
        "}\n");
    ASSERT_TRUE(fired(fs, "taint-alloc-size")) << dump(fs);
}

TEST(NxtaintCross, TwoHopChainIsReported)
{
    auto fs = analyzeFile(
        "src/deflate/x.cc",
        "void leafCopy(uint8_t *d, const uint8_t *s, size_t n) {\n"
        "    memcpy(d, s, n);\n"
        "}\n"
        "void midCopy(uint8_t *d, const uint8_t *s, size_t n) {\n"
        "    leafCopy(d, s, n);\n"
        "}\n"
        "void f(util::BitReader &br, uint8_t *d, const uint8_t *s) {\n"
        "    size_t n = br.readBits(16);\n"
        "    midCopy(d, s, n);\n"
        "}\n");
    ASSERT_TRUE(fired(fs, "taint-copy-size")) << dump(fs);
    bool chained = false;
    for (const Finding &f : fs)
        if (f.message.find("midCopy -> leafCopy -> memcpy") !=
            std::string::npos)
            chained = true;
    EXPECT_TRUE(chained) << dump(fs);
}

TEST(NxtaintCross, LaunderingAcrossFilesIsCaught)
{
    auto fs = nxtaint::analyzeFiles(
        {{"src/deflate/helper.cc",
          "void rawFill(std::vector<uint8_t> &out, size_t n) {\n"
          "    out.resize(n);\n"
          "}\n"},
         {"src/deflate/user.cc",
          "void f(util::BitReader &br, std::vector<uint8_t> &out) {\n"
          "    rawFill(out, br.readBits(16));\n"
          "}\n"}});
    ASSERT_TRUE(fired(fs, "taint-alloc-size")) << dump(fs);
    EXPECT_EQ(fs[0].file, "src/deflate/user.cc");
    EXPECT_EQ(fs[0].line, 2);
}

TEST(NxtaintCross, VulnerableFixtureHelperLaunderedTaint)
{
    // The acceptance fixture: a deliberately vulnerable decoder that
    // launders every hop through helpers — each flow must still fire.
    auto fs = analyzeFile(
        "src/deflate/vuln.cc",
        "static size_t decodeCount(util::BitReader &br) {\n"
        "    return br.readBits(16);\n"
        "}\n"
        "static void storeAt(std::vector<uint8_t> &v, size_t i) {\n"
        "    v[i] = 0;\n"
        "}\n"
        "static void growTo(std::vector<uint8_t> &v, size_t n) {\n"
        "    v.reserve(n);\n"
        "}\n"
        "void decode(util::BitReader &br, std::vector<uint8_t> &out) {\n"
        "    size_t count = decodeCount(br);\n"
        "    growTo(out, count);\n"
        "    storeAt(out, count);\n"
        "}\n");
    EXPECT_TRUE(fired(fs, "taint-alloc-size")) << dump(fs);
    EXPECT_TRUE(fired(fs, "taint-index")) << dump(fs);
    // Both findings land in decode(), at the laundering call sites.
    for (const Finding &f : fs)
        EXPECT_GE(f.line, 11) << dump(fs);
}

// ---------------------------------------------------------------------------
// plumbing + the real tree
// ---------------------------------------------------------------------------

TEST(NxtaintFormat, MatchesFileLineRuleMessage)
{
    Finding f{"src/deflate/x.cc", 7, "taint-index", "msg"};
    EXPECT_EQ(nxtaint::format(f), "src/deflate/x.cc:7: taint-index: msg");
}

TEST(NxtaintRules, TableIsPopulatedAndUnique)
{
    const auto &rs = nxtaint::rules();
    EXPECT_GE(rs.size(), 8u);
    for (size_t i = 0; i < rs.size(); ++i)
        for (size_t j = i + 1; j < rs.size(); ++j)
            EXPECT_NE(rs[i].id, rs[j].id);
}

TEST(NxtaintRealTree, RepoIsClean)
{
    auto fs = nxtaint::analyzeTree(NXSIM_SOURCE_DIR);
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

} // namespace
