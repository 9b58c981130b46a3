/**
 * @file
 * Drives nxstate (tools/nxstate) on small in-memory fixture trees:
 * protocol declaration parsing (macro and comment forms, conflicts,
 * malformed specs), the CFG walker's must-violation semantics across
 * branches and loops, lock-order cycle detection, and the shared
 * suppression grammar. The real-tree
 * invocation (which must be clean) runs both here and as the separate
 * `nxstate` ctest.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nxstate/nxstate.h"

namespace {

using nxstate::Analysis;
using nxstate::analyzeFiles;
using nxstate::Finding;
using nxstate::SourceFile;

/** Canonical stream protocol used by most fixtures. */
const char *kStreamProto =
    "// nxstate: protocol(Stream: open? -> write* -> write[Finish])\n";

std::vector<Finding>
run(const std::string &body, const std::string &extraDecls = {})
{
    std::vector<SourceFile> files;
    files.push_back({"src/fix.cc", kStreamProto + extraDecls + body});
    return analyzeFiles(files).findings;
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
        out += nxstate::format(f) + "\n";
    return out;
}

// ---------------------------------------------------------------------------
// protocol declarations
// ---------------------------------------------------------------------------

TEST(NxstateDecl, MacroAndCommentFormsBothRegister)
{
    std::vector<SourceFile> files;
    files.push_back({"src/a.h",
                     "NXSIM_PROTOCOL(S, begin -> end);\n"
                     "// nxstate: protocol(T: go* -> stop)\n"});
    files.push_back({"src/b.cc",
                     "void f() { S s; s.end(); }\n"
                     "void g() { T t; t.stop(); t.go(); }\n"});
    auto fs = analyzeFiles(files).findings;
    EXPECT_TRUE(fired(fs, "protocol-order")) << dump(fs);
    EXPECT_TRUE(fired(fs, "use-after-finish")) << dump(fs);
}

TEST(NxstateDecl, HeaderProtocolGovernsOtherFiles)
{
    std::vector<SourceFile> files;
    files.push_back({"src/s.h", kStreamProto});
    files.push_back({"src/user.cc",
                     "void f() {\n"
                     "    Stream s;\n"
                     "    s.write(buf, Finish);\n"
                     "    s.open();\n"
                     "}\n"});
    auto fs = analyzeFiles(files).findings;
    EXPECT_TRUE(fired(fs, "use-after-finish")) << dump(fs);
    EXPECT_EQ(fs[0].file, "src/user.cc");
}

TEST(NxstateDecl, ConflictingSpecsAreReported)
{
    auto fs = run("", "// nxstate: protocol(Stream: open -> close)\n");
    EXPECT_TRUE(fired(fs, "protocol-decl")) << dump(fs);
}

TEST(NxstateDecl, DuplicateIdenticalSpecIsClean)
{
    auto fs = run("", kStreamProto);
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateDecl, MalformedSpecIsReported)
{
    std::vector<SourceFile> files;
    files.push_back({"src/a.h",
                     "// nxstate: protocol(Bad: open ->)\n"
                     "NXSIM_PROTOCOL(AlsoBad, -> write);\n"});
    auto fs = analyzeFiles(files).findings;
    ASSERT_EQ(fs.size(), 2u) << dump(fs);
    for (const Finding &f : fs)
        EXPECT_EQ(f.rule, "protocol-decl");
}

TEST(NxstateDecl, ProtocolExampleInBlockCommentIsIgnored)
{
    // Doc prose (block comments, or line comments not starting with
    // the `nxstate:` tag) must never register protocols.
    auto fs = run("/* e.g. // nxstate: protocol(Stream: z) */\n"
                  "// see also protocol(Stream: y)\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ---------------------------------------------------------------------------
// straight-line ordering
// ---------------------------------------------------------------------------

TEST(NxstateOrder, LegalSequenceIsClean)
{
    auto fs = run("void f() {\n"
                  "    Stream s;\n"
                  "    s.open();\n"
                  "    s.write(a);\n"
                  "    s.write(b);\n"
                  "    s.write(c, Finish);\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateOrder, OptionalAndRepeatedPhasesMaySkip)
{
    // open? and write* are both skippable: finishing immediately is
    // legal, as is finishing without open.
    auto fs = run("void f() { Stream s; s.write(a, Finish); }\n"
                  "void g() { Stream s; s.write(a); s.write(b, Finish); }\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateOrder, CallBeforeReachablePhaseFires)
{
    auto fs = run("void f() {\n"
                  "    Stream s;\n"
                  "    s.write(a);\n"
                  "    s.open();\n"
                  "}\n");
    ASSERT_TRUE(fired(fs, "protocol-order")) << dump(fs);
    EXPECT_EQ(fs[0].line, 5);
}

TEST(NxstateOrder, RequiredPhaseIsNamedAsBlocker)
{
    auto fs = run("void f() { Init i; i.finish(); }\n",
                  "// nxstate: protocol(Init: setup -> finish)\n");
    ASSERT_TRUE(fired(fs, "protocol-order")) << dump(fs);
    EXPECT_NE(fs[0].message.find("'setup'"), std::string::npos)
        << fs[0].message;
}

TEST(NxstateOrder, UnconstrainedMethodsAreIgnored)
{
    auto fs = run("void f() {\n"
                  "    Stream s;\n"
                  "    s.size();\n"
                  "    s.write(a, Finish);\n"
                  "    s.size();\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateOrder, UseAfterFinishFires)
{
    auto fs = run("void f() {\n"
                  "    Stream s;\n"
                  "    s.write(a, Finish);\n"
                  "    s.write(b);\n"
                  "}\n");
    EXPECT_TRUE(fired(fs, "use-after-finish")) << dump(fs);
}

TEST(NxstateOrder, DoubleFinishFires)
{
    auto fs = run("void f() {\n"
                  "    Stream s;\n"
                  "    s.write(a, Finish);\n"
                  "    s.write(b, Finish);\n"
                  "}\n");
    EXPECT_TRUE(fired(fs, "double-finish")) << dump(fs);
}

TEST(NxstateOrder, RepeatablePlusFinalPhaseIsClean)
{
    auto fs = run("void f() { Srv s; s.submit(x); s.stop(); s.stop(); }\n",
                  "// nxstate: protocol(Srv: submit* -> stop+)\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateOrder, SubmitAfterStopFires)
{
    auto fs = run("void f() { Srv s; s.stop(); s.submit(x); }\n",
                  "// nxstate: protocol(Srv: submit* -> stop+)\n");
    EXPECT_TRUE(fired(fs, "use-after-finish")) << dump(fs);
}

TEST(NxstateOrder, TwoObjectsAreTrackedIndependently)
{
    auto fs = run("void f() {\n"
                  "    Stream a;\n"
                  "    Stream b;\n"
                  "    a.write(x, Finish);\n"
                  "    b.write(y);\n"
                  "    b.write(z, Finish);\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ---------------------------------------------------------------------------
// control flow: must-violation semantics
// ---------------------------------------------------------------------------

TEST(NxstateCfg, FinishOnOneBranchOnlyIsClean)
{
    // On the else path the stream is still writable, so the trailing
    // write is not a must-violation.
    auto fs = run("void f(bool c) {\n"
                  "    Stream s;\n"
                  "    if (c) {\n"
                  "        s.write(a, Finish);\n"
                  "        return;\n"
                  "    }\n"
                  "    s.write(b);\n"
                  "    s.write(b, Finish);\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateCfg, FinishOnBothBranchesThenUseFires)
{
    auto fs = run("void f(bool c) {\n"
                  "    Stream s;\n"
                  "    if (c) s.write(a, Finish);\n"
                  "    else s.write(b, Finish);\n"
                  "    s.write(x);\n"
                  "}\n");
    EXPECT_TRUE(fired(fs, "use-after-finish")) << dump(fs);
}

TEST(NxstateCfg, MaybeFinishedThenUseIsClean)
{
    // if-without-else: the fall-through path never finished.
    auto fs = run("void f(bool c) {\n"
                  "    Stream s;\n"
                  "    if (c) s.write(a, Finish);\n"
                  "    s.write(x);\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateCfg, WriteInLoopIsClean)
{
    auto fs = run("void f(int n) {\n"
                  "    Stream s;\n"
                  "    for (int i = 0; i < n; ++i)\n"
                  "        s.write(chunk[i]);\n"
                  "    s.write(last, Finish);\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateCfg, FinishInsideLoopFiresAcrossIterations)
{
    auto fs = run("void f(int n) {\n"
                  "    Stream s;\n"
                  "    for (int i = 0; i < n; ++i)\n"
                  "        s.write(chunk[i], Finish);\n"
                  "}\n");
    EXPECT_TRUE(fired(fs, "double-finish")) << dump(fs);
}

TEST(NxstateCfg, FinishThenBreakInLoopIsClean)
{
    auto fs = run("void f(int n) {\n"
                  "    Stream s;\n"
                  "    while (more()) {\n"
                  "        s.write(a, Finish);\n"
                  "        break;\n"
                  "    }\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateCfg, CodeAfterReturnIsDead)
{
    auto fs = run("void f() {\n"
                  "    Stream s;\n"
                  "    s.write(a, Finish);\n"
                  "    return;\n"
                  "    s.write(b);\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateCfg, SwitchCasesDoNotAccumulate)
{
    auto fs = run("void f(int k) {\n"
                  "    Stream s;\n"
                  "    switch (k) {\n"
                  "    case 0: s.write(a); break;\n"
                  "    case 1: s.write(b); break;\n"
                  "    }\n"
                  "    s.write(c, Finish);\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateCfg, EveryCaseIsCheckedPastTheFirstBreak)
{
    // Each case starts from the switch head's state, so the double
    // finish in case 1 is seen although case 0 ends in a break.
    auto fs = run("void f(int k) {\n"
                  "    Stream s;\n"
                  "    switch (k) {\n"
                  "    case 0: s.write(a); break;\n"
                  "    case 1: s.write(b, Finish); s.write(c, Finish); break;\n"
                  "    }\n"
                  "}\n");
    ASSERT_TRUE(fired(fs, "double-finish")) << dump(fs);
    EXPECT_EQ(fs[0].line, 6);
}

TEST(NxstateCfg, SwitchWithDefaultFinishingInEveryCaseFinishes)
{
    // With a default label every path runs some case; without one the
    // head's state also reaches the exit, so the write stays legal.
    const std::string sw = "void f(int k) {\n"
                           "    Stream s;\n"
                           "    switch (k) {\n"
                           "    case 0: s.write(a, Finish); break;\n";
    const std::string tail = "    }\n"
                             "    s.write(c);\n"
                             "}\n";
    auto fs = run(sw + "    default: s.write(b, Finish); break;\n" + tail);
    EXPECT_TRUE(fired(fs, "use-after-finish")) << dump(fs);
    fs = run(sw + "    case 1: s.write(b, Finish); break;\n" + tail);
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateCfg, BreakInsideACaseReachesTheCodeAfterTheSwitch)
{
    // The `if (c) break;` path leaves the switch unfinished, so the
    // last write is legal on some path.
    auto fs = run("void f(int k, bool c) {\n"
                  "    Stream s;\n"
                  "    switch (k) {\n"
                  "    case 0: if (c) break; s.write(a, Finish); break;\n"
                  "    default: s.write(b, Finish); break;\n"
                  "    }\n"
                  "    s.write(d);\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ---------------------------------------------------------------------------
// lock order
// ---------------------------------------------------------------------------

TEST(NxstateLock, ConsistentOrderIsClean)
{
    auto fs = run("struct T {\n"
                  "    void f() { MutexLock a(mu_); MutexLock b(aux_); }\n"
                  "    void g() { MutexLock a(mu_); MutexLock b(aux_); }\n"
                  "};\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateLock, InvertedPairFires)
{
    auto fs = run("struct T {\n"
                  "    void f() { MutexLock a(mu_); MutexLock b(aux_); }\n"
                  "    void g() { MutexLock a(aux_); MutexLock b(mu_); }\n"
                  "};\n");
    ASSERT_TRUE(fired(fs, "lock-cycle")) << dump(fs);
    EXPECT_NE(fs[0].message.find("T::mu_"), std::string::npos)
        << fs[0].message;
}

TEST(NxstateLock, InitializerListConstructorLocksAreQualified)
{
    // The constructor body is found through its initializer list, so
    // its locks are X::a_ / X::b_ like g()'s and the pair inverts.
    auto fs = run("struct X { X(int v); void g(); int v_; };\n"
                  "X::X(int v) : v_(v) { MutexLock l1(a_); "
                  "MutexLock l2(b_); }\n"
                  "void X::g() { MutexLock l1(b_); MutexLock l2(a_); }\n");
    ASSERT_TRUE(fired(fs, "lock-cycle")) << dump(fs);
    EXPECT_NE(fs[0].message.find("X::a_"), std::string::npos)
        << fs[0].message;
}

TEST(NxstateLock, ScopeExitReleasesHeldLocks)
{
    // The braces end lk1's scope, so lk2 is not acquired under it.
    auto fs = run("struct T {\n"
                  "    void f() { { MutexLock lk1(mu_); } MutexLock lk2(aux_); }\n"
                  "    void g() { { MutexLock lk1(aux_); } MutexLock lk2(mu_); }\n"
                  "};\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateLock, StdGuardsAndFreeMutexesParticipate)
{
    auto fs = run(
        "void f() { std::lock_guard<std::mutex> a(gMu); "
        "std::unique_lock<std::mutex> b(gAux); }\n"
        "void g() { std::scoped_lock a(gAux); std::lock_guard b(gMu); }\n");
    EXPECT_TRUE(fired(fs, "lock-cycle")) << dump(fs);
}

TEST(NxstateLock, DotAlwaysEmitsGraph)
{
    std::vector<SourceFile> files;
    files.push_back(
        {"src/a.cc",
         "struct T { void f() { MutexLock a(mu_); MutexLock b(aux_); } };\n"});
    Analysis an = analyzeFiles(files);
    EXPECT_NE(an.lockDot.find("digraph"), std::string::npos);
    EXPECT_NE(an.lockDot.find("\"T::mu_\" -> \"T::aux_\""),
              std::string::npos)
        << an.lockDot;
}

// ---------------------------------------------------------------------------
// suppressions
// ---------------------------------------------------------------------------

TEST(NxstateAllow, JustifiedAllowSuppresses)
{
    auto fs = run("void f() {\n"
                  "    Stream s;\n"
                  "    s.write(a, Finish);\n"
                  "    // nxstate: allow(double-finish): test fixture\n"
                  "    s.write(b, Finish);\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxstateAllow, StaleAllowFires)
{
    auto fs = run("void f() {\n"
                  "    Stream s;\n"
                  "    // nxstate: allow(double-finish): nothing here\n"
                  "    s.write(a);\n"
                  "}\n");
    EXPECT_TRUE(fired(fs, "stale-allow")) << dump(fs);
}

TEST(NxstateAllow, BareAllowFires)
{
    auto fs = run("// nxstate: allow(double-finish)\n");
    EXPECT_TRUE(fired(fs, "bare-allow")) << dump(fs);
}

// ---------------------------------------------------------------------------
// the real tree
// ---------------------------------------------------------------------------

TEST(NxstateRealTree, RepoIsClean)
{
    Analysis an = nxstate::analyzeTree(NXSIM_SOURCE_DIR);
    EXPECT_TRUE(an.findings.empty()) << dump(an.findings);
    // The real lock graph knows the JobServer mutex.
    EXPECT_NE(an.lockDot.find("JobServer::mu_"), std::string::npos)
        << an.lockDot;
}

} // namespace
