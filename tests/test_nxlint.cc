/**
 * @file
 * Drives nxlint (tools/nxlint) on small in-memory fixtures: one
 * positive (rule fires) and one negative (clean) case per rule, plus
 * the suppression machinery and the lexer's comment/string blindness.
 * The real-tree invocation is the separate `nxlint` ctest.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nxlint/nxlint.h"

namespace {

using nxlint::Finding;
using nxlint::lintFile;

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

// ---------------------------------------------------------------------------
// include-guard
// ---------------------------------------------------------------------------

TEST(NxlintIncludeGuard, WrongGuardNameFires)
{
    auto fs = lintFile("src/nx/crb.h",
                       "#ifndef WRONG_GUARD\n#define WRONG_GUARD\n"
                       "#endif\n");
    ASSERT_TRUE(fired(fs, "include-guard"));
    EXPECT_NE(fs[0].message.find("NXSIM_NX_CRB_H"), std::string::npos);
}

TEST(NxlintIncludeGuard, MissingGuardFires)
{
    auto fs = lintFile("src/nx/crb.h", "int x;\n");
    EXPECT_TRUE(fired(fs, "include-guard"));
}

TEST(NxlintIncludeGuard, MismatchedDefineFires)
{
    auto fs = lintFile("src/nx/crb.h",
                       "#ifndef NXSIM_NX_CRB_H\n#define OTHER\n#endif\n");
    EXPECT_TRUE(fired(fs, "include-guard"));
}

TEST(NxlintIncludeGuard, CorrectGuardIsClean)
{
    auto fs = lintFile("src/nx/crb.h",
                       "// doc comment first is fine\n"
                       "#ifndef NXSIM_NX_CRB_H\n"
                       "#define NXSIM_NX_CRB_H\n"
                       "int x;\n"
                       "#endif\n");
    EXPECT_FALSE(fired(fs, "include-guard")) << nxlint::format(fs[0]);
}

TEST(NxlintIncludeGuard, DoesNotApplyToSourceFiles)
{
    EXPECT_FALSE(fired(lintFile("src/nx/crb.cc", "int x;\n"),
                       "include-guard"));
}

// ---------------------------------------------------------------------------
// using-namespace-header
// ---------------------------------------------------------------------------

TEST(NxlintUsingNamespace, FiresInHeader)
{
    auto fs = lintFile("src/nx/a.h",
                       "#ifndef NXSIM_NX_A_H\n#define NXSIM_NX_A_H\n"
                       "using namespace std;\n#endif\n");
    EXPECT_TRUE(fired(fs, "using-namespace-header"));
}

TEST(NxlintUsingNamespace, AllowedInSourceFiles)
{
    EXPECT_FALSE(fired(lintFile("src/nx/a.cc", "using namespace std;\n"),
                       "using-namespace-header"));
}

TEST(NxlintUsingNamespace, UsingDeclarationIsClean)
{
    auto fs = lintFile("src/nx/a.h",
                       "#ifndef NXSIM_NX_A_H\n#define NXSIM_NX_A_H\n"
                       "using std::vector;\n#endif\n");
    EXPECT_FALSE(fired(fs, "using-namespace-header"));
}

// ---------------------------------------------------------------------------
// banned-call / banned-include
// ---------------------------------------------------------------------------

TEST(NxlintBannedCall, AssertFiresInLibraryCode)
{
    auto fs = lintFile("src/deflate/x.cc", "void f() { assert(ok()); }\n");
    ASSERT_TRUE(fired(fs, "banned-call"));
    EXPECT_NE(fs[0].message.find("NXSIM_ASSERT"), std::string::npos);
}

TEST(NxlintBannedCall, SprintfAndAtoiFire)
{
    auto fs = lintFile("src/core/x.cc",
                       "void f(char *b) { sprintf(b, \"x\"); "
                       "int v = atoi(b); (void)v; }\n");
    auto rs = rulesOf(fs);
    EXPECT_EQ(std::count(rs.begin(), rs.end(), std::string("banned-call")),
              2);
}

TEST(NxlintBannedCall, MemberNamedAssertIsClean)
{
    auto fs = lintFile("src/nx/x.cc",
                       "void f(T &t) { t.assert(1); t->abort(2); }\n");
    EXPECT_FALSE(fired(fs, "banned-call"));
}

TEST(NxlintBannedCall, InsideStringOrCommentIsClean)
{
    auto fs = lintFile("src/nx/x.cc",
                       "// abort(x) in prose\n"
                       "const char *s = \"assert(true)\";\n");
    EXPECT_FALSE(fired(fs, "banned-call"));
}

TEST(NxlintBannedCall, ToolsAndFuzzAreOutOfScope)
{
    EXPECT_FALSE(fired(lintFile("fuzz/harness.cc",
                                "void f() { abort(); }\n"),
                       "banned-call"));
}

TEST(NxlintBannedInclude, CassertFires)
{
    auto fs = lintFile("src/nx/x.cc", "#include <cassert>\nint x;\n");
    EXPECT_TRUE(fired(fs, "banned-include"));
}

TEST(NxlintBannedInclude, ContractsHeaderIsClean)
{
    auto fs = lintFile("src/nx/x.cc",
                       "#include \"util/contracts.h\"\nint x;\n");
    EXPECT_FALSE(fired(fs, "banned-include"));
}

// ---------------------------------------------------------------------------
// raw-memcpy
// ---------------------------------------------------------------------------

TEST(NxlintRawMemcpy, RuntimeSizeFires)
{
    auto fs = lintFile("src/nx/x.cc",
                       "void f(void *d, void *s, size_t n) "
                       "{ std::memcpy(d, s, n); }\n");
    ASSERT_TRUE(fired(fs, "raw-memcpy"));
    EXPECT_NE(fs[0].message.find("copyBytes"), std::string::npos);
}

TEST(NxlintRawMemcpy, LiteralAndSizeofSizesAreClean)
{
    auto fs = lintFile("src/nx/x.cc",
                       "void f(void *d, void *s) {\n"
                       "  std::memcpy(d, s, 8);\n"
                       "  std::memcpy(d, s, sizeof(uint64_t));\n"
                       "}\n");
    EXPECT_FALSE(fired(fs, "raw-memcpy"));
}

TEST(NxlintRawMemcpy, UtilIsWhitelisted)
{
    auto fs = lintFile("src/util/bitstream.cc",
                       "void f(void *d, void *s, size_t n) "
                       "{ std::memcpy(d, s, n); }\n");
    EXPECT_FALSE(fired(fs, "raw-memcpy"));
}

// ---------------------------------------------------------------------------
// narrow-cast
// ---------------------------------------------------------------------------

TEST(NxlintNarrowCast, NarrowTargetsFire)
{
    auto fs = lintFile("src/deflate/x.cc",
                       "uint8_t f(size_t n) "
                       "{ return static_cast<uint8_t>(n); }\n");
    ASSERT_TRUE(fired(fs, "narrow-cast"));
    EXPECT_NE(fs[0].message.find("checked_cast"), std::string::npos);
}

TEST(NxlintNarrowCast, QualifiedAndMultiwordTypesFire)
{
    auto fs = lintFile("src/deflate/x.cc",
                       "void f(long v) {\n"
                       "  auto a = static_cast<std::uint16_t>(v);\n"
                       "  auto b = static_cast<unsigned int>(v);\n"
                       "  (void)a; (void)b;\n"
                       "}\n");
    auto rs = rulesOf(fs);
    EXPECT_EQ(std::count(rs.begin(), rs.end(), std::string("narrow-cast")),
              2);
}

TEST(NxlintNarrowCast, WideAndPointerCastsAreClean)
{
    auto fs = lintFile("src/deflate/x.cc",
                       "void f(int v, void *p) {\n"
                       "  auto a = static_cast<uint64_t>(v);\n"
                       "  auto b = static_cast<size_t>(v);\n"
                       "  auto c = static_cast<uint8_t *>(p);\n"
                       "  auto d = static_cast<double>(v);\n"
                       "  (void)a; (void)b; (void)c; (void)d;\n"
                       "}\n");
    EXPECT_FALSE(fired(fs, "narrow-cast"));
}

TEST(NxlintNarrowCast, CheckedCastHelpersAreClean)
{
    auto fs = lintFile("src/deflate/x.cc",
                       "uint8_t f(size_t n) "
                       "{ return nx::checked_cast<uint8_t>(n); }\n");
    EXPECT_FALSE(fired(fs, "narrow-cast"));
}

// ---------------------------------------------------------------------------
// nodiscard-status
// ---------------------------------------------------------------------------

TEST(NxlintNodiscard, StatusReturnWithoutAttributeFires)
{
    auto fs = lintFile("src/nx/a.h",
                       "#ifndef NXSIM_NX_A_H\n#define NXSIM_NX_A_H\n"
                       "CondCode validate(const Crb &c);\n"
                       "JobResult run();\n"
                       "EngineStatus poll();\n"
                       "#endif\n");
    auto rs = rulesOf(fs);
    EXPECT_EQ(std::count(rs.begin(), rs.end(),
                         std::string("nodiscard-status")),
              3);
}

TEST(NxlintNodiscard, AttributedDeclarationsAreClean)
{
    auto fs = lintFile("src/nx/a.h",
                       "#ifndef NXSIM_NX_A_H\n#define NXSIM_NX_A_H\n"
                       "[[nodiscard]] CondCode validate(const Crb &c);\n"
                       "[[nodiscard]] inline JobResult run();\n"
                       "#endif\n");
    EXPECT_FALSE(fired(fs, "nodiscard-status"));
}

TEST(NxlintNodiscard, QualifiedStatusTypeIsReadWithItsQualifiers)
{
    auto fs = lintFile("src/nx/a.h",
                       "#ifndef NXSIM_NX_A_H\n#define NXSIM_NX_A_H\n"
                       "[[nodiscard]] nx::CondCode map(int s);\n"
                       "[[nodiscard]] ::a::b::JobResult run();\n"
                       "nx::CondCode unmarked(int s);\n"
                       "#endif\n");
    auto rs = rulesOf(fs);
    EXPECT_EQ(std::count(rs.begin(), rs.end(),
                         std::string("nodiscard-status")),
              1);
}

TEST(NxlintNodiscard, ParametersAndSourceFilesAreClean)
{
    auto header = lintFile("src/nx/a.h",
                           "#ifndef NXSIM_NX_A_H\n#define NXSIM_NX_A_H\n"
                           "const char *toString(CondCode cc);\n"
                           "void log(CondCode cc, int n);\n"
                           "#endif\n");
    EXPECT_FALSE(fired(header, "nodiscard-status"));
    auto source = lintFile("src/nx/a.cc", "CondCode validate() {}\n");
    EXPECT_FALSE(fired(source, "nodiscard-status"));
}

// ---------------------------------------------------------------------------
// todo-tag
// ---------------------------------------------------------------------------

TEST(NxlintTodoTag, UntaggedTodoAndFixmeFire)
{
    auto fs = lintFile("src/nx/x.cc",
                       "// TODO: make this faster\n"
                       "int a;\n"
                       "/* FIXME handle z15 */\n"
                       "int b;\n");
    auto rs = rulesOf(fs);
    EXPECT_EQ(std::count(rs.begin(), rs.end(), std::string("todo-tag")),
              2);
    EXPECT_EQ(fs[0].line, 1);
    EXPECT_EQ(fs[1].line, 3);
}

TEST(NxlintTodoTag, TaggedTodoIsClean)
{
    auto fs = lintFile("src/nx/x.cc",
                       "// TODO(#42): make this faster\n"
                       "// FIXME(#7): off-by-one near EOF\n"
                       "int a;\n");
    EXPECT_FALSE(fired(fs, "todo-tag"));
}

TEST(NxlintTodoTag, ProseContainingTodoWordIsClean)
{
    auto fs = lintFile("src/nx/x.cc", "// TODOs are tracked upstream\n");
    EXPECT_FALSE(fired(fs, "todo-tag"));
}

// ---------------------------------------------------------------------------
// raw-thread
// ---------------------------------------------------------------------------

TEST(NxlintRawThread, StdThreadFiresInLibraryCode)
{
    auto fs = lintFile("src/nx/x.cc",
                       "void f() { std::thread t([] {}); t.join(); }\n");
    ASSERT_TRUE(fired(fs, "raw-thread"));
    EXPECT_NE(fs[0].message.find("JobServer"), std::string::npos);
}

TEST(NxlintRawThread, JthreadAndAsyncFire)
{
    auto fs = lintFile("src/deflate/x.cc",
                       "void f() {\n"
                       "  std::jthread t([] {});\n"
                       "  auto fut = std::async([] { return 1; });\n"
                       "  (void)fut;\n"
                       "}\n");
    auto rs = rulesOf(fs);
    EXPECT_EQ(std::count(rs.begin(), rs.end(), std::string("raw-thread")),
              2);
}

TEST(NxlintRawThread, DetachFiresEvenInWhitelistedFiles)
{
    auto fs = lintFile("src/core/job_server.cc",
                       "void f(std::thread &t) { t.detach(); }\n");
    ASSERT_TRUE(fired(fs, "raw-thread"));
    EXPECT_NE(fs[0].message.find("detach"), std::string::npos);

    auto arrow = lintFile("src/nx/x.cc",
                          "void f(std::thread *t) { t->detach(); }\n");
    EXPECT_TRUE(fired(arrow, "raw-thread"));
}

TEST(NxlintRawThread, JobServerAndUtilAreWhitelisted)
{
    const char *body = "void f() { std::thread t([] {}); t.join(); }\n";
    EXPECT_FALSE(fired(lintFile("src/core/job_server.cc", body),
                       "raw-thread"));
    EXPECT_FALSE(fired(lintFile("src/util/pool.cc", body), "raw-thread"));
}

TEST(NxlintRawThread, LoadGenClientThreadsAreWhitelisted)
{
    // The load generator's client threads are the requesters the
    // JobServer serves, so they cannot be routed through it.
    const char *body = "void f() { std::thread t([] {}); t.join(); }\n";
    EXPECT_FALSE(fired(lintFile("src/load/load_gen.cc", body),
                       "raw-thread"));
    // Only the .cc is whitelisted, and only that one file in load/.
    EXPECT_TRUE(fired(lintFile("src/load/load_gen.h", body),
                      "raw-thread"));
    EXPECT_TRUE(fired(lintFile("src/load/arrival.cc", body),
                      "raw-thread"));
    // detach() stays banned even inside the whitelisted file.
    EXPECT_TRUE(fired(lintFile("src/load/load_gen.cc",
                               "void f() { std::thread t([] {}); "
                               "t.detach(); }\n"),
                      "raw-thread"));
}

TEST(NxlintRawThread, TestsToolsAndFreeDetachAreClean)
{
    // Outside src/ the rule does not apply: tests and benches spawn
    // producer threads directly by design.
    const char *body = "void f() { std::thread t([] {}); t.detach(); }\n";
    EXPECT_FALSE(fired(lintFile("tests/x.cc", body), "raw-thread"));
    EXPECT_FALSE(fired(lintFile("bench/x.cc", body), "raw-thread"));
    // A free function named detach (no member access) is a different
    // thing entirely.
    auto fs = lintFile("src/nx/x.cc", "void g() { detach(); }\n");
    EXPECT_FALSE(fired(fs, "raw-thread"));
    // std::mutex and condition_variable stay allowed everywhere.
    auto sync = lintFile("src/nx/x.cc",
                         "std::mutex m;\nstd::condition_variable cv;\n");
    EXPECT_FALSE(fired(sync, "raw-thread"));
}

// ---------------------------------------------------------------------------
// mutex-annotation
// ---------------------------------------------------------------------------

TEST(NxlintMutexAnnotation, UnannotatedStdMutexMemberFires)
{
    auto fs = lintFile("src/nx/pool.h",
                       "class Pool {\n"
                       "  private:\n"
                       "    std::mutex mu_;\n"
                       "    int count_ = 0;\n"
                       "};\n");
    ASSERT_TRUE(fired(fs, "mutex-annotation"));
    for (const Finding &f : fs) {
        if (f.rule == "mutex-annotation") {
            EXPECT_NE(f.message.find("NXSIM_GUARDED_BY(mu_)"),
                      std::string::npos);
        }
    }
}

TEST(NxlintMutexAnnotation, GuardedSiblingIsClean)
{
    auto fs = lintFile("src/nx/pool.h",
                       "class Pool {\n"
                       "  private:\n"
                       "    mutable std::mutex mu_;\n"
                       "    int count_ NXSIM_GUARDED_BY(mu_) = 0;\n"
                       "};\n");
    EXPECT_FALSE(fired(fs, "mutex-annotation"));
}

TEST(NxlintMutexAnnotation, NxMutexMemberFires)
{
    auto fs = lintFile("src/core/pool.h",
                       "class Pool {\n"
                       "    mutable nx::Mutex mu_;\n"
                       "};\n");
    EXPECT_TRUE(fired(fs, "mutex-annotation"));
}

TEST(NxlintMutexAnnotation, GuardMustNameTheRightMutex)
{
    // A GUARDED_BY naming some other mutex does not cover mu_.
    auto fs = lintFile("src/nx/pool.h",
                       "class Pool {\n"
                       "    std::mutex mu_;\n"
                       "    std::mutex other_;\n"
                       "    int n_ NXSIM_GUARDED_BY(other_) = 0;\n"
                       "};\n");
    EXPECT_TRUE(fired(fs, "mutex-annotation"));
}

TEST(NxlintMutexAnnotation, ReferenceMemberIsExempt)
{
    // A Mutex& borrows a capability owned elsewhere; there is nothing
    // in this class for it to guard.
    auto fs = lintFile("src/util/lock.h",
                       "class Borrower {\n"
                       "    nx::Mutex &mu_;\n"
                       "};\n");
    EXPECT_FALSE(fired(fs, "mutex-annotation"));
}

TEST(NxlintMutexAnnotation, SourceFilesAndNonSrcAreExempt)
{
    const char *body = "class P { std::mutex mu_; };\n";
    EXPECT_FALSE(fired(lintFile("src/nx/pool.cc", body),
                       "mutex-annotation"));
    EXPECT_FALSE(fired(lintFile("tests/helper.h", body),
                       "mutex-annotation"));
    EXPECT_FALSE(fired(lintFile("bench/helper.h", body),
                       "mutex-annotation"));
}

TEST(NxlintMutexAnnotation, JustifiedAllowSuppresses)
{
    auto fs = lintFile(
        "src/util/wrap.h",
        "class Wrap {\n"
        "    // nxlint: allow(mutex-annotation): wrapper owns the raw "
        "mutex\n"
        "    std::mutex mu_;\n"
        "};\n");
    EXPECT_FALSE(fired(fs, "mutex-annotation"));
}

// ---------------------------------------------------------------------------
// suppressions
// ---------------------------------------------------------------------------

TEST(NxlintSuppression, JustifiedAllowSuppressesSameLine)
{
    auto fs = lintFile("src/deflate/x.cc",
                       "uint8_t f(size_t n) { return "
                       "static_cast<uint8_t>(n); } "
                       "// nxlint: allow(narrow-cast): measured hot path\n");
    EXPECT_FALSE(fired(fs, "narrow-cast"));
}

TEST(NxlintSuppression, JustifiedAllowSuppressesNextLine)
{
    auto fs = lintFile("src/deflate/x.cc",
                       "int before;\n"
                       "// nxlint: allow(narrow-cast): lookup table index\n"
                       "uint8_t f(size_t n) "
                       "{ return static_cast<uint8_t>(n); }\n");
    EXPECT_FALSE(fired(fs, "narrow-cast"));
}

TEST(NxlintSuppression, AllowDoesNotLeakPastItsLine)
{
    // The leading declaration keeps the allow comment out of the
    // file-scope region, so it only covers the line below it.
    auto fs = lintFile("src/deflate/x.cc",
                       "int before;\n"
                       "// nxlint: allow(narrow-cast): first cast only\n"
                       "uint8_t f(size_t n) "
                       "{ return static_cast<uint8_t>(n); }\n"
                       "uint8_t g(size_t n) "
                       "{ return static_cast<uint8_t>(n); }\n");
    ASSERT_TRUE(fired(fs, "narrow-cast"));
    EXPECT_EQ(fs[0].line, 4);
}

TEST(NxlintSuppression, BareAllowWithoutReasonIsAFinding)
{
    auto fs = lintFile("src/deflate/x.cc",
                       "uint8_t f(size_t n) { return "
                       "static_cast<uint8_t>(n); } "
                       "// nxlint: allow(narrow-cast)\n");
    // The suppression is rejected, so BOTH rules fire.
    EXPECT_TRUE(fired(fs, "bare-allow"));
    EXPECT_TRUE(fired(fs, "narrow-cast"));
}

TEST(NxlintSuppression, UnknownRuleInAllowIsAFinding)
{
    auto fs = lintFile("src/nx/x.cc",
                       "int a; // nxlint: allow(no-such-rule): why\n");
    ASSERT_TRUE(fired(fs, "bare-allow"));
    EXPECT_NE(fs[0].message.find("no-such-rule"), std::string::npos);
}

TEST(NxlintSuppression, FileScopeAllowBeforeAnyCode)
{
    auto fs = lintFile("src/deflate/x.cc",
                       "// nxlint: allow(narrow-cast): generated table\n"
                       "#include \"a.h\"\n"
                       "uint8_t f(size_t n) "
                       "{ return static_cast<uint8_t>(n); }\n"
                       "uint8_t g(size_t n) "
                       "{ return static_cast<uint8_t>(n); }\n");
    EXPECT_FALSE(fired(fs, "narrow-cast"));
}

TEST(NxlintSuppression, UnusedAllowIsStale)
{
    auto fs = lintFile("src/deflate/x.cc",
                       "int before;\n"
                       "// nxlint: allow(narrow-cast): was needed before "
                       "the helper landed\n"
                       "uint8_t f(uint8_t n) { return n; }\n");
    ASSERT_TRUE(fired(fs, "stale-allow"));
    EXPECT_EQ(fs[0].line, 2);
    EXPECT_NE(fs[0].message.find("narrow-cast"), std::string::npos);
}

TEST(NxlintSuppression, UsedAllowIsNotStale)
{
    auto fs = lintFile("src/deflate/x.cc",
                       "int before;\n"
                       "// nxlint: allow(narrow-cast): lookup table index\n"
                       "uint8_t f(size_t n) "
                       "{ return static_cast<uint8_t>(n); }\n");
    EXPECT_FALSE(fired(fs, "stale-allow"));
}

TEST(NxlintSuppression, StaleAllowItselfCanBeExcused)
{
    // A suppression kept for a platform-conditional construct can be
    // excused with allow(stale-allow) leading the comment block.
    auto fs = lintFile("src/deflate/x.cc",
                       "int before;\n"
                       "// nxlint: allow(stale-allow): cast is ifdef'd "
                       "per target\n"
                       "// nxlint: allow(narrow-cast): only on z15 builds\n"
                       "uint8_t f(uint8_t n) { return n; }\n");
    EXPECT_FALSE(fired(fs, "stale-allow"));
}

TEST(NxlintSuppression, MultiLineJustificationCoversNextCodeLine)
{
    // The justification continues over a second `//` line; the cast
    // after the whole comment block is still covered.
    auto fs = lintFile("src/deflate/x.cc",
                       "int before;\n"
                       "// nxlint: allow(narrow-cast): the table index is\n"
                       "// masked to 8 bits two lines up\n"
                       "uint8_t f(size_t n) "
                       "{ return static_cast<uint8_t>(n); }\n");
    EXPECT_FALSE(fired(fs, "narrow-cast"));
    EXPECT_FALSE(fired(fs, "stale-allow"));
}

TEST(NxlintSuppression, MentionInProseDoesNotSuppress)
{
    auto fs = lintFile("src/deflate/x.cc",
                       "/* docs: write `// nxlint: allow(narrow-cast): "
                       "why` to suppress */\n"
                       "uint8_t f(size_t n) "
                       "{ return static_cast<uint8_t>(n); }\n");
    EXPECT_TRUE(fired(fs, "narrow-cast"));
}

// ---------------------------------------------------------------------------
// plumbing
// ---------------------------------------------------------------------------

TEST(NxlintFormat, MatchesFileLineRuleMessage)
{
    Finding f{"src/nx/crb.h", 12, "narrow-cast", "msg"};
    EXPECT_EQ(nxlint::format(f), "src/nx/crb.h:12: narrow-cast: msg");
}

TEST(NxlintRules, TableIsPopulatedAndUnique)
{
    const auto &rs = nxlint::rules();
    EXPECT_GE(rs.size(), 13u);
    for (size_t i = 0; i < rs.size(); ++i)
        for (size_t j = i + 1; j < rs.size(); ++j)
            EXPECT_NE(rs[i].id, rs[j].id);
}

TEST(NxlintScratchFile, UnrecognizedPathGetsStrictestScope)
{
    auto fs = lintFile("scratch.cc",
                       "void f() { assert(1); }\n"
                       "uint8_t g(size_t n) "
                       "{ return static_cast<uint8_t>(n); }\n");
    EXPECT_TRUE(fired(fs, "banned-call"));
    EXPECT_TRUE(fired(fs, "narrow-cast"));
}

TEST(NxlintFindings, AreSortedByLine)
{
    auto fs = lintFile("src/nx/x.cc",
                       "void f() { abort(); }\n"
                       "// TODO: later\n"
                       "uint8_t g(size_t n) "
                       "{ return static_cast<uint8_t>(n); }\n");
    ASSERT_EQ(fs.size(), 3u);
    EXPECT_LE(fs[0].line, fs[1].line);
    EXPECT_LE(fs[1].line, fs[2].line);
}

} // namespace
