/**
 * @file
 * Drives nxown (tools/nxown) on small in-memory fixture trees:
 * annotation harvesting and classification (RAII destructors, by-arg
 * and drain-all releases, malformed annotations), the CFG walker's
 * exists-leak / must-double-release semantics, transfer forms
 * (std::move, return, NXSIM_TRANSFERS, unknown callees), derived
 * cross-function summaries over the call graph, and the shared
 * suppression grammar. The real-tree invocation (which must be clean)
 * runs both here and as the separate `nxown` ctest; the inversion
 * differential — dropping the pool_buffer release annotations must
 * surface the real acquire sites — is the evidence that the clean run
 * is earned rather than vacuous.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nxown/nxown.h"

namespace {

using nxown::analyzeFiles;
using nxown::analyzeTree;
using nxown::Finding;
using nxown::Options;
using nxown::SourceFile;

/** Canonical vocabulary used by most fixtures: a non-RAII int handle
 * acquired from Pool, released by-arg via put() or wholesale via
 * drainAll(). */
const char *kPoolDecl =
    "struct Pool {\n"
    "    int acquire(int n) NXSIM_ACQUIRES(buf);\n"
    "    void put(int h) NXSIM_RELEASES(buf);\n"
    "    void drainAll() NXSIM_RELEASES(buf);\n"
    "};\n";

std::vector<Finding>
run(const std::string &body, const std::string &decls = kPoolDecl)
{
    std::vector<SourceFile> files;
    files.push_back({"src/fix.cc", decls + body});
    return analyzeFiles(files);
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
        out += nxown::format(f) + "\n";
    return out;
}

// ---------------------------------------------------------------------------
// leak detection (exists-path semantics)
// ---------------------------------------------------------------------------

TEST(NxownLeak, EarlyReturnPathLeaks)
{
    // kPoolDecl is 5 lines; the acquire binding lands on line 7.
    auto fs = run("int f(Pool &p, bool c) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    if (c)\n"
                  "        return 0;\n"
                  "    p.put(h);\n"
                  "    return 1;\n"
                  "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-leak");
    EXPECT_EQ(fs[0].line, 7);
}

TEST(NxownLeak, ReleasedOnEveryPathIsClean)
{
    auto fs = run("int f(Pool &p, bool c) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    if (c) {\n"
                  "        p.put(h);\n"
                  "        return 0;\n"
                  "    }\n"
                  "    p.put(h);\n"
                  "    return 1;\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxownLeak, FallingOffTheEndLeaks)
{
    auto fs = run("void f(Pool &p) {\n"
                  "    auto h = p.acquire(4);\n"
                  "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-leak");
}

TEST(NxownLeak, RaiiHolderExitsClean)
{
    // A RELEASES destructor marks Lease as RAII: its handles exit
    // clean without an explicit release.
    auto fs = run("int f(Pool &p) {\n"
                  "    auto l = p.acquire(8);\n"
                  "    return 0;\n"
                  "}\n",
                  "struct Lease {\n"
                  "    ~Lease() NXSIM_RELEASES(buf);\n"
                  "};\n"
                  "struct Pool {\n"
                  "    Lease acquire(int n) NXSIM_ACQUIRES(buf);\n"
                  "};\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxownLeak, SwitchReleasingInEveryCaseIsClean)
{
    const std::string head = "int f(Pool &p, int k) {\n"
                             "    auto h = p.acquire(4);\n"
                             "    switch (k) {\n"
                             "    case 0: p.put(h); break;\n";
    const std::string tail = "    }\n"
                             "    return 0;\n"
                             "}\n";
    auto fs = run(head + "    default: p.put(h); break;\n" + tail);
    EXPECT_TRUE(fs.empty()) << dump(fs);
    // Without a default label, k may match no case: the handle leaks.
    fs = run(head + "    case 1: p.put(h); break;\n" + tail);
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-leak");
}

TEST(NxownLeak, BreakInsideACaseLeaksPastTheSwitch)
{
    // The `if (c) break;` path leaves case 0 with the handle held.
    auto fs = run("int f(Pool &p, int k, bool c) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    switch (k) {\n"
                  "    case 0: if (c) break; p.put(h); break;\n"
                  "    default: p.put(h); break;\n"
                  "    }\n"
                  "    return 0;\n"
                  "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-leak");
}

TEST(NxownLeak, BothBranchesReleasingInALoopIsClean)
{
    // One branch breaks, the other continues; both released the handle.
    auto fs = run("int f(Pool &p, int n, bool c) {\n"
                  "    for (int i = 0; i < n; ++i) {\n"
                  "        auto h = p.acquire(4);\n"
                  "        if (c) { p.put(h); break; } "
                  "else { p.put(h); continue; }\n"
                  "    }\n"
                  "    return 0;\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxownLeak, ContinueCarriesTheHandleToTheLoopExit)
{
    // The continue skips the put, and the loop may end right after it.
    auto fs = run("int f(Pool &p, int n, bool c) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    p.put(h);\n"
                  "    while (n-- > 0) {\n"
                  "        h = p.acquire(4);\n"
                  "        if (c) continue;\n"
                  "        p.put(h);\n"
                  "    }\n"
                  "    return 0;\n"
                  "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-leak");
}

TEST(NxownLeak, ConditionMentioningHandleGuardsExits)
{
    // `if (!r.accepted()) return -1;` — the analyzer cannot model the
    // predicate, so once the code branches on the handle its exits
    // stop counting as leaks (the submitWithRetry not-accepted idiom).
    auto fs = run("int f(Pool &p) {\n"
                  "    auto r = p.acquire(1);\n"
                  "    if (!r.accepted())\n"
                  "        return -1;\n"
                  "    p.put(r);\n"
                  "    return 0;\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxownLeak, ContractMacroGuardsLikeACondition)
{
    auto fs = run("int f(Pool &p) {\n"
                  "    auto r = p.acquire(1);\n"
                  "    NXSIM_EXPECT(r.accepted(), \"submit accepted\");\n"
                  "    return 0;\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxownLeak, DrainAllReleasesEveryLiveHandle)
{
    auto fs = run("int f(Pool &p) {\n"
                  "    auto a = p.acquire(1);\n"
                  "    auto b = p.acquire(2);\n"
                  "    p.drainAll();\n"
                  "    return 0;\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxownLeak, ReceiverReleaseOnHolderMethod)
{
    // close() is a method of the holder type (Lease = what acquire
    // returns), so `l.close()` releases the receiver's handle.
    const char *decls = "struct Lease {\n"
                        "    void close() NXSIM_RELEASES(buf);\n"
                        "};\n"
                        "struct Pool {\n"
                        "    Lease acquire(int n) NXSIM_ACQUIRES(buf);\n"
                        "};\n";
    auto clean = run("int f(Pool &p) {\n"
                     "    auto l = p.acquire(4);\n"
                     "    l.close();\n"
                     "    return 0;\n"
                     "}\n",
                     decls);
    EXPECT_TRUE(clean.empty()) << dump(clean);
    auto leak = run("int f(Pool &p) {\n"
                    "    auto l = p.acquire(4);\n"
                    "    return 0;\n"
                    "}\n",
                    decls);
    EXPECT_TRUE(fired(leak, "own-leak")) << dump(leak);
}

// ---------------------------------------------------------------------------
// double release / release after transfer (must semantics)
// ---------------------------------------------------------------------------

TEST(NxownRelease, DoubleReleaseIsReported)
{
    auto fs = run("int f(Pool &p) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    p.put(h);\n"
                  "    p.put(h);\n"
                  "    return 0;\n"
                  "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-double-release");
    EXPECT_EQ(fs[0].line, 9); // reported at the second put()
}

TEST(NxownRelease, ReleaseOnOneBranchOnlyIsNotDouble)
{
    // Must-semantics: the second put() sees {Held, Released}, not
    // {Released}, so branchy code never yields maybe-findings.
    auto fs = run("int f(Pool &p, bool c) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    if (c)\n"
                  "        p.put(h);\n"
                  "    p.put(h);\n"
                  "    return 0;\n"
                  "}\n");
    EXPECT_FALSE(fired(fs, "own-double-release")) << dump(fs);
}

TEST(NxownRelease, DoWhileBodyRunsTwice)
{
    auto fs = run("int f(Pool &p, int n) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    do {\n"
                  "        p.put(h);\n"
                  "    } while (n-- > 0);\n"
                  "    return 0;\n"
                  "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-double-release");
    EXPECT_EQ(fs[0].line, 9);
}

TEST(NxownRelease, DoubleReleaseInALaterSwitchCase)
{
    auto fs = run("int f(Pool &p, int k) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    switch (k) {\n"
                  "    case 0: p.put(h); break;\n"
                  "    case 1: p.put(h); p.put(h); break;\n"
                  "    default: p.put(h); break;\n"
                  "    }\n"
                  "    return 0;\n"
                  "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-double-release");
    EXPECT_EQ(fs[0].line, 10);
}

TEST(NxownRelease, BreakInsideACaseIsNotADoubleRelease)
{
    // The `if (c) break;` path reaches the last put still holding h.
    auto fs = run("int f(Pool &p, int k, bool c) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    switch (k) {\n"
                  "    case 0: if (c) break; p.put(h); break;\n"
                  "    default: p.put(h); break;\n"
                  "    }\n"
                  "    p.put(h);\n"
                  "    return 0;\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxownRelease, ReacquiringLoopThatBreaksIsNotADoubleRelease)
{
    // The break leaves the loop holding the handle it just acquired.
    auto fs = run("int f(Pool &p, int n, bool c) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    p.put(h);\n"
                  "    while (n-- > 0) {\n"
                  "        h = p.acquire(4);\n"
                  "        if (c) break;\n"
                  "        p.put(h);\n"
                  "    }\n"
                  "    p.put(h);\n"
                  "    return 0;\n"
                  "}\n");
    EXPECT_FALSE(fired(fs, "own-double-release")) << dump(fs);
}

TEST(NxownRelease, ReturnInsideALoopDoesNotReachTheCodeAfterIt)
{
    // Only the path that skips the loop reaches the last put, and on
    // it h was already released.
    auto fs = run("int f(Pool &p, int n) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    p.put(h);\n"
                  "    while (n-- > 0) {\n"
                  "        h = p.acquire(4);\n"
                  "        return h;\n"
                  "    }\n"
                  "    p.put(h);\n"
                  "    return 0;\n"
                  "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-double-release");
    EXPECT_EQ(fs[0].line, 13);
}

TEST(NxownRelease, ReleaseAfterStdMoveIsReported)
{
    auto fs = run("int f(Pool &p) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    sink(std::move(h));\n"
                  "    p.put(h);\n"
                  "    return 0;\n"
                  "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-release-unacquired");
}

TEST(NxownRelease, ReturningTheHandleTransfersToCaller)
{
    auto fs = run("int f(Pool &p) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    return h;\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxownRelease, TransfersAnnotationMovesTheArgument)
{
    auto fs = run("int f(Pool &p, Q &q) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    q.push(h);\n"
                  "    return 0;\n"
                  "}\n"
                  "int g(Pool &p, Q &q) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    q.push(h);\n"
                  "    p.put(h);\n"
                  "    return 0;\n"
                  "}\n",
                  std::string(kPoolDecl) +
                      "struct Q {\n"
                      "    void push(int t) NXSIM_TRANSFERS(buf);\n"
                      "};\n");
    // f: transfer ends the obligation. g: releasing after an explicit
    // transfer is a must-finding.
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-release-unacquired");
}

TEST(NxownRelease, UnknownCalleeIsNeverAFinding)
{
    // Passing the handle (or a member path of it) to a function the
    // analyzer cannot see into is a possible hand-off: no leak at the
    // exit, and no release-after-transfer on a later put().
    auto fs = run("int f(Pool &p) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    stash(h);\n"
                  "    return 0;\n"
                  "}\n"
                  "int g(Pool &p) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    observe(h);\n"
                  "    p.put(h);\n"
                  "    return 0;\n"
                  "}\n");
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ---------------------------------------------------------------------------
// tickets: JobServer's vocabulary, claimed exactly once
// ---------------------------------------------------------------------------

/** submit() issues a ticket, wait() claims one, drain() and stop()
 * claim every outstanding one — JobServer's annotations. */
const char *kTicketDecl =
    "struct Srv {\n"
    "    Result submit(Spec s) NXSIM_ACQUIRES(job_ticket);\n"
    "    Job wait(Ticket t) NXSIM_RELEASES(job_ticket);\n"
    "    std::vector<Job> drain() NXSIM_RELEASES(job_ticket);\n"
    "    void stop() NXSIM_RELEASES(job_ticket);\n"
    "};\n";

TEST(NxownTicket, WaitOnceIsClean)
{
    auto fs = run("void f(Srv &srv) {\n"
                  "    auto r = srv.submit(spec);\n"
                  "    srv.wait(r.ticket);\n"
                  "}\n",
                  kTicketDecl);
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxownTicket, DoubleWaitFires)
{
    auto fs = run("void f(Srv &srv) {\n"
                  "    auto r = srv.submit(spec);\n"
                  "    srv.wait(r.ticket);\n"
                  "    srv.wait(r.ticket);\n"
                  "}\n",
                  kTicketDecl);
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-double-release");
    EXPECT_EQ(fs[0].line, 10);   // second wait (decls occupy lines 1-6)
}

TEST(NxownTicket, WaitAfterDrainFires)
{
    auto fs = run("void f(Srv &srv) {\n"
                  "    auto r = srv.submit(spec);\n"
                  "    srv.drain();\n"
                  "    srv.wait(r.ticket);\n"
                  "}\n",
                  kTicketDecl);
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-double-release");
    EXPECT_EQ(fs[0].line, 10);
}

TEST(NxownTicket, ClaimedBeforeDrainStaysClean)
{
    auto fs = run("void f(Srv &srv) {\n"
                  "    auto r = srv.submit(spec);\n"
                  "    srv.wait(r.ticket);\n"
                  "    srv.drain();\n"
                  "}\n",
                  kTicketDecl);
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxownTicket, AliasIsTracked)
{
    // `auto u = t;` copies the ticket: the wait through t claims u too.
    auto fs = run("void f(Srv &srv) {\n"
                  "    auto t = srv.submit(spec).ticket;\n"
                  "    auto u = t;\n"
                  "    srv.wait(t);\n"
                  "    srv.wait(u);\n"
                  "}\n",
                  kTicketDecl);
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-double-release");
    EXPECT_EQ(fs[0].line, 11);
}

TEST(NxownTicket, ClaimThroughTheCopyClaimsTheOriginal)
{
    // The member path of a bound result copies it as well
    // (`Ticket t = r.ticket;`), and claiming the copy leaves nothing
    // held at the exit.
    auto fs = run("void f(Srv &srv) {\n"
                  "    auto r = srv.submit(spec);\n"
                  "    Ticket t = r.ticket;\n"
                  "    srv.wait(t);\n"
                  "}\n",
                  kTicketDecl);
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxownTicket, TwoTicketsAreIndependent)
{
    auto fs = run("void f(Srv &srv) {\n"
                  "    auto a = srv.submit(s1);\n"
                  "    auto b = srv.submit(s2);\n"
                  "    srv.wait(a.ticket);\n"
                  "    srv.wait(b.ticket);\n"
                  "}\n",
                  kTicketDecl);
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxownTicket, WaitInBranchThenJoinStaysClean)
{
    auto fs = run("void f(Srv &srv, bool c) {\n"
                  "    auto r = srv.submit(spec);\n"
                  "    if (c) srv.wait(r.ticket);\n"
                  "    else srv.wait(r.ticket);\n"
                  "}\n",
                  kTicketDecl);
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ---------------------------------------------------------------------------
// derived cross-function summaries
// ---------------------------------------------------------------------------

TEST(NxownCross, CalleeReleasingItsParamConsumesCallerHandle)
{
    // finish() releases its parameter, so the call graph summary makes
    // `finish(p, h)` consume h — proven by the put() afterwards being
    // a double release (an unknown callee would have made it silent).
    auto fs = run("void finish(Pool &p, int t) {\n"
                  "    p.put(t);\n"
                  "}\n"
                  "int f(Pool &p) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    finish(p, h);\n"
                  "    p.put(h);\n"
                  "    return 0;\n"
                  "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-double-release");
    EXPECT_EQ(fs[0].line, 12);
}

TEST(NxownCross, CalleeReturningHeldHandleActsAsAcquirer)
{
    auto fs = run("int grab(Pool &p) {\n"
                  "    return p.acquire(4);\n"
                  "}\n"
                  "int f(Pool &p) {\n"
                  "    auto h = grab(p);\n"
                  "    return 0;\n"
                  "}\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-leak");
    EXPECT_EQ(fs[0].line, 10);
}

TEST(NxownCross, HelperChainBalancesAcrossFiles)
{
    std::vector<SourceFile> files;
    files.push_back({"src/pool.h", kPoolDecl});
    files.push_back({"src/helper.cc",
                     "int grab(Pool &p) {\n"
                     "    auto h = p.acquire(4);\n"
                     "    return h;\n"
                     "}\n"
                     "void finish(Pool &p, int t) {\n"
                     "    p.put(t);\n"
                     "}\n"});
    files.push_back({"src/user.cc",
                     "int f(Pool &p) {\n"
                     "    auto h = grab(p);\n"
                     "    finish(p, h);\n"
                     "    return 0;\n"
                     "}\n"});
    auto fs = analyzeFiles(files);
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

// ---------------------------------------------------------------------------
// annotations
// ---------------------------------------------------------------------------

TEST(NxownAnnotation, MalformedTagAndPlacementAreReported)
{
    std::vector<SourceFile> files;
    files.push_back({"src/a.h",
                     "struct P {\n"
                     "    int acquire(int n) NXSIM_ACQUIRES();\n"
                     "    void put(int h) NXSIM_RELEASES(a.b);\n"
                     "};\n"
                     "int x = 3;\n"
                     "NXSIM_ACQUIRES(tok);\n"});
    auto fs = analyzeFiles(files);
    ASSERT_EQ(fs.size(), 3u) << dump(fs);
    for (const Finding &f : fs)
        EXPECT_EQ(f.rule, "own-annotation");
}

TEST(NxownAnnotation, SiblingAnnotationGroupsAreSkipped)
{
    // Thread-safety annotations sit between the parameter list and the
    // ownership macro on the real BufferPool::acquire; the harvester
    // walks over them.
    auto fs = run("int f(Pool &p) {\n"
                  "    auto h = p.acquire(4);\n"
                  "    return 0;\n"
                  "}\n",
                  "struct Pool {\n"
                  "    int acquire(int n) NXSIM_EXCLUDES(mu_)"
                  " NXSIM_ACQUIRES(buf);\n"
                  "};\n");
    ASSERT_EQ(fs.size(), 1u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-leak");
}

// ---------------------------------------------------------------------------
// suppressions
// ---------------------------------------------------------------------------

TEST(NxownAllow, AllowSuppressesAndStaleIsReported)
{
    auto suppressed =
        run("int f(Pool &p) {\n"
            "    // nxown: allow(own-leak): handed to the device table,\n"
            "    // reclaimed by the teardown sweep\n"
            "    auto h = p.acquire(4);\n"
            "    return 0;\n"
            "}\n");
    EXPECT_TRUE(suppressed.empty()) << dump(suppressed);

    auto stale = run("int f(Pool &p) {\n"
                     "    // nxown: allow(own-leak): nothing leaks here\n"
                     "    auto h = p.acquire(4);\n"
                     "    p.put(h);\n"
                     "    return 0;\n"
                     "}\n");
    ASSERT_EQ(stale.size(), 1u) << dump(stale);
    EXPECT_EQ(stale[0].rule, "stale-allow");
}

TEST(NxownAllow, BareAllowIsReported)
{
    auto fs = run("// nxown: allow(own-leak)\n"
                  "int f(Pool &p) { return 0; }\n");
    EXPECT_TRUE(fired(fs, "bare-allow")) << dump(fs);
}

// ---------------------------------------------------------------------------
// the real tree
// ---------------------------------------------------------------------------

TEST(NxownTree, RealTreeIsClean)
{
    auto fs = analyzeTree(NXSIM_SOURCE_DIR);
    EXPECT_TRUE(fs.empty()) << dump(fs);
}

TEST(NxownTree, InvertingPoolReleasesSurfacesRealAcquires)
{
    // The differential that keeps the clean run honest: drop every
    // pool_buffer RELEASES annotation (including the Lease RAII
    // destructor) and each real BufferPool::acquire call site must
    // surface as an own-leak — in particular the Session hot path.
    Options opt;
    opt.ignoreReleaseTags = {"pool_buffer"};
    auto fs = analyzeTree(NXSIM_SOURCE_DIR, opt);
    ASSERT_FALSE(fs.empty()) << "inversion surfaced nothing";
    for (const Finding &f : fs)
        EXPECT_EQ(f.rule, "own-leak") << dump(fs);
    EXPECT_TRUE(std::any_of(fs.begin(), fs.end(), [](const Finding &f) {
        return f.file == "src/core/session.cc";
    })) << dump(fs);
}

TEST(NxownTree, IgnoreReleaseTagsDropsReleasesAndRaiiMarkers)
{
    // The knob itself, on a deterministic fixture: code that balances
    // via an explicit receiver release and code that relies on a RAII
    // destructor both turn into leaks once their tag's RELEASES
    // annotations are ignored. (A dropped by-arg release decays into
    // an unknown callee, which conservatively guards the handle — so
    // the differential signal comes from receiver and RAII forms, the
    // shapes the real Lease uses.)
    std::vector<SourceFile> files;
    files.push_back({"src/fix.cc",
                     "struct Lease {\n"
                     "    ~Lease() NXSIM_RELEASES(raii_buf);\n"
                     "};\n"
                     "struct CLease {\n"
                     "    void close() NXSIM_RELEASES(expl_buf);\n"
                     "};\n"
                     "struct RaiiPool {\n"
                     "    Lease take(int n) NXSIM_ACQUIRES(raii_buf);\n"
                     "};\n"
                     "struct CPool {\n"
                     "    CLease grab(int n) NXSIM_ACQUIRES(expl_buf);\n"
                     "};\n"
                     "int f(CPool &p) {\n"
                     "    auto h = p.grab(4);\n"
                     "    h.close();\n"
                     "    return 0;\n"
                     "}\n"
                     "int g(RaiiPool &p) {\n"
                     "    auto l = p.take(8);\n"
                     "    return 0;\n"
                     "}\n"});
    EXPECT_TRUE(analyzeFiles(files).empty());
    Options both;
    both.ignoreReleaseTags = {"expl_buf", "raii_buf"};
    auto fs = analyzeFiles(files, both);
    ASSERT_EQ(fs.size(), 2u) << dump(fs);
    EXPECT_EQ(fs[0].rule, "own-leak");
    EXPECT_EQ(fs[1].rule, "own-leak");
}

} // namespace
