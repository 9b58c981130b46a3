/**
 * @file
 * The shared CFG walker (tools/common/cfg_walk.h) on its own, under a
 * toy analysis whose state is the set of paths reached: each path is
 * the string of statement labels (a statement's first identifier)
 * along it, and `!` marks a return/throw. That pins the walker's
 * contract directly — if/else fork and join, loop bodies walked twice,
 * dead code after an exit, catch joined with the try state, per-case
 * switch with and without `default:`, break and continue reaching their
 * loop or switch from inside an if — independent of the typestate and
 * ownership rules built on top of it.
 */

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cfg_walk.h"
#include "common/lexer.h"
#include "common/tokens.h"

namespace {

using nxcommon::CfgWalk;
using nxlex::Token;
using Paths = std::set<std::string>;

struct PathAnalysis
{
    using State = Paths;

    const std::vector<Token> &t;
    std::vector<std::string> heads;   ///< condition texts, in walk order

    static Paths
    join(const Paths &a, const Paths &b)
    {
        Paths j = a;
        j.insert(b.begin(), b.end());
        return j;
    }

    void
    statement(size_t b, size_t, Paths &st)
    {
        append(st, t[b].text);
    }

    void
    condition(size_t b, size_t e, Paths &)
    {
        std::string s;
        for (size_t i = b; i < e; ++i)
            s += t[i].text;
        heads.push_back(s);
    }

    void
    exit(size_t, size_t, Paths &st)
    {
        append(st, "!");
    }

    static void
    append(Paths &st, const std::string &label)
    {
        Paths out;
        for (const std::string &p : st)
            out.insert(p + label);
        st = std::move(out);
    }
};

struct Walked
{
    Paths paths;
    bool ended = false;
    std::vector<std::string> heads;
};

Walked
walk(const std::string &body)
{
    std::vector<Token> t = nxcommon::mergeOperators(nxlex::Lexer(body).run());
    PathAnalysis a{t, {}};
    Walked w;
    w.paths = {""};
    w.ended = CfgWalk<PathAnalysis>(t, a).walk(0, t.size(), w.paths);
    w.heads = a.heads;
    return w;
}

TEST(CfgWalk, IfElseForksAndJoins)
{
    Walked w = walk("A(); if (c) { B(); } else { C(); } D();");
    EXPECT_EQ(w.paths, (Paths{"ABD", "ACD"}));
    EXPECT_FALSE(w.ended);
    EXPECT_EQ(w.heads, (std::vector<std::string>{"c"}));
}

TEST(CfgWalk, IfWithoutElseJoinsTheSkippedPath)
{
    EXPECT_EQ(walk("if (c) B(); D();").paths, (Paths{"BD", "D"}));
}

TEST(CfgWalk, BranchThatExitsDropsOutOfTheJoin)
{
    EXPECT_EQ(walk("if (c) { B(); return; } D();").paths, (Paths{"D"}));
    EXPECT_EQ(walk("if (c) B(); else { C(); throw e; } D();").paths,
              (Paths{"BD"}));
}

TEST(CfgWalk, BothBranchesExitingEndsThePath)
{
    Walked w = walk("if (c) { B(); return; } else { C(); throw e; } D();");
    EXPECT_TRUE(w.ended);
    EXPECT_EQ(w.paths, (Paths{"B!", "C!"}));
}

TEST(CfgWalk, LoopBodiesAreWalkedTwice)
{
    EXPECT_EQ(walk("while (c) B(); D();").paths,
              (Paths{"D", "BD", "BBD"}));
    EXPECT_EQ(walk("for (i = 0; i < n; ++i) { B(); } D();").paths,
              (Paths{"D", "BD", "BBD"}));
    Walked w = walk("do { B(); } while (c); D();");
    EXPECT_EQ(w.paths, (Paths{"BD", "BBD"}));   // a do body always runs
    EXPECT_EQ(w.heads, (std::vector<std::string>{"c"}));
}

TEST(CfgWalk, LoopHeadRunsAgainOnEachBackEdge)
{
    // A while head whole; a for head past its init; a range-for head
    // once; a do-while head once, after the body.
    using Heads = std::vector<std::string>;
    EXPECT_EQ(walk("while (c) B();").heads, (Heads{"c", "c", "c"}));
    EXPECT_EQ(walk("for (i = 0; i < n; ++i) B();").heads,
              (Heads{"i=0;i<n;++i", "i<n;++i", "i<n;++i"}));
    EXPECT_EQ(walk("for (x : xs) B();").heads, (Heads{"x:xs"}));
    EXPECT_EQ(walk("do B(); while (c);").heads, (Heads{"c"}));
    // A continue reaches the back edge; a pass that breaks does not.
    EXPECT_EQ(walk("while (c) { continue; }").heads,
              (Heads{"c", "c", "c"}));
    EXPECT_EQ(walk("while (c) { break; }").heads, (Heads{"c"}));
}

TEST(CfgWalk, CodeAfterReturnOrBreakIsDead)
{
    Walked w = walk("A(); return; B();");
    EXPECT_TRUE(w.ended);
    EXPECT_EQ(w.paths, (Paths{"A!"}));
    // The body ended in its first pass, so there is no second one.
    EXPECT_EQ(walk("while (c) { B(); break; C(); } D();").paths,
              (Paths{"D", "BD"}));
}

TEST(CfgWalk, CatchIsJoinedWithTheTryState)
{
    EXPECT_EQ(walk("try { A(); } catch (const E &e) { B(); } D();").paths,
              (Paths{"AD", "ABD"}));
}

TEST(CfgWalk, SwitchEntersEveryCaseFromTheHead)
{
    // case 1 falls through into case 2, which joins the head's state;
    // with a default label no path skips every case.
    Walked w = walk("A(); switch (k) {\n"
                    "case 0: B(); break;\n"
                    "case 1: C();\n"
                    "case 2: D(); break;\n"
                    "default: E();\n"
                    "}\n"
                    "F();");
    EXPECT_EQ(w.paths, (Paths{"ABF", "ACDF", "ADF", "AEF"}));
    EXPECT_EQ(w.heads, (std::vector<std::string>{"k"}));
}

TEST(CfgWalk, SwitchWithoutDefaultJoinsTheHead)
{
    EXPECT_EQ(walk("switch (k) { case 0: B(); break; case 1: C(); break; }"
                   " F();")
                  .paths,
              (Paths{"BF", "CF", "F"}));
}

TEST(CfgWalk, SwitchCodeNoLabelReachesIsDead)
{
    EXPECT_EQ(walk("switch (k) { X(); case 0: B(); break; Y(); default: "
                   "C(); } F();")
                  .paths,
              (Paths{"BF", "CF"}));
}

TEST(CfgWalk, SwitchBreakInsideIfReachesTheExit)
{
    EXPECT_EQ(walk("switch (k) { case 0: if (c) break; B(); break; "
                   "default: C(); } F();")
                  .paths,
              (Paths{"F", "BF", "CF"}));
}

TEST(CfgWalk, SwitchWhereEveryCaseExitsEndsThePath)
{
    Walked w = walk("switch (k) { case 0: A(); return; default: throw e; }"
                    " D();");
    EXPECT_TRUE(w.ended);
    EXPECT_FALSE(walk("switch (k) { case 0: return; } D();").ended);
}

TEST(CfgWalk, LoopBreakInsideIfReachesTheExit)
{
    // Each pass breaks after its A or runs on through B.
    EXPECT_EQ(walk("while (c) { A(); if (x) break; B(); } D();").paths,
              (Paths{"D", "AD", "ABD", "ABAD", "ABABD"}));
}

TEST(CfgWalk, ContinueFeedsTheSecondPassAndTheExit)
{
    EXPECT_EQ(walk("while (c) { A(); if (x) continue; B(); } D();").paths,
              (Paths{"D", "AD", "ABD", "AAD", "ABAD", "AABD", "ABABD"}));
    // A continue that ends the body still starts the second pass.
    EXPECT_EQ(walk("while (c) { A(); continue; } D();").paths,
              (Paths{"D", "AD", "AAD"}));
}

TEST(CfgWalk, ReturnInsideALoopDoesNotReachTheCodeAfterIt)
{
    EXPECT_EQ(walk("while (c) { A(); return; } D();").paths, (Paths{"D"}));
    EXPECT_TRUE(walk("do { A(); return; } while (c); D();").ended);
}

TEST(CfgWalk, InlineLambdaIsPartOfItsStatement)
{
    // The lambda body is not control flow of the enclosing body: the
    // statement holding it reaches `statement` as one range, and its
    // `return` ends neither the path nor the loop pass around it.
    std::vector<Token> t = nxcommon::mergeOperators(
        nxlex::Lexer("A(); F([&] { if (c) return; B(); }); D();").run());
    struct Ranges : PathAnalysis
    {
        std::vector<std::pair<size_t, size_t>> seen;

        void
        statement(size_t b, size_t e, Paths &st)
        {
            seen.emplace_back(b, e);
            PathAnalysis::statement(b, e, st);
        }
    } a{{t, {}}, {}};
    Paths paths{""};
    EXPECT_FALSE(CfgWalk<Ranges>(t, a).walk(0, t.size(), paths));
    EXPECT_EQ(paths, (Paths{"AFD"}));
    ASSERT_EQ(a.seen.size(), 3u);
    EXPECT_EQ(t[a.seen[1].first].text, "F");
    EXPECT_EQ(t[a.seen[1].second].text, ";");
    EXPECT_EQ(t[a.seen[1].second - 1].text, ")");
    EXPECT_TRUE(a.heads.empty());

    EXPECT_EQ(walk("while (x) { A(); F([&] { if (c) return; B(); }); } D();")
                  .paths,
              (Paths{"D", "AFD", "AFAFD"}));
}

TEST(CfgWalk, BreakAndContinueTargetTheInnermostConstruct)
{
    // The loop's break leaves the loop, not the switch around it.
    EXPECT_EQ(walk("switch (k) { case 0: while (c) { A(); break; } B(); "
                   "break; default: C(); } D();")
                  .paths,
              (Paths{"BD", "ABD", "CD"}));
    // The continue inside the switch skips B and goes to the loop's
    // back edge; the switch's break goes on to B.
    EXPECT_EQ(walk("while (c) { switch (k) { case 0: A(); continue; "
                   "default: break; } B(); } D();")
                  .paths,
              (Paths{"D", "AD", "BD", "AAD", "BAD", "ABD", "BBD"}));
}

} // namespace
