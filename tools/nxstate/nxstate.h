/**
 * @file
 * nxstate — typestate protocol + lock-order analyzer.
 *
 * The fourth member of the in-tree static-analysis family (nxlint:
 * tokens, nxdeps: include edges, nxtaint: values). nxstate checks
 * *object lifecycles*: classes whose methods must be called in a
 * declared order (a stream must not be written after Finish, a ticket
 * must not be claimed twice) and mutexes that must be acquired in a
 * consistent global order.
 *
 * Protocols are declared next to the class they govern, either with
 * the macros from src/util/protocol.h:
 *
 *     NXSIM_PROTOCOL(DeflateStream,
 *                    setDictionary? -> write* -> write[Finish]);
 *     NXSIM_TICKET_PROTOCOL(JobServer, issue(submitAsync, submitWithRetry),
 *                           claim(wait), poll(poll), drain(drain),
 *                           stop(drainAndStop));
 *
 * or, for classes that must stay macro-free, as a comment:
 *
 *     // nxstate: protocol(BitWriter: {writeBits|alignToByte|drain}* -> take)
 *
 * Protocol grammar (one spec per class):
 *
 *     spec   := phase ('->' phase)*
 *     phase  := group mult?
 *     group  := atom | '{' atom ('|' atom)* '}'
 *     atom   := method | method '[' Marker ']'
 *     mult   := '*' (zero or more) | '+' (one or more)
 *            |  '?' (at most once)  | <none> (exactly once)
 *
 * `method[Marker]` matches a call whose argument list mentions the
 * identifier Marker (e.g. `write[Finish]` matches
 * `s.write(data, Flush::Finish, out)`); when a marked atom exists for
 * a method, unmarked calls of that method match only the unmarked
 * atoms. Methods that appear in no atom are unconstrained.
 *
 * The checker walks each function body with the shared CFG walker
 * (tools/common/cfg_walk.h: if/else joins, loop bodies walked twice,
 * each switch case entered from the head, early returns terminate
 * their path) tracking the *set* of phases
 * each protocol-typed local could be in. A finding fires only when
 * every possible phase rejects the call — must-violation semantics,
 * so branchy code never produces maybe-findings.
 *
 * Rules:
 *   protocol-order      method called before its declared phase is
 *                       reachable (e.g. a finish call before a
 *                       required earlier phase, or submit after
 *                       drainAndStop)
 *   use-after-finish    method of an earlier phase called after the
 *                       final phase consumed the object
 *   double-finish       a once-only final phase entered twice
 *   ticket-double-claim a ticket claimed twice, or claimed/polled
 *                       after drain() already claimed it
 *   lock-cycle          the global lock-acquisition graph has a cycle
 *                       (potential deadlock); --dot prints the graph
 *   protocol-decl       malformed or conflicting protocol declaration
 *   bare-allow          allow() without a justification / unknown rule
 *   stale-allow         allow() that no longer suppresses anything
 *   io-error            file could not be read
 *
 * Findings print as `file:line: rule-id: message` and can be
 * suppressed where they fire with
 *
 *     // nxstate: allow(rule-id): why this instance is fine
 *
 * (the shared grammar of tools/common/allow.h).
 */

#ifndef NXSIM_NXSTATE_NXSTATE_H
#define NXSIM_NXSTATE_NXSTATE_H

#include <string>
#include <string_view>
#include <vector>

#include "common/diag.h"
#include "common/fileset.h"

namespace nxstate {

/** One diagnostic (the shared analyzer-family shape). */
using Finding = nxcommon::Finding;

/** Rule metadata for --list-rules and the docs. */
using RuleInfo = nxcommon::RuleInfo;

/** One input file: tree-relative path plus its full contents. */
using SourceFile = nxcommon::SourceFile;

/** Everything one run produces. */
struct Analysis
{
    std::vector<Finding> findings;

    /** GraphViz DOT of the global lock-order graph. */
    std::string lockDot;
};

/** All rules, in the order they are checked. */
const std::vector<RuleInfo> &rules();

/**
 * Analyze an in-memory tree (fixture trees in tests, or the real one
 * loaded by analyzeTree). Protocol declarations are collected from
 * every file first, then every function body is checked, so a class
 * annotated in its header is enforced in every .cc.
 */
[[nodiscard]] Analysis analyzeFiles(const std::vector<SourceFile> &files);

/**
 * Load every *.h / *.hpp / *.cc / *.cpp under @p root's src/, tools/,
 * bench/ and examples/ subtrees (or @p root itself when none exist)
 * and analyze them. tests/ and fuzz/ are deliberately out of scope:
 * they exercise misuse on purpose. Unreadable files produce an
 * "io-error" finding.
 */
[[nodiscard]] Analysis analyzeTree(const std::string &root);

/** Render a finding as `file:line: rule-id: message`. */
std::string format(const Finding &f);

} // namespace nxstate

#endif // NXSIM_NXSTATE_NXSTATE_H
