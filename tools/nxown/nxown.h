/**
 * @file
 * nxown — resource acquire/release discipline analyzer.
 *
 * The fifth member of the analyzer family (nxlint: tokens, nxdeps:
 * include edges, nxtaint: values, nxstate: lifecycles). nxown checks
 * *ownership*: resources that must be released exactly once on every
 * path. The accelerator protocol is built from exactly such hand-offs
 * — a JobServer ticket is issued by submit and must be consumed by
 * exactly one wait/drain on the success path, the translation-fault
 * resubmit ladder, and every early return. nxown is the one checker
 * of that ticket lifecycle.
 *
 * The vocabulary lives in src/util/ownership.h:
 *
 *     SubmitResult submitAsync(JobSpec, int) NXSIM_ACQUIRES(job_ticket);
 *     AsyncJob wait(Ticket t) NXSIM_RELEASES(job_ticket);
 *     std::vector<AsyncJob> drain() NXSIM_RELEASES(job_ticket);
 *
 * A RELEASES destructor marks the class as an RAII holder (its
 * handles exit clean); RELEASES on a parameterless non-holder method
 * drains the live handles of the tag acquired through the same
 * receiver root (`b.drain()` claims what `b.submit()` issued, not
 * what `a.submit()` did), or all of them when called without a
 * receiver; RELEASES with parameters consumes the handle rooted at
 * an argument (wait(sub.ticket) releases `sub`). A copy of a bound
 * handle (`auto u = t;`, `Ticket t = sub.ticket;`) names the same
 * handle, so a release through either name releases both.
 * NXSIM_TRANSFERS — and returning a handle, std::move, or passing it
 * whole to a function the analyzer cannot see into — ends the local
 * obligation without a release, so unknown callees are never
 * findings.
 *
 * Each function body is walked by the CFG walker shared with nxstate
 * and nxtaint (tools/common/cfg_walk.h: if/else forks and joins, loop bodies
 * twice, switch cases entered from the head, early returns terminate
 * their path) tracking the *possible-state set* of every
 * handle. A leak fires when a path can exit still holding (exists-
 * path); double-release and release-after-transfer fire only when
 * every possible state agrees (must-semantics) — branchy code never
 * produces maybe-findings. A condition that mentions the handle
 * (`if (!r.accepted()) return 0;`, NXSIM_EXPECT contracts) marks it
 * conditional: the acquire may not have happened on this path, so
 * exits stop counting as leaks.
 *
 * Cross-function, the shared call graph (tools/common/callgraph.h)
 * supplies derived summaries computed bottom-up: a helper that
 * returns a still-held handle acts as an acquirer at its call sites,
 * and a helper that releases its parameter consumes the caller's
 * handle.
 *
 * Rules:
 *   own-leak               a path exits the function still holding
 *                          an acquired, non-RAII, untransferred
 *                          handle (reported at the acquire)
 *   own-double-release     a handle released on every path is
 *                          released again
 *   own-release-unacquired a handle transferred away on every path
 *                          is released locally
 *   own-annotation         malformed NXSIM_ACQUIRES/RELEASES/
 *                          TRANSFERS annotation
 *   bare-allow             allow() without a justification / unknown
 *                          rule
 *   stale-allow            allow() that no longer suppresses anything
 *   io-error               file could not be read
 *
 * Suppressions: `// nxown: allow(rule): why` (shared grammar).
 */

#ifndef NXSIM_NXOWN_NXOWN_H
#define NXSIM_NXOWN_NXOWN_H

#include <string>
#include <vector>

#include "common/diag.h"
#include "common/fileset.h"

namespace nxown {

using Finding = nxcommon::Finding;
using RuleInfo = nxcommon::RuleInfo;
using nxcommon::SourceFile;

/** All rules, in the order they are checked. */
const std::vector<RuleInfo> &rules();

/** Analyze a set of files together: one annotation table, one call
 * graph, derived summaries bottom-up, then the per-function CFG walk.
 * Findings are grouped by file in input order. */
[[nodiscard]] std::vector<Finding>
analyzeFiles(const std::vector<SourceFile> &files);

/**
 * Walk @p root's src/, tools/, bench/, examples/ and fuzz/ trees (or
 * @p root itself when none exist — fixture mode) and analyze every
 * *.h / *.cc file. tests/ is deliberately out: death tests
 * double-release on purpose. Unreadable files produce io-error.
 */
[[nodiscard]] std::vector<Finding>
analyzeTree(const std::string &root);

/** Render a finding as `file:line: rule-id: message`. */
std::string format(const Finding &f);

} // namespace nxown

#endif // NXSIM_NXOWN_NXOWN_H
