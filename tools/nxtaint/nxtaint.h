/**
 * @file
 * nxtaint — taint analysis of untrusted input values, cross-function
 * via per-function summaries over the shared call graph.
 *
 * nxlint checks tokens and nxdeps checks include edges; nxtaint checks
 * *values*. Every historical decompressor exploit is the same bug: a
 * length/offset/count decoded from the untrusted bitstream reaches a
 * memory operation without a bounds check. nxtaint walks each function
 * body with the shared CFG walker (tools/common/cfg_walk.h, over the
 * shared tools/common/lexer.h tokenizer — deliberately no compiler
 * frontend, same philosophy as its siblings), marks taint sources,
 * propagates through assignments and arithmetic, and flags tainted
 * values reaching memory sinks without passing a sanitizer.
 *
 * On top of the body walk, analyzeFiles()/analyzeTree() build the
 * project call graph (tools/common/callgraph.h) and compute one
 * summary per function in bottom-up SCC order: which parameters reach
 * a sink unchecked, which flow through to the return value, and
 * whether the function's own sources escape via `return`. Call sites
 * that resolve (by name + arity, receivers by declared type) are then
 * checked against the callee's summary — passing a tainted length to a
 * helper that memcpy's it unchecked is a finding at the call site with
 * the call chain printed, and a helper returning `br.readBits(16)`
 * taints its callers. Unresolved externals stay conservatively
 * tainted, exactly as before.
 *
 * Sources
 *   - results of BitReader-style member calls: readBits, peekBits,
 *     readBytes, readU16le, readU32le, peek, popByte, decode
 *   - loads from (and values of) parameters annotated NXSIM_UNTRUSTED
 *     (src/util/taint.h)
 *
 * Sinks (one rule each)
 *   - taint-copy-size   memcpy/memmove/memset/copyBytes size argument
 *   - taint-alloc-size  resize/reserve/assign first arg, 3-arg insert
 *                       count arg
 *   - taint-index       array/container subscript
 *   - taint-shift       shift amount (RHS of << or >>)
 *   - taint-loop-bound  for/while condition comparing against a
 *                       tainted bound
 *
 * Sanitizers (clear the taint on every path they dominate)
 *   - a comparison against the value in an if condition, switch head,
 *     or NXSIM_EXPECT/NXSIM_ENSURE/NXSIM_ASSERT contract
 *   - wrapping in nx::checked_cast / nx::truncate_cast / std::min /
 *     std::clamp
 *   - bit-masking (& constant) or modulo (% constant) with a literal
 *     or kConstant
 *   - an explicit suppression where the finding fires:
 *         // nxtaint: allow(rule-id): why this flow is bounded
 *     (same grammar and placement rules as nxlint; a bare or unused
 *     allow is itself a finding: bare-allow / stale-allow)
 *
 * The body walk is path-sensitive: a value is tainted after a branch
 * join when either path left it tainted, and sanitized only when every
 * path checked it; loop bodies run twice, so a value read at the end
 * of one iteration reaches the sinks at the top of the next. An inline
 * lambda's body is walked from the state where it is written, and its
 * checks stay inside it. Token-level matching still trades soundness
 * corner cases for zero false positives on this codebase's idiom —
 * decode loops check before they write, and the checker's job is to
 * keep it that way.
 */

#ifndef NXSIM_NXTAINT_NXTAINT_H
#define NXSIM_NXTAINT_NXTAINT_H

#include <string>
#include <string_view>
#include <vector>

#include "common/diag.h"
#include "common/fileset.h"

namespace nxtaint {

/** One diagnostic (the shared analyzer-family shape). */
using Finding = nxcommon::Finding;

/** Rule metadata for --list-rules and the docs. */
using RuleInfo = nxcommon::RuleInfo;

/** All rules, in the order they are checked. */
const std::vector<RuleInfo> &rules();

/** Analyze one file given as an in-memory buffer (a one-file
 * analyzeFiles: cross-function flow still works within the file). */
std::vector<Finding> analyzeFile(std::string_view path,
                                 std::string_view content);

/** Analyze a set of files together: one call graph, per-function
 * summaries bottom-up, then the findings pass with summaries in
 * hand. Findings are grouped by file in input order. */
std::vector<Finding>
analyzeFiles(const std::vector<nxcommon::SourceFile> &files);

/**
 * Walk @p root's src/ tree (or @p root itself when it is a bare
 * directory of sources) and analyze every *.h / *.cc file. Unreadable
 * files produce an "io-error" finding.
 */
std::vector<Finding> analyzeTree(const std::string &root);

/** Render a finding as `file:line: rule-id: message`. */
std::string format(const Finding &f);

} // namespace nxtaint

#endif // NXSIM_NXTAINT_NXTAINT_H
