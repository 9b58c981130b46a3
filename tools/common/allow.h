/**
 * @file
 * The shared `allow()` suppression grammar. Every analyzer accepts
 *
 *     // <tool>: allow(rule-id): why this instance is fine
 *
 * on the finding's line, on a comment-only line directly above (the
 * justification may continue across further `//` lines; the whole
 * block plus the next code line is covered), or at file scope in the
 * leading comment before any code. The justification after the colon
 * is mandatory: a bare allow() — missing justification or unknown rule
 * — is itself a finding (rule `bare-allow`), and an allow that no
 * longer suppresses anything is one too (rule `stale-allow`), unless
 * an allow(stale-allow) on the same lines excuses it.
 *
 * This file is the single implementation all five analyzers share;
 * only the tool tag ("nxlint", "nxdeps", "nxtaint", "nxstate",
 * "nxown") and the rule table differ per caller.
 */

#ifndef NXSIM_COMMON_ALLOW_H
#define NXSIM_COMMON_ALLOW_H

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/diag.h"
#include "common/lexer.h"

namespace nxcommon {

/**
 * One parsed allow directive. `used` is set when it suppresses a raw
 * finding; an allow that stays unused is reported as stale-allow —
 * the suppression budget stays honest because a suppression that
 * outlives its finding has to be deleted.
 */
struct Allow
{
    std::string rule;
    bool fileScope = false;
    std::set<int> lines;
    int commentLine = 0;
    bool used = false;
};

/**
 * Parse every `<tag>: allow(rule): why` in @p toks' comment tokens.
 * Malformed directives (unknown rule, missing justification) append
 * bare-allow findings to @p findings. @p tag is the tool name without
 * the colon ("nxlint").
 */
std::vector<Allow> collectAllows(const std::vector<nxlex::Token> &toks,
                                 std::string_view tag,
                                 const std::vector<RuleInfo> &rules,
                                 std::vector<Finding> &findings,
                                 std::string_view file);

/** True (and marks the allow used) when some allow covers rule@line. */
bool allowMatches(std::vector<Allow> &allows, std::string_view rule,
                  int line);

/**
 * Standard post-pass: drop findings covered by an allow (bare-allow is
 * never suppressible), then report unused allows as stale-allow. The
 * surviving findings are appended to @p out unsorted; callers sort.
 */
void applyAllows(std::vector<Finding> &&raw, std::vector<Allow> &allows,
                 std::string_view file, std::vector<Finding> &out);

} // namespace nxcommon

#endif // NXSIM_COMMON_ALLOW_H
