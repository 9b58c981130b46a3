/**
 * @file
 * Shared diagnostic types for the analyzer family (nxlint, nxdeps,
 * nxtaint, nxstate, nxown). Every tool reports the same Finding shape, prints
 * it the same way (`file:line: rule-id: message`), and serializes it
 * to the same JSON schema, so CI consumes one format no matter which
 * pass produced the finding.
 *
 * JSON schema (one object per run, stable across tools):
 *
 *   {
 *     "tool": "nxlint",
 *     "schema": 1,
 *     "count": 2,
 *     "findings": [
 *       {"file": "src/nx/crb.h", "line": 40,
 *        "rule": "narrow-cast", "message": "..."},
 *       ...
 *     ]
 *   }
 */

#ifndef NXSIM_COMMON_DIAG_H
#define NXSIM_COMMON_DIAG_H

#include <string>
#include <string_view>
#include <vector>

namespace nxcommon {

/** One diagnostic. */
struct Finding
{
    std::string file;       ///< path as given to the analyzer
    int line = 0;           ///< 1-based; 0 for whole-file findings
    std::string rule;       ///< rule id, e.g. "narrow-cast"
    std::string message;
};

/** Rule metadata for --list-rules and the docs. */
struct RuleInfo
{
    std::string_view id;
    std::string_view summary;
};

/** Is @p id one of @p rules? */
[[nodiscard]] bool knownRule(const std::vector<RuleInfo> &rules,
                             std::string_view id);

/** Render a finding as `file:line: rule-id: message`. */
[[nodiscard]] std::string formatText(const Finding &f);

/** Serialize a whole run in the shared JSON schema above. */
[[nodiscard]] std::string formatJson(std::string_view tool,
                                     const std::vector<Finding> &findings);

/**
 * Serialize a whole run as SARIF 2.1.0 (the GitHub code-scanning
 * ingestion format): one run, the tool's rule table under
 * tool.driver.rules, one result per finding with the rule id, message
 * and physical location. Whole-file findings (line 0) clamp to line 1
 * — SARIF requires startLine >= 1.
 */
[[nodiscard]] std::string
formatSarif(std::string_view tool, const std::vector<RuleInfo> &rules,
            const std::vector<Finding> &findings);

/** Deterministic report order: (file, line, rule, message). */
void sortFindings(std::vector<Finding> &findings);

} // namespace nxcommon

#endif // NXSIM_COMMON_DIAG_H
