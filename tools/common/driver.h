/**
 * @file
 * The one CLI driver behind every analyzer binary. Each tool's main.cc
 * is a thin ToolSpec: the rule table, the analysis callbacks, and any
 * tool-specific modes (--dot, --layers). The driver owns everything
 * the five binaries would otherwise duplicate — argument parsing, file
 * loading, `--format=text|json|sarif`, `--list-rules`, the usage line
 * (which lists the modes itself), and the exit-code convention:
 *
 *   0  clean
 *   1  findings
 *   2  usage error, or any io-error finding
 *
 * Invocation shapes (all tools):
 *
 *   <tool> [<repo-root>]          analyze the whole tree (default ".")
 *   <tool> <file>...              analyze just these files — the
 *                                 incremental mode tools/analyze_changed.sh
 *                                 drives with `git diff --name-only` output
 *
 * Per-file tools (nxlint, nxtaint) analyze listed files in isolation.
 * Whole-tree tools (nxdeps, nxstate, nxown — their checks need the
 * global graph) analyze the tree at --root (default ".") and report
 * only the findings landing in the listed files.
 */

#ifndef NXSIM_COMMON_DRIVER_H
#define NXSIM_COMMON_DRIVER_H

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/diag.h"

namespace nxcommon {

struct ToolSpec
{
    std::string name;           ///< binary name for messages ("nxlint")
    std::string usageArgs;      ///< usage tail after the modes, e.g.
                                ///< "[<repo-root> | <file>...]"
    const std::vector<RuleInfo> *rules = nullptr;

    /** Analyze one in-memory file (per-file tools); leave empty for
     * whole-tree tools. */
    std::function<std::vector<Finding>(std::string_view path,
                                       std::string_view content)>
        analyzeFile;

    /** Analyze the tree rooted at @p root. Required. */
    std::function<std::vector<Finding>(const std::string &root)>
        analyzeTree;

    /** Tool-specific modes: flag -> handler(root) returning the exit
     * code (e.g. nxdeps --dot). The flag consumes no operand; the root
     * is the usual positional argument. */
    std::vector<std::pair<std::string,
                          std::function<int(const std::string &root)>>>
        modes;
};

/** Run the standard analyzer CLI for @p spec. Returns the exit code. */
[[nodiscard]] int runTool(int argc, char **argv, const ToolSpec &spec);

} // namespace nxcommon

#endif // NXSIM_COMMON_DRIVER_H
