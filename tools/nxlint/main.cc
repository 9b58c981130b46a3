/**
 * @file
 * nxlint CLI — a thin ToolSpec over the shared analyzer driver
 * (tools/common/driver.h owns argument parsing, --format=json/sarif, file
 * lists and the 0/1/2 exit-code convention).
 *
 * Usage:
 *   nxlint [--list-rules] [--format=text|json|sarif]
 *          [<repo-root> | <file>...]
 *
 * With a directory argument (default: the current directory) the tool
 * lints every *.h / *.cc under its src/, tools/, fuzz/ and bench/
 * subtrees. Explicit file arguments are linted one by one; a file whose
 * path does not sit under a recognized tree is held to the strictest
 * (library-code) rule set.
 */

#include "common/driver.h"
#include "nxlint/nxlint.h"

int
main(int argc, char **argv)
{
    nxcommon::ToolSpec spec;
    spec.name = "nxlint";
    spec.usageArgs = "[<repo-root> | <file>...]";
    spec.rules = &nxlint::rules();
    spec.analyzeFile = nxlint::lintFile;
    spec.analyzeTree = nxlint::lintTree;
    return nxcommon::runTool(argc, argv, spec);
}
