/**
 * @file
 * nxtaint CLI — a thin ToolSpec over the shared analyzer driver
 * (tools/common/driver.h owns argument parsing, --format=json/sarif, file
 * lists and the 0/1/2 exit-code convention).
 *
 * Usage:
 *   nxtaint [--list-rules] [--format=text|json|sarif]
 *           [<repo-root> | <file>...]
 *
 * With a directory argument (default: the current directory) the tool
 * analyzes every *.h / *.cc under its src/ subtree. Explicit file
 * arguments are analyzed one by one.
 */

#include "common/driver.h"
#include "nxtaint/nxtaint.h"

int
main(int argc, char **argv)
{
    nxcommon::ToolSpec spec;
    spec.name = "nxtaint";
    spec.usageArgs = "[<repo-root> | <file>...]";
    spec.rules = &nxtaint::rules();
    spec.analyzeFile = nxtaint::analyzeFile;
    spec.analyzeTree = nxtaint::analyzeTree;
    return nxcommon::runTool(argc, argv, spec);
}
