/**
 * @file
 * nxstate CLI — a thin ToolSpec over the shared analyzer driver
 * (tools/common/driver.h owns argument parsing, --format=json/sarif, file
 * lists and the 0/1/2 exit-code convention).
 *
 * Usage:
 *   nxstate [--list-rules] [--format=text|json|sarif] [--dot]
 *           [--root=<dir>] [<repo-root> | <file>...]
 *
 * nxstate is a whole-tree tool: protocol declarations live in headers
 * and lock-order edges only mean something globally, so explicit file
 * arguments analyze the tree at --root (default ".") and report only
 * findings landing in those files. `--dot` prints the lock-order
 * graph as GraphViz DOT instead of findings — that output is what the
 * DESIGN.md lock-order figure is generated from.
 */

#include <cstdio>
#include <string>

#include "common/driver.h"
#include "nxstate/nxstate.h"

int
main(int argc, char **argv)
{
    nxcommon::ToolSpec spec;
    spec.name = "nxstate";
    spec.usageArgs = "[--root=<dir>] [<repo-root> | <file>...]";
    spec.rules = &nxstate::rules();
    spec.analyzeTree = [](const std::string &root) {
        return nxstate::analyzeTree(root).findings;
    };
    spec.modes.emplace_back("--dot", [](const std::string &root) {
        std::printf("%s", nxstate::analyzeTree(root).lockDot.c_str());
        return 0;
    });
    return nxcommon::runTool(argc, argv, spec);
}
