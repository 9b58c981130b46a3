/**
 * @file
 * nxdeps CLI — a thin ToolSpec over the shared analyzer driver
 * (tools/common/driver.h owns argument parsing, --format=json/sarif, file
 * lists and the 0/1/2 exit-code convention).
 *
 * Usage:
 *   nxdeps [--list-rules] [--format=text|json|sarif] [--dot] [--layers]
 *          [--root=<dir>] [<repo-root> | <file>...]
 *
 * nxdeps is a whole-tree tool: its checks need the global include
 * graph, so explicit file arguments analyze the tree at --root
 * (default ".") and report only findings landing in those files.
 * `--dot` prints the module graph as GraphViz DOT instead of findings
 * — that output is what the DESIGN.md architecture figure is
 * generated from. `--layers` prints the declared layer table.
 */

#include <cstdio>
#include <string>

#include "common/driver.h"
#include "nxdeps/nxdeps.h"

int
main(int argc, char **argv)
{
    nxcommon::ToolSpec spec;
    spec.name = "nxdeps";
    spec.usageArgs = "[--root=<dir>] [<repo-root> | <file>...]";
    spec.rules = &nxdeps::rules();
    spec.analyzeTree = [](const std::string &root) {
        return nxdeps::analyzeTree(root).findings;
    };
    spec.modes.emplace_back("--dot", [](const std::string &root) {
        std::printf("%s", nxdeps::analyzeTree(root).moduleDot.c_str());
        return 0;
    });
    spec.modes.emplace_back("--layers", [](const std::string &) {
        for (const nxdeps::LayerInfo &l : nxdeps::layers())
            std::printf("%d  %s\n", l.rank,
                        std::string(l.module).c_str());
        return 0;
    });
    return nxcommon::runTool(argc, argv, spec);
}
