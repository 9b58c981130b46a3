/**
 * @file
 * nxdeps implementation: quoted includes read from the shared lexer's
 * directive tokens (so an `#include` in a comment or string never
 * counts), an include resolver that mirrors the project's CMake include
 * roots, and graph checks over the result. Zero dependencies beyond the
 * standard library, same as nxlint, so it runs on every ctest
 * invocation.
 */

#include "nxdeps/nxdeps.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "common/allow.h"
#include "common/cycles.h"
#include "common/fileset.h"
#include "common/lexer.h"

namespace nxdeps {

namespace {

// ---------------------------------------------------------------------------
// Declared architecture — THE single place the layer order lives.
// ---------------------------------------------------------------------------

const std::vector<LayerInfo> kLayers = {
    {"util", 0},                     // leaf helpers; includes nothing above
    {"sim", 1},                      // ticks/events/memory timing
    {"deflate", 2}, {"e842", 2},     // codecs — peers, mutually blind
    {"nx", 3},                       // modelled engines
    {"core", 4},                     // device + dispatch layer
    {"workloads", 5},                // corpus/workload generators
    {"load", 6},                     // serving load harness
    {"tools", 7}, {"fuzz", 7},       // harnesses — peers
    {"bench", 7}, {"examples", 7},
    {"tests", 8},                    // may see everything below
};

const std::vector<RuleInfo> kRules = {
    {"layer-order",
     "a module may include only modules at or below its declared layer; "
     "same-layer peers (deflate/e842, tools/fuzz/bench/examples) are "
     "mutually off limits"},
    {"include-cycle", "no cycles in the file-level include graph"},
    {"module-cycle", "no cycles in the condensed module graph"},
    {"cc-include", "never include a .cc/.cpp translation unit"},
    {"private-include",
     "another module's internal/ directory and *_internal.h headers are "
     "off limits; go through its public headers"},
    {"unknown-module",
     "every directory under src/ must appear in the declared layer "
     "table; an unlisted module would be silently unchecked"},
    {"bare-allow",
     "nxdeps suppressions must name a known rule and justify it: "
     "// nxdeps: allow(<rule>): <why>"},
    {"stale-allow",
     "an allow() that no longer suppresses any finding is itself a "
     "finding; delete it"},
    {"io-error", "file could not be read"},
};

int
rankOf(std::string_view module)
{
    for (const LayerInfo &l : kLayers)
        if (l.module == module)
            return l.rank;
    return -1;    // unknown module: layering not declared for it
}

// ---------------------------------------------------------------------------
// Include extraction
// ---------------------------------------------------------------------------

struct Include
{
    std::string target;   ///< the quoted path, verbatim
    int line = 0;         ///< 1-based
};

/**
 * One file's quoted includes, read from the shared lexer's directive
 * (Pp) tokens: an `#include` inside a comment or a string literal is
 * not a directive, so it never counts.
 */
std::vector<Include>
quotedIncludes(const std::vector<nxlex::Token> &toks)
{
    std::vector<Include> out;
    for (const nxlex::Token &tk : toks) {
        if (tk.kind != nxlex::Tok::Pp)
            continue;
        std::string_view rest =
            nxlex::trim(std::string_view(tk.text).substr(1));
        if (rest.rfind("include", 0) != 0)
            continue;
        rest = nxlex::trim(rest.substr(7));
        if (rest.empty() || rest.front() != '"')
            continue;
        size_t close = rest.find('"', 1);
        if (close != std::string_view::npos)
            out.push_back({std::string(rest.substr(1, close - 1)), tk.line});
    }
    return out;
}

// ---------------------------------------------------------------------------
// Path handling and include resolution
// ---------------------------------------------------------------------------

/** Lexically normalize a '/'-separated path ("a/./b/../c" -> "a/c"). */
std::string
normalize(std::string_view p)
{
    std::vector<std::string> parts;
    size_t i = 0;
    while (i <= p.size()) {
        size_t j = p.find('/', i);
        if (j == std::string_view::npos)
            j = p.size();
        std::string_view part = p.substr(i, j - i);
        if (part == "..") {
            if (!parts.empty())
                parts.pop_back();
        } else if (!part.empty() && part != ".") {
            parts.emplace_back(part);
        }
        i = j + 1;
        if (j == p.size())
            break;
    }
    std::string out;
    for (const std::string &part : parts) {
        if (!out.empty())
            out += '/';
        out += part;
    }
    return out;
}

std::string
dirOf(std::string_view path)
{
    size_t slash = path.rfind('/');
    return slash == std::string_view::npos
               ? std::string{}
               : std::string(path.substr(0, slash));
}

/**
 * Resolve a quoted include against the project include roots, in the
 * order the build exposes them: the includer's own directory (bench
 * and fuzz use sibling includes), then src/, then the harness roots.
 * Returns npos for anything that is not a project file (system or
 * third-party headers).
 */
size_t
resolve(const std::map<std::string, size_t, std::less<>> &byPath,
        std::string_view includerDir, std::string_view target)
{
    std::vector<std::string> candidates;
    if (!includerDir.empty())
        candidates.push_back(normalize(std::string(includerDir) + "/" +
                                       std::string(target)));
    for (std::string_view root : {"src/", "tools/", "fuzz/", "bench/"})
        candidates.push_back(normalize(std::string(root) +
                                       std::string(target)));
    candidates.push_back(normalize(target));
    for (const std::string &c : candidates) {
        auto it = byPath.find(c);
        if (it != byPath.end())
            return it->second;
    }
    return static_cast<size_t>(-1);
}

bool
isPrivateHeader(std::string_view path)
{
    if (path.find("/internal/") != std::string_view::npos)
        return true;
    size_t slash = path.rfind('/');
    std::string_view name =
        slash == std::string_view::npos ? path : path.substr(slash + 1);
    size_t dot = name.rfind('.');
    std::string_view stem = dot == std::string_view::npos
                                ? name
                                : name.substr(0, dot);
    return stem.ends_with("_internal");
}

bool
isTranslationUnit(std::string_view path)
{
    return path.ends_with(".cc") || path.ends_with(".cpp");
}

// ---------------------------------------------------------------------------
// Cycle detection (shared by the file and module graphs)
// ---------------------------------------------------------------------------

struct Edge
{
    size_t to;
    size_t fileIdx;   ///< file carrying the representative include
    int line;
};

/** Report every cycle of @p adj as a @p rule finding at its closing
 * include. */
void
reportCycles(const std::vector<std::vector<Edge>> &adj,
             const std::vector<std::string> &names,
             const std::vector<SourceFile> &files, std::string_view rule,
             std::string_view what, std::vector<Finding> &out)
{
    nxcommon::forEachCycle(adj, [&](const std::vector<size_t> &chain,
                                    const Edge &e) {
        out.push_back({files[e.fileIdx].path, e.line, std::string(rule),
                       std::string(what) + " cycle: " +
                           nxcommon::cycleText(chain, names)});
    });
}

} // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> &
rules()
{
    return kRules;
}

const std::vector<LayerInfo> &
layers()
{
    return kLayers;
}

std::string
moduleOf(std::string_view path)
{
    std::string norm = normalize(path);
    size_t slash = norm.find('/');
    if (slash == std::string::npos)
        return {};
    std::string first = norm.substr(0, slash);
    if (first != "src")
        return first;
    size_t slash2 = norm.find('/', slash + 1);
    if (slash2 == std::string::npos)
        return {};
    return norm.substr(slash + 1, slash2 - slash - 1);
}

Analysis
analyzeFiles(const std::vector<SourceFile> &files)
{
    Analysis an;

    // Sorted index so every downstream report is deterministic.
    std::vector<size_t> order(files.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return files[a].path < files[b].path;
    });

    std::map<std::string, size_t, std::less<>> byPath;
    for (size_t i : order)
        byPath.emplace(normalize(files[i].path), i);

    std::vector<std::vector<Include>> scanned(files.size());
    std::vector<std::vector<nxcommon::Allow>> allows(files.size());
    std::vector<Finding> raw;
    for (size_t i : order) {
        // One lexer pass gives both the includes and the suppressions
        // (the shared allow() grammar every analyzer uses).
        std::vector<nxlex::Token> toks =
            nxlex::Lexer(files[i].content).run();
        scanned[i] = quotedIncludes(toks);
        allows[i] = nxcommon::collectAllows(toks, "nxdeps", kRules, raw,
                                            files[i].path);
    }

    // Every directory under src/ must be in the layer table, else its
    // files would sail through every layering check unexamined. One
    // finding per unknown module, on its first file in path order.
    std::set<std::string> unknownReported;
    for (size_t i : order) {
        std::string norm = normalize(files[i].path);
        if (norm.rfind("src/", 0) != 0)
            continue;
        std::string mod = moduleOf(norm);
        if (mod.empty() || rankOf(mod) >= 0 ||
            !unknownReported.insert(mod).second)
            continue;
        raw.push_back({files[i].path, 1, "unknown-module",
                       "module '" + mod + "' (src/" + mod +
                           ") is not in the declared layer table; add "
                           "it to kLayers with an explicit rank"});
    }

    // File-level include graph plus the condensed module graph.
    std::vector<std::vector<Edge>> fileAdj(files.size());
    std::map<std::string, size_t, std::less<>> moduleIdx;
    std::vector<std::string> moduleNames;
    std::map<std::pair<size_t, size_t>, Edge> moduleEdges;

    auto internModule = [&](const std::string &m) {
        auto it = moduleIdx.find(m);
        if (it != moduleIdx.end())
            return it->second;
        size_t idx = moduleNames.size();
        moduleIdx.emplace(m, idx);
        moduleNames.push_back(m);
        return idx;
    };

    for (size_t i : order) {
        const SourceFile &from = files[i];
        std::string fromMod = moduleOf(from.path);
        int fromRank = rankOf(fromMod);
        std::string fromDir = dirOf(normalize(from.path));
        for (const Include &inc : scanned[i]) {
            size_t to = resolve(byPath, fromDir, inc.target);
            if (to == static_cast<size_t>(-1))
                continue;    // not a project file
            const SourceFile &target = files[to];
            std::string toMod = moduleOf(target.path);
            int toRank = rankOf(toMod);

            fileAdj[i].push_back({to, i, inc.line});
            if (!fromMod.empty() && !toMod.empty() && fromMod != toMod) {
                size_t a = internModule(fromMod);
                size_t b = internModule(toMod);
                moduleEdges.emplace(std::make_pair(a, b),
                                    Edge{b, i, inc.line});
            }

            if (isTranslationUnit(target.path)) {
                raw.push_back(
                    {from.path, inc.line, "cc-include",
                     "includes translation unit " + target.path +
                         "; include the module's header instead"});
            }
            if (fromMod != toMod && isPrivateHeader(target.path)) {
                raw.push_back(
                    {from.path, inc.line, "private-include",
                     target.path + " is private to module '" + toMod +
                         "'; include its public headers instead"});
            }
            if (fromMod != toMod && fromRank >= 0 && toRank >= 0) {
                if (toRank > fromRank) {
                    raw.push_back(
                        {from.path, inc.line, "layer-order",
                         "module '" + fromMod + "' (layer " +
                             std::to_string(fromRank) + ") includes " +
                             target.path + " from module '" + toMod +
                             "' (layer " + std::to_string(toRank) +
                             "); the declared order puts " + fromMod +
                             " below " + toMod});
                } else if (toRank == fromRank) {
                    raw.push_back(
                        {from.path, inc.line, "layer-order",
                         "modules '" + fromMod + "' and '" + toMod +
                             "' are peers at layer " +
                             std::to_string(fromRank) +
                             "; neither may include the other"});
                }
            }
        }
    }

    std::vector<std::string> fileNames(files.size());
    for (size_t i = 0; i < files.size(); ++i)
        fileNames[i] = files[i].path;
    reportCycles(fileAdj, fileNames, files, "include-cycle", "include",
                 raw);

    std::vector<std::vector<Edge>> modAdj(moduleNames.size());
    for (const auto &kv : moduleEdges)
        modAdj[kv.first.first].push_back(kv.second);
    reportCycles(modAdj, moduleNames, files, "module-cycle", "module",
                 raw);

    // Apply suppressions per owning file (the shared post-pass also
    // reports unused allows as stale-allow; bare-allow findings are
    // never suppressible).
    std::vector<std::vector<Finding>> perFile(files.size());
    for (Finding &f : raw) {
        auto it = byPath.find(normalize(f.file));
        if (it == byPath.end())
            an.findings.push_back(std::move(f));
        else
            perFile[it->second].push_back(std::move(f));
    }
    for (size_t i : order)
        nxcommon::applyAllows(std::move(perFile[i]), allows[i],
                              files[i].path, an.findings);
    nxcommon::sortFindings(an.findings);

    // Module graph as DOT: declared layers become same-rank rows, so
    // `dot` draws the architecture diagram DESIGN.md embeds.
    std::ostringstream dot;
    dot << "digraph nxdeps_modules {\n"
        << "  rankdir=BT;\n"
        << "  node [shape=box];\n";
    std::map<int, std::vector<std::string>> byRank;
    for (const std::string &m : moduleNames) {
        int r = rankOf(m);
        if (r >= 0)
            byRank[r].push_back(m);
    }
    for (const auto &kv : byRank) {
        dot << "  { rank=same;";
        for (const std::string &m : kv.second)
            dot << " \"" << m << "\";";
        dot << " }  // layer " << kv.first << "\n";
    }
    for (const auto &kv : moduleEdges)
        dot << "  \"" << moduleNames[kv.first.first] << "\" -> \""
            << moduleNames[kv.first.second] << "\";\n";
    dot << "}\n";
    an.moduleDot = dot.str();
    return an;
}

Analysis
analyzeTree(const std::string &root)
{
    nxcommon::TreeLoad tree = nxcommon::loadTree(
        root, {"src", "tools", "fuzz", "bench", "tests", "examples"});
    Analysis an = analyzeFiles(tree.files);
    an.findings.insert(an.findings.begin(), tree.ioErrors.begin(),
                       tree.ioErrors.end());
    return an;
}

std::string
format(const Finding &f)
{
    return nxcommon::formatText(f);
}

} // namespace nxdeps
