/**
 * @file
 * Project-wide call graph over the shared lexer — the interprocedural
 * engine under the analyzer family. nxtaint's cross-function taint
 * summaries and nxown's derived acquire/release summaries are both
 * built on this one graph, the same way every analyzer shares one
 * lexer and one allow() grammar.
 *
 * What it extracts, entirely at token level (no compiler frontend,
 * same philosophy as the analyzers that consume it):
 *
 *  - Function definitions (findFunctions): free functions, in-class
 *    methods (with the enclosing-class stack tracked through nested
 *    classes), and out-of-line `X::f(...)` definitions; the graph
 *    indexes the named ones. Each definition records its
 *    parameter-list and body token ranges, parameter names, arity
 *    bounds (default arguments lower the minimum), and the return
 *    type identifier nearest the name.
 *  - Call sites inside every body: free calls `f(a, b)`, qualified
 *    calls `ns::f(...)`, and member calls `x.m(...)` / `p->m(...)`
 *    with the receiver's simple path.
 *  - Resolution by name + arity: a call resolves to a definition only
 *    when exactly one candidate matches (overloads are told apart by
 *    argument count). Member calls resolve through the receiver's
 *    declared type when the body or parameter list declares it
 *    (`Codec &c` / `Codec *c` / `Codec c`); `this`-calls resolve into
 *    the enclosing class. Anything else — std:: calls, macros,
 *    fields whose type is not visible — stays an unknown callee
 *    (target < 0), which consumers must treat conservatively: an
 *    unresolved external is never a finding by itself.
 *  - SCCs (Tarjan) emitted in bottom-up order: every callee's SCC
 *    comes before its callers', so per-function summaries computed in
 *    scc() order see their dependencies finished, and mutual
 *    recursion is handled by iterating each SCC to a fixpoint
 *    (forEachBottomUp).
 */

#ifndef NXSIM_COMMON_CALLGRAPH_H
#define NXSIM_COMMON_CALLGRAPH_H

#include <string>
#include <vector>

#include "common/fileset.h"
#include "common/lexer.h"

namespace nxcommon {

/** One function body found in the token stream. */
struct FunctionDef
{
    std::string name;        ///< unqualified; "~X" for a destructor, "" for
                             ///< a lambda, "operator" for an operator
    std::string cls;         ///< owning class, "" for free functions
    std::string returnType;  ///< nearest type identifier, "" if unknown
    size_t fileIdx = 0;      ///< index into the analyzed file list
    int line = 0;            ///< line of the name (of the `{` if unnamed)
    size_t nameIdx = 0;      ///< token index of the name (0 if unnamed)
    size_t paramOpen = 0;    ///< `(` of the parameter list
    size_t paramClose = 0;   ///< matching `)`
    size_t bodyBegin = 0;    ///< `{` of the body
    size_t bodyEnd = 0;      ///< matching `}`
    std::vector<std::string> params;   ///< parameter names, in order
    size_t minArity = 0;     ///< params without default arguments
};

/** One call site inside a function body. */
struct CallSite
{
    std::string name;        ///< callee as spelled (unqualified)
    std::string recv;        ///< dotted receiver path, "" for free calls
    std::string qual;        ///< `Q::f(...)` qualifier, "" otherwise
    int target = -1;         ///< resolved function id; -1 = unknown callee
    size_t nameIdx = 0;      ///< token index of the callee name
    int line = 0;
    /** Argument token ranges (into the owning file's merged tokens). */
    std::vector<std::pair<size_t, size_t>> args;
};

/**
 * Every function body in one file's merged tokens, in token order: a
 * `{` whose backward context resolves (through trailing qualifiers, a
 * trailing return type, or a constructor initializer list) to a
 * parameter list. Named functions, operators and namespace-scope
 * lambdas all count; lambdas inside a body stay part of that body.
 * `cls` is the `X::` qualifier of an out-of-line definition, else the
 * innermost enclosing class. The one function finder every analyzer
 * uses.
 */
std::vector<FunctionDef> findFunctions(const std::vector<nxlex::Token> &t,
                                       size_t fileIdx);

/** The graph. Build once per analysis run, read from everywhere. */
class CallGraph
{
  public:
    /** Lex + operator-merge @p files and build the graph. */
    static CallGraph build(const std::vector<SourceFile> &files);

    /** Build from pre-merged token streams (parallel to @p paths) —
     * the analyzers already lex for allow() collection, so this avoids
     * a third pass over every file. */
    static CallGraph build(std::vector<std::string> paths,
                           std::vector<std::vector<nxlex::Token>> merged);

    [[nodiscard]] const std::vector<FunctionDef> &functions() const
    {
        return fns_;
    }

    /** Call sites of function @p id, in token order. */
    [[nodiscard]] const std::vector<CallSite> &callsOf(int id) const
    {
        return calls_[static_cast<size_t>(id)];
    }

    /** Merged tokens of file @p fileIdx (what every index refers to). */
    [[nodiscard]] const std::vector<nxlex::Token> &
    tokens(size_t fileIdx) const
    {
        return toks_[fileIdx];
    }

    [[nodiscard]] const std::vector<std::string> &paths() const
    {
        return paths_;
    }

    /** SCCs in bottom-up (callee-first) order. */
    [[nodiscard]] const std::vector<std::vector<int>> &sccs() const
    {
        return sccs_;
    }

    /** Id of the function whose body contains token @p tokIdx of file
     * @p fileIdx, or -1. */
    [[nodiscard]] int functionAt(size_t fileIdx, size_t tokIdx) const;

    /** The call site whose callee name sits at @p tokIdx, or nullptr. */
    [[nodiscard]] const CallSite *callAt(size_t fileIdx,
                                         size_t tokIdx) const;

    /**
     * Run @p recompute over every function in bottom-up SCC order;
     * within an SCC, iterate until no member reports a change (the
     * summary fixpoint for mutual recursion). @p recompute returns
     * true when the function's summary changed. Iteration per SCC is
     * capped — summaries must be monotone for the cap to be exact.
     */
    template <typename Fn>
    void
    forEachBottomUp(Fn recompute) const
    {
        for (const std::vector<int> &scc : sccs_) {
            bool changed = true;
            for (int round = 0; changed && round < 8; ++round) {
                changed = false;
                for (int id : scc)
                    changed = recompute(id) || changed;
            }
        }
    }

  private:
    std::vector<std::string> paths_;
    std::vector<std::vector<nxlex::Token>> toks_;
    std::vector<FunctionDef> fns_;
    std::vector<std::vector<CallSite>> calls_;
    std::vector<std::vector<int>> sccs_;
    /** Per file: (bodyBegin, id) sorted — bodies never nest, so
     * functionAt is a binary search. */
    std::vector<std::vector<std::pair<size_t, int>>> byFile_;
};

} // namespace nxcommon

#endif // NXSIM_COMMON_CALLGRAPH_H
