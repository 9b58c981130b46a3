/**
 * @file
 * Call-graph construction and the shared function finder. See
 * callgraph.h for the contract.
 *
 * findFunctions walks back from each `{` to its parameter list (through
 * constructor initializer lists) and keeps a class-context stack for
 * in-class methods plus `X::f` out-of-line qualification. nxstate,
 * nxtaint and the graph itself all find bodies through it; everything
 * downstream (name, arity, return type, call sites) hangs off the
 * parameter-list parens it finds.
 */

#include "common/callgraph.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/tokens.h"

namespace nxcommon {

namespace {

using nxlex::Lexer;
using nxlex::Tok;
using nxlex::Token;

const std::set<std::string, std::less<>> kControlHeads = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "new", "delete", "decltype", "static_assert"};

/** Identifiers that may directly precede a genuine call (`return
 * f(x)`) — any other identifier before `name(` makes it a declaration
 * (`Type name(args)`), not a call. */
const std::set<std::string, std::less<>> kCallPrecursors = {
    "return", "co_return", "co_await", "co_yield", "throw", "else",
    "do",     "default",   "case"};

const std::set<std::string, std::less<>> kNotReturnType = {
    "const",    "static", "inline",   "virtual", "explicit",
    "constexpr", "friend", "typename", "mutable", "extern"};

/** Index of the `operator` keyword naming the function whose
 * parameter list opens at @p po (`operator==(`, `operator()(`), or
 * t.size(). */
size_t
operatorBefore(const std::vector<Token> &t, size_t po)
{
    for (size_t k = po; k > 0 && po - k < 3 && t[k - 1].kind == Tok::Punct;
         --k)
        if (isIdent(t, k - 2, "operator"))
            return k - 2;
    return t.size();
}

/**
 * Does the `{` at @p braceIdx open a function body? On success @p po /
 * @p pc are the parameter-list parens, found by walking constructor
 * initializer lists back to the real parameter list.
 */
bool
startsFunctionBody(const std::vector<Token> &t, size_t braceIdx,
                   size_t &po, size_t &pc)
{
    if (braceIdx == 0)
        return false;
    size_t i = braceIdx - 1;
    // Skip trailing const/noexcept/override/final and `-> Type`.
    for (int guard = 0; guard < 64; ++guard) {
        const Token &tk = t[i];
        if (tk.kind == Tok::Ident || isPunct(t, i, "::") ||
            isPunct(t, i, "<") || isPunct(t, i, ">") ||
            isPunct(t, i, "*") || isPunct(t, i, "&") ||
            isPunct(t, i, "->")) {
            if (i == 0)
                return false;
            --i;
            continue;
        }
        break;
    }
    // Constructor initializer lists: `) : a_(x), b_(y) {`. Walk
    // backwards over `name(...)` / `name{...}` entries joined by `,`
    // until the `:` after the parameter list.
    for (int guard = 0; guard < 256; ++guard) {
        if (isPunct(t, i, ")") || isPunct(t, i, "}")) {
            char open = t[i].text[0] == ')' ? '(' : '{';
            size_t openIdx = matchBackward(t, i, open, t[i].text[0]);
            if (openIdx == t.size() || openIdx == 0)
                return false;
            size_t before = openIdx - 1;
            if (t[before].kind == Tok::Ident && before > 0 &&
                (isPunct(t, before - 1, ",") ||
                 isPunct(t, before - 1, ":"))) {
                bool colon = isPunct(t, before - 1, ":");
                i = before - 2;
                if (colon) {
                    if (!isPunct(t, i, ")"))
                        return false;
                    pc = i;
                    po = matchBackward(t, i, '(', ')');
                    return po != t.size();
                }
                continue;
            }
            if (t[i].text[0] != ')')
                return false;
            pc = i;
            po = openIdx;
            if (po == 0)
                return false;
            if (isIdent(t, po - 1))
                return kControlHeads.count(t[po - 1].text) == 0;
            // `](...)` lambda or `operator()(...)`; not `)(...)`.
            return isPunct(t, po - 1, "]") ||
                   operatorBefore(t, po) != t.size();
        }
        return false;
    }
    return false;
}

/** Return-type identifier nearest @p nameIdx, skipping the `X::`
 * qualifier chain, template argument lists and `*`/`&`. */
std::string
returnTypeBefore(const std::vector<Token> &t, size_t nameIdx,
                 bool dtor)
{
    if (nameIdx == 0)
        return {};
    size_t p = nameIdx - 1;
    if (dtor) {
        if (p == 0)
            return {};
        --p;    // the `~`
    }
    for (int guard = 0; guard < 16 && p > 1; ++guard) {
        if (isPunct(t, p, "::") && isIdent(t, p - 1))
            p -= 2;    // `X::` qualifier
        else
            break;
    }
    while (p > 0 && (isPunct(t, p, "*") || isPunct(t, p, "&")))
        --p;
    if (isPunct(t, p, ">")) {
        // Skip the template argument list backwards.
        int depth = 0;
        for (int guard = 0; guard < 64 && p > 0; ++guard, --p) {
            if (isPunct(t, p, ">"))
                ++depth;
            else if (isPunct(t, p, "<") && --depth == 0) {
                --p;
                break;
            }
        }
    }
    if (isIdent(t, p) && kNotReturnType.count(t[p].text) == 0 &&
        kControlHeads.count(t[p].text) == 0)
        return t[p].text;
    return {};
}

/** Class owning `X::f(...)` / `X::~X(...)`, or "". */
std::string
outOfLineClass(const std::vector<Token> &t, size_t nameIdx, bool dtor)
{
    size_t q = nameIdx;
    if (dtor) {
        if (q == 0)
            return {};
        --q;    // the `~`
    }
    if (q >= 2 && isPunct(t, q - 1, "::") && isIdent(t, q - 2))
        return t[q - 2].text;
    return {};
}

void
extractParams(const std::vector<Token> &t, FunctionDef &fn)
{
    std::vector<std::pair<size_t, size_t>> parts;
    splitArgs(t, fn.paramOpen + 1, fn.paramClose, parts);
    if (parts.size() == 1 && parts[0].second == parts[0].first + 1 &&
        isIdent(t, parts[0].first, "void"))
        parts.clear();
    if (parts.size() == 1 && parts[0].second <= parts[0].first)
        parts.clear();
    fn.minArity = 0;
    for (const auto &[b, e] : parts) {
        size_t eq =
            findTopLevel(t, b, e, [&](size_t i) { return isPunct(t, i, "="); });
        std::string name;   // the last identifier before any default
        for (size_t i = b; i < eq; ++i)
            if (isIdent(t, i))
                name = t[i].text;
        fn.params.push_back(std::move(name));
        if (eq == e)
            ++fn.minArity;
    }
}

void
extractCalls(const std::vector<Token> &t, const FunctionDef &fn,
             std::vector<CallSite> &out)
{
    size_t b = fn.bodyBegin + 1;
    size_t e = fn.bodyEnd;
    for (size_t i = b; i < e; ++i) {
        if (!isIdent(t, i) || !isPunct(t, i + 1, "("))
            continue;
        const std::string &name = t[i].text;
        if (kControlHeads.count(name) != 0)
            continue;
        CallSite cs;
        cs.name = name;
        cs.nameIdx = i;
        cs.line = t[i].line;
        if (i > b && (isPunct(t, i - 1, ".") || isPunct(t, i - 1, "->"))) {
            cs.recv = receiverPath(t, b, i - 1);
        } else if (i > b && isPunct(t, i - 1, "::")) {
            if (i >= 2 && isIdent(t, i - 2))
                cs.qual = t[i - 2].text;
        } else if (i > b && t[i - 1].kind == Tok::Ident &&
                   kCallPrecursors.count(t[i - 1].text) == 0) {
            continue;    // `Type name(args)` — a declaration, not a call
        }
        size_t close = matchForward(t, i + 1, '(', ')');
        if (close >= e)
            continue;
        if (close > i + 2)
            splitArgs(t, i + 2, close, cs.args);
        out.push_back(std::move(cs));
    }
}

/** Receiver-type environment: `Codec c`, `Codec &c`, `Codec *c`,
 * declared in the parameter list or body, for classes the graph knows
 * methods of. */
std::map<std::string, std::string>
localTypes(const std::vector<Token> &t, const FunctionDef &fn,
           const std::set<std::string> &classes)
{
    std::map<std::string, std::string> types;
    auto scan = [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
            if (!isIdent(t, i) || classes.count(t[i].text) == 0)
                continue;
            if (isPunct(t, i + 1, "::") || isPunct(t, i + 1, "("))
                continue;    // qualifier or constructor call
            if (i > b && (isPunct(t, i - 1, ".") ||
                          isPunct(t, i - 1, "->")))
                continue;    // member access, not a type
            size_t j = i + 1;
            while (j < e && (isPunct(t, j, "&") || isPunct(t, j, "*") ||
                             isIdent(t, j, "const")))
                ++j;
            if (j >= e || !isIdent(t, j))
                continue;
            if (isPunct(t, j + 1, ",") || isPunct(t, j + 1, ")") ||
                isPunct(t, j + 1, ";") || isPunct(t, j + 1, "=") ||
                isPunct(t, j + 1, "(") || isPunct(t, j + 1, "{"))
                types[t[j].text] = t[i].text;
        }
    };
    scan(fn.paramOpen + 1, fn.paramClose);
    scan(fn.bodyBegin + 1, fn.bodyEnd);
    return types;
}

} // namespace

std::vector<FunctionDef>
findFunctions(const std::vector<Token> &t, size_t fileIdx)
{
    std::vector<FunctionDef> out;
    struct Frame
    {
        bool isClass;
        std::string cls;
    };
    std::vector<Frame> stack;
    std::string pendingClass;
    for (size_t i = 0; i < t.size(); ++i) {
        if (isIdent(t, i, "class") || isIdent(t, i, "struct")) {
            // Not `enum class`, nor a template parameter or an
            // elaborated type (`template <class T>`, `(struct stat *)`).
            bool head = i == 0 || !(isIdent(t, i - 1, "enum") ||
                                    isPunct(t, i - 1, "<") ||
                                    isPunct(t, i - 1, ",") ||
                                    isPunct(t, i - 1, "("));
            if (head && isIdent(t, i + 1))
                pendingClass = t[i + 1].text;
            continue;
        }
        if (isPunct(t, i, ";")) {
            pendingClass.clear();
            continue;
        }
        if (isPunct(t, i, "}")) {
            if (!stack.empty())
                stack.pop_back();
            continue;
        }
        if (!isPunct(t, i, "{"))
            continue;
        if (!pendingClass.empty()) {
            stack.push_back({true, pendingClass});
            pendingClass.clear();
            continue;
        }
        size_t po = 0;
        size_t pc = 0;
        size_t m = t.size();
        if (startsFunctionBody(t, i, po, pc))
            m = matchForward(t, i, '{', '}');
        if (m >= t.size()) {
            stack.push_back({false, {}});
            continue;
        }
        FunctionDef fn;
        fn.fileIdx = fileIdx;
        fn.paramOpen = po;
        fn.paramClose = pc;
        fn.bodyBegin = i;
        fn.bodyEnd = m;
        fn.line = t[i].line;
        bool dtor = po >= 2 && isPunct(t, po - 2, "~");
        size_t nameIdx = operatorBefore(t, po);
        if (nameIdx == t.size() && isIdent(t, po - 1))
            nameIdx = po - 1;
        if (nameIdx < t.size()) {
            fn.name = dtor ? "~" + t[nameIdx].text : t[nameIdx].text;
            fn.nameIdx = nameIdx;
            fn.line = t[nameIdx].line;
            fn.cls = outOfLineClass(t, nameIdx, dtor);
            fn.returnType = returnTypeBefore(t, nameIdx, dtor);
        }
        if (fn.cls.empty())
            for (auto it = stack.rbegin(); it != stack.rend(); ++it)
                if (it->isClass) {
                    fn.cls = it->cls;
                    break;
                }
        extractParams(t, fn);
        out.push_back(std::move(fn));
        i = m;    // bodies are consumed whole (lambdas stay inside)
    }
    return out;
}

CallGraph
CallGraph::build(const std::vector<SourceFile> &files)
{
    std::vector<std::string> paths;
    std::vector<std::vector<Token>> merged;
    paths.reserve(files.size());
    merged.reserve(files.size());
    for (const SourceFile &f : files) {
        paths.push_back(f.path);
        merged.push_back(mergeOperators(Lexer(f.content).run()));
    }
    return build(std::move(paths), std::move(merged));
}

CallGraph
CallGraph::build(std::vector<std::string> paths,
                 std::vector<std::vector<Token>> merged)
{
    CallGraph g;
    g.paths_ = std::move(paths);
    g.toks_ = std::move(merged);

    for (size_t fi = 0; fi < g.toks_.size(); ++fi)
        for (FunctionDef &fn : findFunctions(g.toks_[fi], fi))
            if (!fn.name.empty() && fn.name != "operator")
                g.fns_.push_back(std::move(fn));

    // Pass 2: call sites per function.
    g.calls_.resize(g.fns_.size());
    for (size_t id = 0; id < g.fns_.size(); ++id)
        extractCalls(g.toks_[g.fns_[id].fileIdx], g.fns_[id],
                     g.calls_[id]);

    // Pass 3: resolution by name + arity (+ receiver type for members).
    std::set<std::string> classes;
    std::map<std::string, std::vector<int>> freeByName;
    std::map<std::pair<std::string, std::string>, std::vector<int>>
        methods;
    for (size_t id = 0; id < g.fns_.size(); ++id) {
        const FunctionDef &fn = g.fns_[id];
        if (fn.cls.empty())
            freeByName[fn.name].push_back(static_cast<int>(id));
        else {
            classes.insert(fn.cls);
            methods[{fn.cls, fn.name}].push_back(static_cast<int>(id));
        }
    }
    auto pickByArity = [&](const std::vector<int> *cands,
                           size_t argc) -> int {
        if (cands == nullptr)
            return -1;
        int hit = -1;
        for (int id : *cands) {
            const FunctionDef &fn = g.fns_[static_cast<size_t>(id)];
            if (argc < fn.minArity || argc > fn.params.size())
                continue;
            if (hit >= 0)
                return -1;    // ambiguous: degrade to unknown callee
            hit = id;
        }
        return hit;
    };
    auto lookup = [&](auto &table, const auto &key) ->
        const std::vector<int> * {
            auto it = table.find(key);
            return it == table.end() ? nullptr : &it->second;
        };
    for (size_t id = 0; id < g.fns_.size(); ++id) {
        const FunctionDef &caller = g.fns_[id];
        std::map<std::string, std::string> types;
        bool typed = false;
        for (CallSite &cs : g.calls_[id]) {
            size_t argc = cs.args.size();
            if (!cs.recv.empty()) {
                if (!typed) {
                    types = localTypes(g.toks_[caller.fileIdx], caller,
                                       classes);
                    typed = true;
                }
                std::string cls;
                if (cs.recv == "this")
                    cls = caller.cls;
                else if (cs.recv.find('.') == std::string::npos) {
                    auto it = types.find(cs.recv);
                    if (it != types.end())
                        cls = it->second;
                }
                if (!cls.empty())
                    cs.target = pickByArity(
                        lookup(methods, std::make_pair(cls, cs.name)),
                        argc);
            } else if (!cs.qual.empty()) {
                if (classes.count(cs.qual) != 0)
                    cs.target = pickByArity(
                        lookup(methods,
                               std::make_pair(cs.qual, cs.name)),
                        argc);
                else
                    cs.target =
                        pickByArity(lookup(freeByName, cs.name), argc);
            } else {
                if (!caller.cls.empty())
                    cs.target = pickByArity(
                        lookup(methods,
                               std::make_pair(caller.cls, cs.name)),
                        argc);
                if (cs.target < 0)
                    cs.target =
                        pickByArity(lookup(freeByName, cs.name), argc);
            }
        }
    }

    // Lookup index: per file, (bodyBegin, id) sorted.
    g.byFile_.resize(g.toks_.size());
    for (size_t id = 0; id < g.fns_.size(); ++id)
        g.byFile_[g.fns_[id].fileIdx].emplace_back(
            g.fns_[id].bodyBegin, static_cast<int>(id));
    for (auto &v : g.byFile_)
        std::sort(v.begin(), v.end());

    // Pass 4: Tarjan SCCs, emitted callee-first (bottom-up).
    size_t n = g.fns_.size();
    std::vector<int> index(n, -1);
    std::vector<int> low(n, 0);
    std::vector<bool> onStack(n, false);
    std::vector<int> stack;
    int next = 0;
    struct Work
    {
        int v;
        size_t edge;
    };
    for (size_t root = 0; root < n; ++root) {
        if (index[root] >= 0)
            continue;
        std::vector<Work> work{{static_cast<int>(root), 0}};
        while (!work.empty()) {
            Work &w = work.back();
            size_t v = static_cast<size_t>(w.v);
            if (w.edge == 0) {
                index[v] = low[v] = next++;
                stack.push_back(w.v);
                onStack[v] = true;
            }
            bool descended = false;
            while (w.edge < g.calls_[v].size()) {
                int to = g.calls_[v][w.edge++].target;
                if (to < 0)
                    continue;
                size_t u = static_cast<size_t>(to);
                if (index[u] < 0) {
                    work.push_back({to, 0});
                    descended = true;
                    break;
                }
                if (onStack[u])
                    low[v] = std::min(low[v], index[u]);
            }
            if (descended)
                continue;
            if (low[v] == index[v]) {
                std::vector<int> scc;
                int u;
                do {
                    u = stack.back();
                    stack.pop_back();
                    onStack[static_cast<size_t>(u)] = false;
                    scc.push_back(u);
                } while (u != w.v);
                g.sccs_.push_back(std::move(scc));
            }
            int done = w.v;
            work.pop_back();
            if (!work.empty()) {
                size_t p = static_cast<size_t>(work.back().v);
                low[p] = std::min(low[p], low[static_cast<size_t>(done)]);
            }
        }
    }
    return g;
}

int
CallGraph::functionAt(size_t fileIdx, size_t tokIdx) const
{
    if (fileIdx >= byFile_.size())
        return -1;
    const auto &fns = byFile_[fileIdx];
    auto it = std::upper_bound(
        fns.begin(), fns.end(), tokIdx,
        [](size_t v, const std::pair<size_t, int> &p) {
            return v < p.first;
        });
    if (it == fns.begin())
        return -1;
    --it;
    const FunctionDef &fn = fns_[static_cast<size_t>(it->second)];
    return fn.bodyBegin < tokIdx && tokIdx < fn.bodyEnd ? it->second
                                                        : -1;
}

const CallSite *
CallGraph::callAt(size_t fileIdx, size_t tokIdx) const
{
    int id = functionAt(fileIdx, tokIdx);
    if (id < 0)
        return nullptr;
    const auto &calls = calls_[static_cast<size_t>(id)];
    auto it = std::lower_bound(calls.begin(), calls.end(), tokIdx,
                               [](const CallSite &cs, size_t v) {
                                   return cs.nameIdx < v;
                               });
    if (it != calls.end() && it->nameIdx == tokIdx)
        return &*it;
    return nullptr;
}

} // namespace nxcommon
