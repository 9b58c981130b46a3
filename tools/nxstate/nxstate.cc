/**
 * @file
 * nxstate implementation: declarative typestate protocols checked by a
 * small intra-procedural CFG walk, plus a global lock-order graph.
 *
 * The shape of the analysis, front to back:
 *
 *   1. Lex every file (tools/common/lexer.h), collect `nxstate:
 *      allow(...)` suppressions (tools/common/allow.h), and harvest
 *      protocol declarations — NXSIM_PROTOCOL macro invocations in the
 *      merged token stream and `// nxstate: protocol(Class: spec)`
 *      comments in the raw one. Declarations are global: a class
 *      annotated in its header is enforced in every translation unit.
 *   2. Find function bodies with the shared finder
 *      (nxcommon::findFunctions) and walk each one with the shared CFG
 *      walker (common/cfg_walk.h), keeping, per protocol-typed local,
 *      the SET of phases the object could be in: if/else branches fork
 *      and re-join the set, loop bodies run twice (second pass seeded
 *      with the first pass's back-edge state, which is what catches
 *      cross-iteration misuse), each switch case starts from the
 *      head's state, break/continue carry their state to their loop or
 *      switch, and early returns terminate their path. A finding
 *      fires only when EVERY possible phase rejects a call.
 *   3. Lock order: every RAII lock acquisition (nx::MutexLock,
 *      std::lock_guard/unique_lock/scoped_lock/shared_lock) pushes a
 *      scope entry; acquiring B while A is held adds the global edge
 *      A -> B. A cycle in the resulting graph is a potential deadlock
 *      (rule lock-cycle); --dot prints the graph.
 *
 * Handle lifecycles (a JobServer ticket claimed exactly once) are
 * nxown's, from the NXSIM_ACQUIRES/RELEASES annotations.
 *
 * Everything is deliberately token-level — no compiler frontend, same
 * philosophy as nxlint/nxdeps/nxtaint — so soundness corner cases are
 * traded for zero false positives on this codebase's idiom.
 */

#include "nxstate/nxstate.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "common/allow.h"
#include "common/callgraph.h"
#include "common/cfg_walk.h"
#include "common/cycles.h"
#include "common/fileset.h"
#include "common/lexer.h"
#include "common/tokens.h"

namespace nxstate {

namespace {

using nxcommon::Allow;
using nxcommon::FunctionDef;
using nxcommon::isIdent;
using nxcommon::isPunct;
using nxcommon::matchForward;
using nxlex::Lexer;
using nxlex::Tok;
using nxlex::Token;
using nxlex::trim;

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"protocol-order",
     "method called before its declared phase is reachable"},
    {"use-after-finish",
     "method called after the final phase consumed the object"},
    {"double-finish", "a once-only final phase entered twice"},
    {"lock-cycle",
     "the global lock-acquisition graph has a cycle (potential "
     "deadlock)"},
    {"protocol-decl", "malformed or conflicting protocol declaration"},
    {"bare-allow",
     "allow() without a justification, or naming an unknown rule"},
    {"stale-allow", "allow() that no longer suppresses any finding"},
    {"io-error", "file could not be read"},
};

// ---------------------------------------------------------------------------
// Protocol tables
// ---------------------------------------------------------------------------

/** One callable step: a method name, optionally distinguished by an
 * argument marker (`write[Finish]` matches a write() whose argument
 * list mentions the identifier Finish). */
struct Atom
{
    std::string method;
    std::string marker;
};

/** One phase: alternatives plus multiplicity ('1' = exactly once). */
struct Phase
{
    std::vector<Atom> atoms;
    char mult = '1';
};

struct Protocol
{
    std::string cls;
    std::vector<Phase> phases;
    std::string pretty;      ///< canonical spec text for messages
    std::string declFile;
    int declLine = 0;
};

struct Tables
{
    std::map<std::string, Protocol> protos;   ///< by class name
};

bool
multAllows(char mult, int used)
{
    return mult == '*' || mult == '+' || used < 1;
}

bool
leavable(char mult, int used)
{
    return mult == '*' || mult == '?' || used >= 1;
}

bool
skippable(const Phase &ph)
{
    return ph.mult == '*' || ph.mult == '?';
}

std::string
phaseText(const Phase &ph)
{
    std::string s;
    if (ph.atoms.size() > 1)
        s += "{";
    for (size_t i = 0; i < ph.atoms.size(); ++i) {
        if (i > 0)
            s += "|";
        s += ph.atoms[i].method;
        if (!ph.atoms[i].marker.empty())
            s += "[" + ph.atoms[i].marker + "]";
    }
    if (ph.atoms.size() > 1)
        s += "}";
    if (ph.mult != '1')
        s += ph.mult;
    return s;
}

std::string
prettySpec(const Protocol &p)
{
    std::string s;
    for (size_t i = 0; i < p.phases.size(); ++i) {
        if (i > 0)
            s += " -> ";
        s += phaseText(p.phases[i]);
    }
    return s;
}

bool
parseAtom(const std::vector<Token> &t, size_t &i, size_t e, Atom &a)
{
    if (i >= e || !isIdent(t, i))
        return false;
    a.method = t[i].text;
    ++i;
    if (i < e && isPunct(t, i, "[")) {
        if (!isIdent(t, i + 1) || !isPunct(t, i + 2, "]"))
            return false;
        a.marker = t[i + 1].text;
        i += 3;
    }
    return true;
}

/** Parse `phase ('->' phase)*` from the merged tokens [b, e). */
bool
parseSpec(const std::vector<Token> &t, size_t b, size_t e, Protocol &p)
{
    size_t i = b;
    while (i < e) {
        Phase ph;
        if (isPunct(t, i, "{")) {
            ++i;
            while (true) {
                Atom a;
                if (!parseAtom(t, i, e, a))
                    return false;
                ph.atoms.push_back(std::move(a));
                if (i < e && isPunct(t, i, "|")) {
                    ++i;
                    continue;
                }
                break;
            }
            if (i >= e || !isPunct(t, i, "}"))
                return false;
            ++i;
        } else {
            Atom a;
            if (!parseAtom(t, i, e, a))
                return false;
            ph.atoms.push_back(std::move(a));
        }
        if (i < e && t[i].kind == Tok::Punct &&
            (t[i].text == "*" || t[i].text == "+" || t[i].text == "?")) {
            ph.mult = t[i].text[0];
            ++i;
        }
        p.phases.push_back(std::move(ph));
        if (i >= e)
            break;
        if (!isPunct(t, i, "->"))
            return false;
        ++i;
        if (i >= e)
            return false;   // trailing ->
    }
    return !p.phases.empty();
}

std::string
lastIdentIn(const std::vector<Token> &t, size_t b, size_t e)
{
    std::string s;
    for (size_t i = b; i < e; ++i)
        if (isIdent(t, i))
            s = t[i].text;
    return s;
}

void
registerProtocol(Tables &tb, Protocol &&p, std::vector<Finding> &raw)
{
    auto it = tb.protos.find(p.cls);
    if (it != tb.protos.end()) {
        if (it->second.pretty != p.pretty)
            raw.push_back(
                {p.declFile, p.declLine, "protocol-decl",
                 "conflicting protocol for '" + p.cls +
                     "' (already declared at " + it->second.declFile +
                     ":" + std::to_string(it->second.declLine) + ")"});
        return;
    }
    tb.protos.emplace(p.cls, std::move(p));
}

/** NXSIM_PROTOCOL invocations (merged stream; the #define in
 * src/util/protocol.h is a Pp token, so only real invocations are
 * visible here). */
void
collectMacroProtocols(const std::vector<Token> &t, std::string_view file,
                      Tables &tb, std::vector<Finding> &raw)
{
    for (size_t i = 0; i < t.size(); ++i) {
        if (!isIdent(t, i, "NXSIM_PROTOCOL") || !isPunct(t, i + 1, "("))
            continue;
        int line = t[i].line;
        size_t close = matchForward(t, i + 1, '(', ')');
        if (close >= t.size()) {
            raw.push_back({std::string(file), line, "protocol-decl",
                           "unterminated protocol declaration"});
            continue;
        }
        std::vector<std::pair<size_t, size_t>> parts;
        nxcommon::splitArgs(t, i + 2, close, parts);
        i = close;
        if (parts.size() != 2) {
            raw.push_back({std::string(file), line, "protocol-decl",
                           "NXSIM_PROTOCOL needs exactly (Class, spec)"});
            continue;
        }
        Protocol p;
        p.cls = lastIdentIn(t, parts[0].first, parts[0].second);
        p.declFile = std::string(file);
        p.declLine = line;
        if (p.cls.empty() ||
            !parseSpec(t, parts[1].first, parts[1].second, p)) {
            raw.push_back({std::string(file), line, "protocol-decl",
                           "malformed protocol spec for '" + p.cls + "'"});
            continue;
        }
        p.pretty = prettySpec(p);
        registerProtocol(tb, std::move(p), raw);
    }
}

/** `// nxstate: protocol(Class: spec)` comment declarations (raw
 * stream). Anchored exactly like allow(): the line comment itself must
 * start with `nxstate:`, so prose never parses as a declaration. */
void
collectCommentProtocols(const std::vector<Token> &raw, std::string_view file,
                        Tables &tb, std::vector<Finding> &findings)
{
    for (const Token &tk : raw) {
        if (tk.kind != Tok::Comment || tk.text.rfind("//", 0) != 0)
            continue;
        std::string_view body = trim(std::string_view(tk.text).substr(2));
        if (body.rfind("nxstate:", 0) != 0)
            continue;
        body = trim(body.substr(8));
        if (body.rfind("protocol(", 0) != 0)
            continue;
        body.remove_prefix(9);
        size_t rp = body.rfind(')');
        size_t colon = body.find(':');
        if (rp == std::string_view::npos || colon == std::string_view::npos ||
            colon > rp) {
            findings.push_back(
                {std::string(file), tk.line, "protocol-decl",
                 "malformed comment protocol; expected `// nxstate: "
                 "protocol(Class: spec)`"});
            continue;
        }
        Protocol p;
        std::string clsText{trim(body.substr(0, colon))};
        size_t q = clsText.rfind("::");
        p.cls = q == std::string::npos ? clsText : clsText.substr(q + 2);
        p.declFile = std::string(file);
        p.declLine = tk.line;
        std::string spec{body.substr(colon + 1, rp - colon - 1)};
        std::vector<Token> toks =
            nxcommon::mergeOperators(Lexer(spec).run());
        if (p.cls.empty() || !parseSpec(toks, 0, toks.size(), p)) {
            findings.push_back({std::string(file), tk.line,
                                "protocol-decl",
                                "malformed protocol spec for '" + p.cls +
                                    "'"});
            continue;
        }
        p.pretty = prettySpec(p);
        registerProtocol(tb, std::move(p), findings);
    }
}

// ---------------------------------------------------------------------------
// Lock-order graph
// ---------------------------------------------------------------------------

struct LockEdge
{
    size_t to = 0;
    std::string file;
    int line = 0;
};

struct LockGraph
{
    std::vector<std::string> names;
    std::map<std::string, size_t> idx;
    std::map<std::pair<size_t, size_t>, LockEdge> edges;

    size_t
    intern(const std::string &n)
    {
        auto it = idx.find(n);
        if (it != idx.end())
            return it->second;
        size_t i = names.size();
        idx.emplace(n, i);
        names.push_back(n);
        return i;
    }
};

const std::set<std::string, std::less<>> kLockTypes = {
    "MutexLock", "lock_guard", "unique_lock", "scoped_lock",
    "shared_lock"};

const std::set<std::string, std::less<>> kLockTags = {
    "adopt_lock", "defer_lock", "try_to_lock"};

// ---------------------------------------------------------------------------
// The typestate walker
// ---------------------------------------------------------------------------

/** Everything tracked along one CFG path. */
struct PathState
{
    std::map<std::string, const Protocol *> protoOf;
    /** var -> possible (phase index, uses of that phase); phase -1 is
     * the virtual start state. */
    std::map<std::string, std::set<std::pair<int, int>>> vars;
};

const std::set<std::string, std::less<>> kStmtKeywords = {
    "if",   "for",     "while",  "do",    "switch", "case",
    "else", "default", "return", "throw", "break",  "continue",
    "goto", "try",     "catch",  "co_return"};

const std::set<std::string, std::less<>> kNotVarName = {
    "operator", "const", "final", "override", "noexcept"};

class BodyCheck
{
  public:
    BodyCheck(std::string_view file, const std::vector<Token> &t,
              const Tables &tb, std::vector<Finding> &out)
        : file_(file), t_(t), tb_(tb), out_(out)
    {
    }

    void
    run(size_t b, size_t e)
    {
        PathState st;
        nxcommon::CfgWalk<BodyCheck>(t_, *this).walk(b, e, st);
    }

    // -- the analysis, as nxcommon::CfgWalk's hooks ------------------

    using State = PathState;

    static PathState
    join(const PathState &a, const PathState &b)
    {
        PathState j = a;
        for (const auto &kv : b.protoOf)
            j.protoOf.emplace(kv.first, kv.second);
        for (const auto &kv : b.vars) {
            auto &s = j.vars[kv.first];
            s.insert(kv.second.begin(), kv.second.end());
        }
        return j;
    }

    void
    condition(size_t b, size_t e, PathState &st)
    {
        statement(b, e, st);
    }

    void
    exit(size_t kw, size_t e, PathState &st)
    {
        statement(kw + 1, e, st);
    }

    void
    statement(size_t b, size_t e, PathState &st)
    {
        detectProtocolDecls(b, e, st);
        for (size_t i = b; i < e; ++i) {
            if (!isIdent(t_, i) || !isPunct(t_, i + 1, "("))
                continue;
            if (i == b ||
                !(isPunct(t_, i - 1, ".") || isPunct(t_, i - 1, "->")))
                continue;
            std::string recv = nxcommon::receiverPath(t_, b, i - 1);
            auto vit = st.protoOf.find(recv);
            if (vit == st.protoOf.end())
                continue;
            size_t close = std::min(matchForward(t_, i + 1, '(', ')'), e);
            transition(*vit->second, recv, t_[i].text, i + 2, close,
                       t_[i].line, st);
        }
    }

  private:
    void
    detectProtocolDecls(size_t b, size_t e, PathState &st)
    {
        for (size_t i = b; i < e; ++i) {
            if (!isIdent(t_, i))
                continue;
            auto pit = tb_.protos.find(t_[i].text);
            if (pit == tb_.protos.end())
                continue;
            if (i > b &&
                (isPunct(t_, i - 1, ".") || isPunct(t_, i - 1, "->")))
                continue;   // member access, not a type
            if (!isIdent(t_, i + 1) ||
                kNotVarName.count(t_[i + 1].text) != 0 ||
                kStmtKeywords.count(t_[i + 1].text) != 0)
                continue;
            size_t after = i + 2;
            if (!(isPunct(t_, after, "(") || isPunct(t_, after, "{") ||
                  isPunct(t_, after, ";") || isPunct(t_, after, "=")))
                continue;
            const std::string &var = t_[i + 1].text;
            st.protoOf[var] = &pit->second;
            st.vars[var] = {{-1, 1}};   // virtual start state
        }
    }

    void
    transition(const Protocol &proto, const std::string &var,
               const std::string &m, size_t ab, size_t ae, int line,
               PathState &st)
    {
        std::set<std::string> idents;
        for (size_t i = ab; i < ae; ++i)
            if (isIdent(t_, i))
                idents.insert(t_[i].text);

        // When any marked atom for this method has its marker present,
        // the call matches ONLY marked atoms; otherwise only unmarked.
        bool markerMode = false;
        for (const Phase &ph : proto.phases)
            for (const Atom &a : ph.atoms)
                if (a.method == m && !a.marker.empty() &&
                    idents.count(a.marker) != 0)
                    markerMode = true;
        auto phaseMatches = [&](const Phase &ph) {
            for (const Atom &a : ph.atoms) {
                if (a.method != m)
                    continue;
                if (markerMode
                        ? (!a.marker.empty() && idents.count(a.marker) != 0)
                        : a.marker.empty())
                    return true;
            }
            return false;
        };

        std::vector<int> matching;
        for (size_t q = 0; q < proto.phases.size(); ++q)
            if (phaseMatches(proto.phases[q]))
                matching.push_back(static_cast<int>(q));
        if (matching.empty())
            return;   // unconstrained method

        auto &S = st.vars[var];
        if (S.empty())
            S = {{-1, 1}};
        std::set<std::pair<int, int>> NS;
        for (const auto &[p, u] : S) {
            if (p >= 0 &&
                phaseMatches(proto.phases[static_cast<size_t>(p)]) &&
                multAllows(proto.phases[static_cast<size_t>(p)].mult, u))
                NS.insert({p, std::min(u + 1, 2)});
            bool canLeave =
                p < 0 ||
                leavable(proto.phases[static_cast<size_t>(p)].mult, u);
            if (!canLeave)
                continue;
            for (int q = p + 1;
                 q < static_cast<int>(proto.phases.size()); ++q) {
                const Phase &ph = proto.phases[static_cast<size_t>(q)];
                if (phaseMatches(ph))
                    NS.insert({q, 1});
                if (!skippable(ph))
                    break;
            }
        }
        if (!NS.empty()) {
            S = std::move(NS);
            return;
        }

        // Every possible phase rejects the call: classify and report.
        int maxM = matching.back();
        int last = static_cast<int>(proto.phases.size()) - 1;
        bool doubleFin = false;
        bool anyLast = false;
        bool allPast = true;
        for (const auto &[p, u] : S) {
            if (p == last)
                anyLast = true;
            if (p <= maxM)
                allPast = false;
            if (p == maxM && p == last &&
                !multAllows(proto.phases[static_cast<size_t>(p)].mult, u))
                doubleFin = true;
        }
        std::string head = proto.cls + "::" + m + "()";
        if (doubleFin) {
            report(line, "double-finish",
                   head + " repeats final phase '" +
                       phaseText(proto.phases[static_cast<size_t>(last)]) +
                       "' (protocol: " + proto.pretty + ")");
        } else if (allPast && anyLast) {
            report(line, "use-after-finish",
                   head + " called after '" +
                       phaseText(proto.phases[static_cast<size_t>(last)]) +
                       "' finished the object (protocol: " + proto.pretty +
                       ")");
        } else {
            // Name the first unskippable phase standing in the way,
            // when there is one.
            std::string blocker;
            int minP = S.empty() ? -1 : S.begin()->first;
            for (int q = minP + 1; q < maxM; ++q) {
                const Phase &ph = proto.phases[static_cast<size_t>(q)];
                if (!skippable(ph) && !phaseMatches(ph)) {
                    blocker = phaseText(ph);
                    break;
                }
            }
            std::string msg =
                blocker.empty()
                    ? head + " called out of protocol order (protocol: " +
                          proto.pretty + ")"
                    : head + " called before required phase '" + blocker +
                          "' (protocol: " + proto.pretty + ")";
            report(line, "protocol-order", msg);
        }
        S = {{maxM, 1}};   // repair: assume the call was meant here
    }

    void
    report(int line, const std::string &rule, const std::string &msg)
    {
        // Loop bodies run twice; identical findings dedupe here.
        if (!seen_.insert(std::make_tuple(line, rule, msg)).second)
            return;
        out_.push_back({std::string(file_), line, rule, msg});
    }

    std::string_view file_;
    const std::vector<Token> &t_;
    const Tables &tb_;
    std::vector<Finding> &out_;
    std::set<std::tuple<int, std::string, std::string>> seen_;
};

// ---------------------------------------------------------------------------
// Lock scanning
// ---------------------------------------------------------------------------

/** RAII lock acquisitions in one body: scope-stack the held set and
 * record a global edge held -> new for every nesting. */
void
lockScan(const std::vector<Token> &t, size_t b, size_t e,
         const std::string &cls, std::string_view file, LockGraph &lg)
{
    struct Held
    {
        int depth;
        size_t node;
    };
    std::vector<Held> held;
    int depth = 0;
    for (size_t i = b; i < e; ++i) {
        if (isPunct(t, i, "{")) {
            ++depth;
            continue;
        }
        if (isPunct(t, i, "}")) {
            --depth;
            while (!held.empty() && held.back().depth > depth)
                held.pop_back();
            continue;
        }
        if (!isIdent(t, i) || kLockTypes.count(t[i].text) == 0)
            continue;
        size_t j = i + 1;
        if (isPunct(t, j, "<"))
            j = matchForward(t, j, '<', '>') + 1;
        if (!isIdent(t, j) || !isPunct(t, j + 1, "("))
            continue;
        size_t close = matchForward(t, j + 1, '(', ')');
        if (close >= t.size() || close > e)
            continue;
        std::vector<std::pair<size_t, size_t>> args;
        nxcommon::splitArgs(t, j + 2, close, args);
        for (auto [ab, ae] : args) {
            while (ab < ae && (isPunct(t, ab, "*") || isPunct(t, ab, "&")))
                ++ab;   // deref/addr-of: name the object
            std::string path = nxcommon::simplePath(t, ab, ae);
            if (path.empty())
                continue;
            bool isTag = false;
            for (const auto &tag : kLockTags)
                if (path.size() >= tag.size() &&
                    path.compare(path.size() - tag.size(), tag.size(),
                                 tag) == 0)
                    isTag = true;
            if (isTag)
                continue;
            std::string name =
                (!cls.empty() && path.find('.') == std::string::npos &&
                 path.find("::") == std::string::npos)
                    ? cls + "::" + path
                    : path;
            size_t node = lg.intern(name);
            for (const Held &h : held)
                if (h.node != node)
                    lg.edges.emplace(std::make_pair(h.node, node),
                                     LockEdge{node, std::string(file),
                                              t[i].line});
            held.push_back({depth, node});
        }
        i = close;
    }
}

// ---------------------------------------------------------------------------
// Lock-cycle detection + DOT
// ---------------------------------------------------------------------------

void
lockCycles(const LockGraph &lg, std::vector<Finding> &out)
{
    std::vector<std::vector<LockEdge>> adj(lg.names.size());
    for (const auto &kv : lg.edges)
        adj[kv.first.first].push_back(kv.second);
    nxcommon::forEachCycle(adj, [&](const std::vector<size_t> &chain,
                                    const LockEdge &e) {
        out.push_back({e.file, e.line, "lock-cycle",
                       "lock-order cycle (potential deadlock): " +
                           nxcommon::cycleText(chain, lg.names)});
    });
}

std::string
lockDot(const LockGraph &lg)
{
    std::ostringstream dot;
    dot << "digraph nxstate_locks {\n"
        << "  rankdir=LR;\n"
        << "  node [shape=box];\n";
    for (const std::string &n : lg.names)
        dot << "  \"" << n << "\";\n";
    for (const auto &kv : lg.edges)
        dot << "  \"" << lg.names[kv.first.first] << "\" -> \""
            << lg.names[kv.first.second] << "\";  // " << kv.second.file
            << ":" << kv.second.line << "\n";
    dot << "}\n";
    return dot.str();
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

Analysis
analyzeFiles(const std::vector<SourceFile> &files)
{
    Analysis an;
    size_t n = files.size();
    std::vector<std::vector<Token>> merged(n);
    std::vector<std::vector<Allow>> allows(n);
    std::vector<Finding> raw;
    Tables tb;

    for (size_t i = 0; i < n; ++i) {
        std::vector<Token> rawToks = Lexer(files[i].content).run();
        allows[i] = nxcommon::collectAllows(rawToks, "nxstate", kRules,
                                            raw, files[i].path);
        collectCommentProtocols(rawToks, files[i].path, tb, raw);
        merged[i] = nxcommon::mergeOperators(rawToks);
        collectMacroProtocols(merged[i], files[i].path, tb, raw);
    }

    // Every function body gets the typestate walk and the lock scan.
    LockGraph lg;
    for (size_t i = 0; i < n; ++i)
        for (const FunctionDef &fn : nxcommon::findFunctions(merged[i], i)) {
            BodyCheck(files[i].path, merged[i], tb, raw)
                .run(fn.bodyBegin + 1, fn.bodyEnd);
            lockScan(merged[i], fn.bodyBegin + 1, fn.bodyEnd, fn.cls,
                     files[i].path, lg);
        }
    lockCycles(lg, raw);
    an.lockDot = lockDot(lg);

    std::map<std::string, size_t> idx;
    for (size_t i = 0; i < n; ++i)
        idx.emplace(files[i].path, i);
    std::vector<std::vector<Finding>> perFile(n);
    for (Finding &f : raw) {
        auto it = idx.find(f.file);
        if (it == idx.end())
            an.findings.push_back(std::move(f));
        else
            perFile[it->second].push_back(std::move(f));
    }
    for (size_t i = 0; i < n; ++i)
        nxcommon::applyAllows(std::move(perFile[i]), allows[i],
                              files[i].path, an.findings);
    nxcommon::sortFindings(an.findings);
    return an;
}

Analysis
analyzeTree(const std::string &root)
{
    nxcommon::TreeLoad tree = nxcommon::loadTree(
        root, {"src", "tools", "bench", "examples"});
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

} // namespace nxstate
