/**
 * @file
 * nxown implementation. See nxown.h for the contract and the rule
 * table, and src/util/ownership.h for the annotation vocabulary.
 *
 * Pipeline:
 *
 *   1. Harvest — scan every file's token stream for
 *      NXSIM_ACQUIRES/RELEASES/TRANSFERS, walking backward from each
 *      macro (over qualifiers and sibling NXSIM_* annotation groups)
 *      to the parameter list and name of the function it annotates.
 *      Classify releases: destructor -> RAII-holder marker, method of
 *      a holder class -> receiver release, >= 1 parameter -> by-arg
 *      release, otherwise drain-all.
 *   2. Summaries — over the shared call graph in bottom-up SCC order,
 *      derive per-function facts: returns-a-held-handle (the helper
 *      acts as an acquirer at its call sites), releases-its-parameter
 *      (the helper consumes the caller's handle), drains-a-tag.
 *   3. Walk — each function body with the shared CFG walker
 *      (common/cfg_walk.h: if/else fork+join, loop bodies twice, each
 *      switch case from the head, break/continue carry their state to
 *      their loop or switch, early returns terminate a path),
 *      tracking each bound handle's possible-state set {Held,
 *      Released, Moved}.
 *      Leaks are exists-path (any exit that can still hold fires);
 *      double-release / release-after-transfer are must (every
 *      possible state agrees) so branchy code never yields
 *      maybe-findings.
 *
 * Deliberate under-approximations, all in the no-false-positive
 * direction: only simple `var = ...acquire...` bindings are tracked
 * (an acquire result that is not bound escapes untracked); a condition
 * or contract macro mentioning the handle marks it conditional and
 * exits stop counting as leaks; passing a handle whole to an unknown
 * callee transfers it; passing a member path (`f(r.ticket)`) is a
 * possible transfer and also marks the handle conditional.
 */

#include "nxown/nxown.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "common/allow.h"
#include "common/callgraph.h"
#include "common/cfg_walk.h"
#include "common/tokens.h"

namespace nxown {

namespace {

using nxcommon::Allow;
using nxcommon::CallGraph;
using nxcommon::CallSite;
using nxcommon::findTopLevel;
using nxcommon::FunctionDef;
using nxcommon::isIdent;
using nxcommon::isPunct;
using nxcommon::matchBackward;
using nxcommon::matchForward;
using nxcommon::simplePath;
using nxcommon::splitArgs;
using nxlex::Token;

const std::vector<RuleInfo> kRules = {
    {"own-leak",
     "a path can exit the function still holding an acquired handle"},
    {"own-double-release",
     "handle released again after every path already released it"},
    {"own-release-unacquired",
     "handle released after its ownership was transferred away"},
    {"own-annotation",
     "malformed NXSIM_ACQUIRES/NXSIM_RELEASES/NXSIM_TRANSFERS annotation"},
    {"bare-allow", "allow() without a justification or with an unknown rule"},
    {"stale-allow", "allow() that no longer suppresses anything"},
    {"io-error", "file could not be read"},
};

bool
isContract(std::string_view name)
{
    return name == "NXSIM_EXPECT" || name == "NXSIM_ENSURE" ||
           name == "NXSIM_ASSERT" || name == "FUZZ_CHECK";
}

// ---------------------------------------------------------------------------
// Annotation harvest
// ---------------------------------------------------------------------------

/** How a NXSIM_RELEASES function consumes handles. */
enum class RelKind
{
    Receiver, ///< method of a holder class: `lease.release()`
    ByArg,    ///< consumes the handle rooted at an argument: `wait(r.ticket)`
    DrainAll, ///< releases every live handle of the tag: `drainAndStop()`
};

/** One raw annotation, before classification. */
struct RawAnn
{
    int macro = 0; ///< 0 = ACQUIRES, 1 = RELEASES, 2 = TRANSFERS
    std::string tag;
    std::string fn;  ///< annotated function name ("~X" for destructors)
    std::string cls; ///< enclosing class, "" at namespace scope
    std::string ret; ///< return type identifier nearest the name
    size_t nParams = 0;
    bool isDtor = false;
};

/** Classified annotation tables, global across the analyzed file set. */
struct Tables
{
    struct Acq
    {
        std::string tag;
        bool raii = false; ///< holder class has a RELEASES destructor
    };
    std::map<std::string, Acq> acquires;
    std::map<std::string, std::pair<std::string, RelKind>> releases;
    std::map<std::string, std::string> transfers;
};

int
macroIndex(std::string_view name)
{
    if (name == "NXSIM_ACQUIRES")
        return 0;
    if (name == "NXSIM_RELEASES")
        return 1;
    if (name == "NXSIM_TRANSFERS")
        return 2;
    return -1;
}

/**
 * Walk backward from the macro token at @p m over qualifiers (const,
 * noexcept, ref-qualifiers) and sibling NXSIM_* annotation groups to
 * the annotated function's parameter list. Fills @p ann's fn/ret/
 * nParams/isDtor; false when the macro is not attached to a function
 * declaration.
 */
bool
findAnnotatedFunction(const std::vector<Token> &t, size_t m, RawAnn &ann)
{
    size_t k = m;
    while (k > 0) {
        --k;
        if (isPunct(t, k, ")")) {
            size_t o = matchBackward(t, k, '(', ')');
            if (o >= t.size() || o == 0)
                return false;
            if (isIdent(t, o - 1) &&
                t[o - 1].text.rfind("NXSIM_", 0) == 0) {
                k = o - 1; // skip a preceding annotation group whole
                continue;
            }
            if (!isIdent(t, o - 1))
                return false;
            ann.fn = t[o - 1].text;
            ann.isDtor = o >= 2 && isPunct(t, o - 2, "~");
            if (ann.isDtor)
                ann.fn = "~" + ann.fn;
            if (o + 1 < k && !(k == o + 2 && isIdent(t, o + 1, "void"))) {
                std::vector<std::pair<size_t, size_t>> args;
                splitArgs(t, o + 1, k, args);
                ann.nParams = args.size();
            }
            if (!ann.isDtor) {
                size_t p = o - 2;
                while (p > 0 && (isPunct(t, p, "*") || isPunct(t, p, "&") ||
                                 isPunct(t, p, "&&")))
                    --p;
                if (isIdent(t, p))
                    ann.ret = t[p].text;
            }
            return true;
        }
        if (isIdent(t, k) &&
            (t[k].text == "const" || t[k].text == "noexcept" ||
             t[k].text == "override" || t[k].text == "final"))
            continue;
        if (isPunct(t, k, "&") || isPunct(t, k, "&&"))
            continue;
        return false;
    }
    return false;
}

/**
 * Harvest every ownership annotation in one file. Maintains a brace
 * stack so in-class declarations know their enclosing class; malformed
 * annotations become own-annotation findings.
 */
void
harvestFile(const std::vector<Token> &t, std::string_view file,
            std::vector<RawAnn> &anns, std::vector<Finding> &findings)
{
    std::vector<std::string> stack; // class name per '{', "" otherwise
    std::string pendingClass;
    for (size_t i = 0; i < t.size(); ++i) {
        if (isIdent(t, i, "class") || isIdent(t, i, "struct")) {
            if (!(i > 0 && isIdent(t, i - 1, "enum")) && isIdent(t, i + 1))
                pendingClass = t[i + 1].text;
            continue;
        }
        if (isPunct(t, i, ";")) {
            pendingClass.clear();
            continue;
        }
        if (isPunct(t, i, "{")) {
            stack.push_back(pendingClass);
            pendingClass.clear();
            continue;
        }
        if (isPunct(t, i, "}")) {
            if (!stack.empty())
                stack.pop_back();
            continue;
        }
        if (!isIdent(t, i))
            continue;
        int mi = macroIndex(t[i].text);
        if (mi < 0 || !isPunct(t, i + 1, "("))
            continue;
        int line = t[i].line;
        size_t close = matchForward(t, i, '(', ')');
        if (close != i + 3 || !isIdent(t, i + 2)) {
            findings.push_back({std::string(file), line, "own-annotation",
                                t[i].text +
                                    " needs a single identifier tag"});
            continue;
        }
        RawAnn ann;
        ann.macro = mi;
        ann.tag = t[i + 2].text;
        ann.cls = stack.empty() ? "" : stack.back();
        if (!findAnnotatedFunction(t, i, ann)) {
            findings.push_back({std::string(file), line, "own-annotation",
                                t[i].text +
                                    " is not attached to a function "
                                    "declaration"});
            continue;
        }
        anns.push_back(std::move(ann));
    }
}

Tables
classify(const std::vector<RawAnn> &anns, const Options &opt)
{
    // Holder types: whatever the acquire functions return; RAII holder
    // types additionally declare a RELEASES destructor.
    std::set<std::string> holders;
    std::set<std::pair<std::string, std::string>> raii; // (class, tag)
    for (const RawAnn &a : anns) {
        if (a.macro == 1 && opt.ignoreReleaseTags.count(a.tag) != 0)
            continue; // the inversion knob drops RAII markers too
        if (a.macro == 0 && !a.ret.empty() && a.ret != "void" &&
            a.ret != "auto")
            holders.insert(a.ret);
        if (a.macro == 1 && a.isDtor && !a.cls.empty())
            raii.insert({a.cls, a.tag});
    }
    Tables tb;
    for (const RawAnn &a : anns) {
        if (a.macro == 0) {
            tb.acquires[a.fn] = {a.tag, raii.count({a.ret, a.tag}) != 0};
        } else if (a.macro == 1) {
            if (opt.ignoreReleaseTags.count(a.tag) != 0 || a.isDtor)
                continue;
            RelKind kind = RelKind::DrainAll;
            if (holders.count(a.cls) != 0)
                kind = RelKind::Receiver;
            else if (a.nParams >= 1)
                kind = RelKind::ByArg;
            tb.releases[a.fn] = {a.tag, kind};
        } else {
            tb.transfers[a.fn] = a.tag;
        }
    }
    return tb;
}

// ---------------------------------------------------------------------------
// The per-function CFG walk
// ---------------------------------------------------------------------------

/** Derived interprocedural facts about one function. */
struct OwnSummary
{
    std::string returnsTag;              ///< returns a held handle of tag
    std::map<size_t, std::string> consumes; ///< param index -> released tag
    std::set<std::string> drains;        ///< drains every handle of tag
};

constexpr unsigned kHeld = 1;
constexpr unsigned kReleased = 2;
constexpr unsigned kMoved = 4;

/** One tracked handle: possible-state set plus provenance. */
struct Handle
{
    std::string tag;
    std::string what;       ///< acquire description for the message
    unsigned states = kHeld;
    bool guarded = false;   ///< a condition/contract mentioned it
    bool raii = false;      ///< holder type has a RELEASES destructor
    int line = 0;           ///< acquire line
};

using PathState = std::map<std::string, Handle>;

class Walk
{
  public:
    Walk(const CallGraph &g, const Tables &tables,
         std::vector<OwnSummary> &sums, const FunctionDef &fn,
         std::string_view file, OwnSummary *sum, std::vector<Finding> *out)
        : g_(g), t_(g.tokens(fn.fileIdx)), tables_(tables), sums_(sums),
          fn_(fn), file_(file), sum_(sum), out_(out)
    {
        for (size_t p = 0; p < fn.params.size(); ++p)
            if (!fn.params[p].empty())
                paramIdx_[fn.params[p]] = p;
    }

    /** Walk the body; in summary mode returns whether the summary
     * changed (the bottom-up fixpoint's convergence signal). */
    bool
    run()
    {
        if (fn_.bodyEnd <= fn_.bodyBegin)
            return false;
        PathState st;
        if (!nxcommon::CfgWalk<Walk>(t_, *this)
                 .walk(fn_.bodyBegin + 1, fn_.bodyEnd, st))
            leakCheck(st);
        return sumChanged_;
    }

    // -- the analysis, as nxcommon::CfgWalk's hooks ---------------------

    using State = PathState;

    static PathState
    join(const PathState &a, const PathState &b)
    {
        PathState out = a;
        for (const auto &kv : b) {
            auto it = out.find(kv.first);
            if (it == out.end()) {
                out.insert(kv);
            } else {
                it->second.states |= kv.second.states;
                it->second.guarded = it->second.guarded || kv.second.guarded;
            }
        }
        return out;
    }

    /** `return h` hands the handle to the caller; every other exit is
     * checked for leaks. A throw's operand is just evaluated. */
    void
    exit(size_t kw, size_t e, PathState &st)
    {
        if (isIdent(t_, kw, "throw")) {
            statement(kw + 1, e, st);
            return;
        }
        if (sum_ != nullptr && kw + 1 < e)
            recordReturn(kw + 1, e, st);
        auto it = st.find(rootOf(simplePath(t_, kw + 1, e)));
        if (it != st.end())
            it->second.states = kMoved; // returned to the caller
        else
            statement(kw + 1, e, st);
        leakCheck(st);
    }

    /** Condition range: evaluate side effects, then mark every handle
     * the condition mentions as conditional — the analyzer cannot
     * model the predicate, so exits stop counting as leaks. */
    void
    condition(size_t b, size_t e, PathState &st)
    {
        statement(b, e, st);
        guardMentions(b, e, st);
    }

    void
    statement(size_t b, size_t e, PathState &st)
    {
        if (b >= e)
            return;
        // Contract macros abort on false: their arguments guard the
        // handles they mention, same as an if-condition.
        if (isIdent(t_, b) && isContract(t_[b].text) &&
            isPunct(t_, b + 1, "(")) {
            size_t close = matchForward(t_, b + 1, '(', ')');
            guardMentions(b + 2, std::min(close, e), st);
            return;
        }
        bindAcquire(b, e, st);
        for (size_t i = b; i + 1 < e; ++i) {
            if (isIdent(t_, i) && isPunct(t_, i + 1, "("))
                processCall(i, st);
        }
    }

  private:
    void
    guardMentions(size_t b, size_t e, PathState &st)
    {
        for (size_t i = b; i < e && i < t_.size(); ++i) {
            if (!isIdent(t_, i))
                continue;
            if (i > 0 && (isPunct(t_, i - 1, ".") ||
                          isPunct(t_, i - 1, "->") ||
                          isPunct(t_, i - 1, "::")))
                continue; // member/qualified name, not the handle
            auto it = st.find(t_[i].text);
            if (it != st.end())
                it->second.guarded = true;
        }
    }

    /** Track `var = ...acquire...` — the only binding shape followed.
     * An acquire result that is never bound escapes untracked (the
     * no-false-positive direction). */
    void
    bindAcquire(size_t b, size_t e, PathState &st)
    {
        size_t i = findTopLevel(t_, b, e,
                                [&](size_t k) { return isPunct(t_, k, "="); });
        if (i == e || i == b || !isIdent(t_, i - 1))
            return;
        std::string tag, what;
        bool raii = false;
        if (!findAcquire(i + 1, e, tag, raii, what))
            return;
        Handle h;
        h.tag = tag;
        h.raii = raii;
        h.what = what;
        h.line = t_[i - 1].line;
        st[t_[i - 1].text] = std::move(h);
    }

    /** Is there an acquiring call in [b, e)? Annotated acquire
     * functions and resolved callees whose summary returns a held
     * handle both count. */
    bool
    findAcquire(size_t b, size_t e, std::string &tag, bool &raii,
                std::string &what)
    {
        for (size_t i = b; i + 1 < e; ++i) {
            if (!isIdent(t_, i) || !isPunct(t_, i + 1, "("))
                continue;
            auto acq = tables_.acquires.find(t_[i].text);
            if (acq != tables_.acquires.end()) {
                tag = acq->second.tag;
                raii = acq->second.raii;
                what = t_[i].text + "()";
                return true;
            }
            const CallSite *cs = g_.callAt(fn_.fileIdx, i);
            if (cs != nullptr && cs->target >= 0 &&
                !sums_[static_cast<size_t>(cs->target)].returnsTag.empty()) {
                tag = sums_[static_cast<size_t>(cs->target)].returnsTag;
                raii = false;
                what = t_[i].text + "() (returns a held handle)";
                return true;
            }
        }
        return false;
    }

    void
    processCall(size_t i, PathState &st)
    {
        const std::string &name = t_[i].text;
        if (tables_.acquires.count(name) != 0)
            return; // acquisition is handled at the binding
        size_t close = matchForward(t_, i + 1, '(', ')');
        std::vector<std::pair<size_t, size_t>> args;
        if (i + 2 < close)
            splitArgs(t_, i + 2, close, args);

        if (name == "move") { // std::move — explicit hand-off
            if (!args.empty()) {
                auto it = st.find(
                    rootOf(simplePath(t_, args[0].first, args[0].second)));
                if (it != st.end())
                    it->second.states = kMoved;
            }
            return;
        }

        auto rel = tables_.releases.find(name);
        if (rel != tables_.releases.end()) {
            applyRelease(i, rel->second.first, rel->second.second, args, st);
            return;
        }

        auto tr = tables_.transfers.find(name);
        if (tr != tables_.transfers.end()) {
            for (const auto &a : args) {
                std::string p = simplePath(t_, a.first, a.second);
                auto it = st.find(rootOf(p));
                if (it != st.end() && it->second.tag == tr->second)
                    it->second.states = kMoved;
            }
            return;
        }

        const CallSite *cs = g_.callAt(fn_.fileIdx, i);
        if (cs != nullptr && cs->target >= 0) {
            // Resolved callee: apply its derived summary; its args are
            // visible, so nothing is conservatively transferred.
            const OwnSummary &s = sums_[static_cast<size_t>(cs->target)];
            for (const auto &[p, tag] : s.consumes) {
                if (p >= cs->args.size())
                    continue;
                std::string root = rootOf(
                    simplePath(t_, cs->args[p].first, cs->args[p].second));
                auto it = st.find(root);
                if (it != st.end() && it->second.tag == tag)
                    release(it->first, it->second, t_[i].line);
                else if (it == st.end())
                    recordParamConsume(root, tag);
            }
            for (const std::string &tag : s.drains)
                drainTag(tag, st);
            return;
        }

        // Unknown callee: a handle (or a member path of one, like
        // `f(r.ticket)`) passed as a whole argument is a *possible*
        // hand-off — the callee may have taken ownership, or may have
        // just observed it. Mark the handle possibly-moved and
        // conditional so neither a later exit nor a later release is
        // a finding. Only explicit transfers (std::move, `return h`,
        // NXSIM_TRANSFERS callees) move strongly.
        for (const auto &a : args) {
            std::string p = simplePath(t_, a.first, a.second);
            if (p.empty())
                continue;
            auto it = st.find(rootOf(p));
            if (it == st.end())
                continue;
            it->second.states |= kMoved;
            it->second.guarded = true;
        }
    }

    void
    applyRelease(size_t i, const std::string &tag, RelKind kind,
                 const std::vector<std::pair<size_t, size_t>> &args,
                 PathState &st)
    {
        int line = t_[i].line;
        if (kind == RelKind::DrainAll) {
            drainTag(tag, st);
            if (sum_ != nullptr && sum_->drains.insert(tag).second)
                sumChanged_ = true;
            return;
        }
        if (kind == RelKind::Receiver) {
            std::string root = receiverRoot(i);
            if (root.empty())
                return; // receiver-less (the holder's own methods)
            auto it = st.find(root);
            if (it != st.end() && it->second.tag == tag)
                release(it->first, it->second, line);
            else if (it == st.end())
                recordParamConsume(root, tag);
            return;
        }
        for (const auto &a : args) {
            std::string root = rootOf(simplePath(t_, a.first, a.second));
            if (root.empty())
                continue;
            auto it = st.find(root);
            if (it != st.end() && it->second.tag == tag)
                release(it->first, it->second, line);
            else if (it == st.end())
                recordParamConsume(root, tag);
        }
    }

    /** Release one handle, with the must-state checks. */
    void
    release(const std::string &name, Handle &h, int line)
    {
        if (h.states == kReleased)
            report("own-double-release", line,
                   "'" + name + "' (" + h.tag +
                       ") is released again — every path already "
                       "released it (acquired at line " +
                       std::to_string(h.line) + ")");
        else if (h.states == kMoved)
            report("own-release-unacquired", line,
                   "'" + name + "' (" + h.tag +
                       ") is released here but its ownership was "
                       "already transferred away on every path");
        h.states = kReleased;
    }

    void
    drainTag(const std::string &tag, PathState &st)
    {
        for (auto &[name, h] : st)
            if (h.tag == tag)
                h.states = kReleased;
    }

    /** Outermost identifier of a `a.b->c(...)` receiver chain ending
     * right before the callee name at @p i; "" for free calls. */
    std::string
    receiverRoot(size_t i) const
    {
        std::string root;
        size_t k = i;
        while (k >= 2 &&
               (isPunct(t_, k - 1, ".") || isPunct(t_, k - 1, "->")) &&
               isIdent(t_, k - 2)) {
            root = t_[k - 2].text;
            k -= 2;
        }
        return root;
    }

    // -- Summary recording -------------------------------------------------

    void
    recordReturn(size_t b, size_t e, PathState &st)
    {
        std::string tag;
        auto it = st.find(rootOf(simplePath(t_, b, e)));
        if (it != st.end() && (it->second.states & kHeld) != 0)
            tag = it->second.tag;
        if (tag.empty()) {
            std::string what;
            bool raii = false;
            std::string found;
            if (findAcquire(b, e, found, raii, what))
                tag = found;
        }
        if (!tag.empty() && sum_->returnsTag.empty()) {
            sum_->returnsTag = tag;
            sumChanged_ = true;
        }
    }

    /** In summary mode, a release rooted at one of our parameters
     * means this function consumes the caller's handle. */
    void
    recordParamConsume(const std::string &root, const std::string &tag)
    {
        if (sum_ == nullptr)
            return;
        auto p = paramIdx_.find(root);
        if (p == paramIdx_.end())
            return;
        if (sum_->consumes.emplace(p->second, tag).second)
            sumChanged_ = true;
    }

    // -- Reporting ----------------------------------------------------------

    void
    leakCheck(const PathState &st)
    {
        if (sum_ != nullptr)
            return;
        for (const auto &[name, h] : st) {
            if ((h.states & kHeld) != 0 && !h.guarded && !h.raii)
                report("own-leak", h.line,
                       "'" + name + "' acquired from " + h.what + " (" +
                           h.tag +
                           ") can exit the function still held — "
                           "release, transfer, or return it on every "
                           "path");
        }
    }

    void
    report(const std::string &rule, int line, const std::string &msg)
    {
        if (out_ == nullptr)
            return;
        if (!seen_.insert(std::make_tuple(line, rule, msg)).second)
            return;
        out_->push_back({std::string(file_), line, rule, msg});
    }

    /** Root variable of a simple path: "r" for "r.ticket" or "r::x". */
    static std::string
    rootOf(const std::string &path)
    {
        return path.substr(0, std::min(path.find('.'), path.find("::")));
    }

    const CallGraph &g_;
    const std::vector<Token> &t_;
    const Tables &tables_;
    std::vector<OwnSummary> &sums_;
    const FunctionDef &fn_;
    std::string_view file_;
    OwnSummary *sum_;             ///< non-null = summary mode
    std::vector<Finding> *out_;   ///< null in summary mode
    std::map<std::string, size_t> paramIdx_;
    std::set<std::tuple<int, std::string, std::string>> seen_;
    bool sumChanged_ = false;
};

} // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> &
rules()
{
    return kRules;
}

std::vector<Finding>
analyzeFiles(const std::vector<SourceFile> &files, const Options &opt)
{
    size_t n = files.size();
    std::vector<std::vector<Allow>> allows(n);
    std::vector<std::vector<Finding>> pre(n);
    std::vector<std::vector<Token>> merged(n);
    std::vector<std::string> paths(n);
    for (size_t i = 0; i < n; ++i) {
        paths[i] = files[i].path;
        std::vector<Token> raw = nxlex::Lexer(files[i].content).run();
        allows[i] = nxcommon::collectAllows(raw, "nxown", kRules, pre[i],
                                            files[i].path);
        merged[i] = nxcommon::mergeOperators(raw);
    }
    CallGraph graph = CallGraph::build(std::move(paths), std::move(merged));

    std::vector<std::vector<Finding>> rawByFile(n);
    std::vector<RawAnn> anns;
    for (size_t i = 0; i < n; ++i)
        harvestFile(graph.tokens(i), files[i].path, anns, rawByFile[i]);
    Tables tables = classify(anns, opt);

    std::vector<OwnSummary> sums(graph.functions().size());
    graph.forEachBottomUp([&](int id) {
        const FunctionDef &fn = graph.functions()[static_cast<size_t>(id)];
        Walk w(graph, tables, sums, fn, files[fn.fileIdx].path,
               &sums[static_cast<size_t>(id)], nullptr);
        return w.run();
    });

    for (size_t id = 0; id < graph.functions().size(); ++id) {
        const FunctionDef &fn = graph.functions()[id];
        Walk w(graph, tables, sums, fn, files[fn.fileIdx].path, nullptr,
               &rawByFile[fn.fileIdx]);
        w.run();
    }

    std::vector<Finding> out;
    for (size_t i = 0; i < n; ++i) {
        std::vector<Finding> fileOut = std::move(pre[i]);
        nxcommon::applyAllows(std::move(rawByFile[i]), allows[i],
                              files[i].path, fileOut);
        nxcommon::sortFindings(fileOut);
        for (Finding &f : fileOut)
            out.push_back(std::move(f));
    }
    return out;
}

std::vector<Finding>
analyzeTree(const std::string &root, const Options &opt)
{
    nxcommon::TreeLoad load = nxcommon::loadTree(
        root, {"src", "tools", "bench", "examples", "fuzz"});
    std::vector<Finding> out = std::move(load.ioErrors);
    for (Finding &f : analyzeFiles(load.files, opt))
        out.push_back(std::move(f));
    return out;
}

std::string
format(const Finding &f)
{
    return nxcommon::formatText(f);
}

} // namespace nxown
