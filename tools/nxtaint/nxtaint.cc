/**
 * @file
 * nxtaint implementation: a path-sensitive forward taint walk over
 * the shared tokenizer's output.
 *
 * The shape of the analysis, front to back:
 *
 *   1. Lex (tools/common/lexer.h), collect `nxtaint: allow(...)`
 *      suppressions from the comment stream (tools/common/allow.h),
 *      then strip comments and merge multi-character operators (`<<`,
 *      `->`, `==`, ...) via tools/common/tokens.h.
 *   2. Find function bodies with the shared finder
 *      (nxcommon::findFunctions) and walk each one with the shared CFG
 *      walker (common/cfg_walk.h), the one nxstate and nxown use. The
 *      per-path state is the taint environment, joined as may-taint,
 *      plus the sanitized set, joined as must-clean: a check on only
 *      one branch does not sanitize after the join, and loop bodies
 *      run twice, so a value read at the end of one iteration reaches
 *      the sinks at the top of the next.
 *   3. Sources taint variables, `if`/`switch`/contract comparisons
 *      sanitize them, sinks fire findings on tainted-and-unsanitized
 *      values. The head's keyword picks the rule: `for`/`while`/`do`
 *      bounds are loop-bound sinks before they sanitize, and a `for`
 *      head splits into init, condition and update. An inline lambda's
 *      body is walked as a nested body from the state before it; the
 *      enclosing statement's own transfer skips it.
 *
 * The body walk stays intra-procedural; cross-function flow rides
 * on the shared call graph (tools/common/callgraph.h). analyzeFiles()
 * computes one TaintSummary per function in bottom-up SCC order — the
 * same Analyzer runs in summary mode with every parameter seeded
 * tainted, and whatever reaches a sink or a `return` is recorded as a
 * per-param flow instead of a finding. The findings pass then consults
 * those summaries at every resolved call site:
 *
 *   - an argument flowing into a parameter whose summary reaches a
 *     sink unchecked is a finding at the call site, with the call
 *     chain printed (`readHdr -> copyBody -> memcpy`);
 *   - a call whose summary returns taint (its own sources reach
 *     `return`, or a tainted argument flows through to the result)
 *     taints the enclosing expression;
 *   - a resolved call whose summary does neither is *clean*, which
 *     removes the old "unknown call is conservatively tainted"
 *     behavior for in-tree callees — unresolved externals keep it.
 *
 * See nxtaint.h for the rule table.
 */

#include "nxtaint/nxtaint.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "common/allow.h"
#include "common/callgraph.h"
#include "common/cfg_walk.h"
#include "common/fileset.h"
#include "common/lexer.h"
#include "common/tokens.h"

namespace nxtaint {

namespace {

using nxcommon::Allow;
using nxlex::Lexer;
using nxlex::Tok;
using nxlex::Token;

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"taint-copy-size",
     "memcpy/memmove/memset/copyBytes size argument derives from "
     "untrusted input without a bounds check"},
    {"taint-alloc-size",
     "resize/reserve/assign/insert count derives from untrusted input "
     "without a bounds check"},
    {"taint-index",
     "array/container subscript derives from untrusted input without a "
     "bounds check"},
    {"taint-shift",
     "shift amount derives from untrusted input without a bounds check"},
    {"taint-loop-bound",
     "loop bound derives from untrusted input without a prior bounds "
     "check"},
    {"bare-allow",
     "allow() without a justification, or naming an unknown rule"},
    {"stale-allow",
     "allow() that no longer suppresses any finding"},
    {"io-error", "file could not be read"},
};

using nxcommon::findTopLevel;
using nxcommon::isIdent;
using nxcommon::isPunct;
using nxcommon::matchBackward;
using nxcommon::matchForward;
using nxcommon::splitArgs;

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

/** Why a value is tainted: the original source line and description.
 * In summary mode @p param records which parameter the taint came from
 * (-1 = one of the function's own sources). */
struct TaintInfo
{
    int line = 0;
    std::string what;
    int param = -1;
};

/** One way a parameter reaches a sink inside (or below) a function:
 * the rule that fires and the call chain down to the sink. */
struct SinkFlow
{
    std::string rule;
    std::string chain;    ///< "readHdr -> copyBody -> memcpy"
};

/** Per-function taint summary, computed bottom-up over the call
 * graph's SCCs. Monotone: flows are only ever added, so the SCC
 * fixpoint converges. */
struct TaintSummary
{
    std::vector<std::vector<SinkFlow>> paramSinks;   ///< per parameter
    std::vector<bool> paramToReturn;   ///< arg taint flows to result
    bool returnsTaint = false;         ///< own sources reach return
};

/** Chains longer than this stop growing (recursive SCCs would
 * otherwise append forever; anything deeper is noise anyway). */
constexpr int kMaxChainHops = 6;

/** Member calls whose result is attacker-controlled. */
const std::set<std::string, std::less<>> kSourceMethods = {
    "readBits", "peekBits", "readBytes", "readU16le",
    "readU32le", "peek",     "popByte",  "decode"};

/** Member calls on a tainted object whose result is NOT tainted —
 * these report the container's own geometry, which is exactly what
 * tainted values get sanitized against. */
const std::set<std::string, std::less<>> kCleanMethods = {
    "size", "empty",  "capacity", "data",   "begin",
    "end",  "cbegin", "cend",     "length", "max_size"};

/** Wrappers whose result is bounded regardless of the argument. */
const std::set<std::string, std::less<>> kSanitizerFns = {
    "checked_cast", "truncate_cast", "min", "clamp"};

const std::set<std::string, std::less<>> kContractMacros = {
    "NXSIM_EXPECT", "NXSIM_ENSURE", "NXSIM_ASSERT"};

const std::set<std::string, std::less<>> kCompoundAssign = {
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};

const std::set<std::string, std::less<>> kComparisons = {"<",  ">", "<=",
                                                         ">=", "==", "!="};

/** An identifier spelled like a compile-time constant (kFoo). */
bool
isConstIdent(const std::string &s)
{
    return s.size() >= 2 && s[0] == 'k' &&
           std::isupper(static_cast<unsigned char>(s[1]));
}

/** Everything tracked along one path: the variables that may hold
 * untrusted values, and those of them a check has cleared. */
struct TaintState
{
    std::map<std::string, TaintInfo, std::less<>> env;
    std::set<std::string, std::less<>> clean;
};

class Analyzer
{
  public:
    Analyzer(std::string_view file, const std::vector<Token> &toks,
             std::vector<Finding> &out)
        : file_(file), t_(toks), out_(out)
    {
    }

    /** Enable cross-function mode: call sites of file @p fileIdx are
     * resolved through @p graph and checked against @p sums. */
    void
    setGraph(const nxcommon::CallGraph *graph, size_t fileIdx,
             const std::vector<TaintSummary> *sums)
    {
        graph_ = graph;
        fileIdx_ = fileIdx;
        sums_ = sums;
    }

    /**
     * Summary mode: walk @p fn's body with every parameter seeded
     * tainted, recording param-to-sink flows and return taint into
     * @p sum instead of findings. Returns true when @p sum grew —
     * the change signal for the SCC fixpoint.
     */
    bool
    computeSummary(const nxcommon::FunctionDef &fn, TaintSummary &sum)
    {
        summaryMode_ = true;
        sum_ = &sum;
        sumChanged_ = false;
        fnName_ = fn.name;
        if (sum.paramSinks.size() != fn.params.size()) {
            sum.paramSinks.resize(fn.params.size());
            sum.paramToReturn.resize(fn.params.size(), false);
        }
        walkFunction(fn);
        summaryMode_ = false;
        sum_ = nullptr;
        return sumChanged_;
    }

    /** Findings mode: analyze every function body in the file. */
    void
    run()
    {
        for (const nxcommon::FunctionDef &fn :
             nxcommon::findFunctions(t_, fileIdx_))
            walkFunction(fn);
    }

    // -- the analysis, as nxcommon::CfgWalk's hooks ---------------------

    using State = TaintState;

    /** May-taint, must-clean: a variable is tainted after the join when
     * either path left it tainted. */
    static TaintState
    join(const TaintState &a, const TaintState &b)
    {
        auto cleanOn = [](const TaintState &s, const std::string &var) {
            return s.env.count(var) == 0 || s.clean.count(var) != 0;
        };
        TaintState j;
        j.env = b.env;
        j.env.insert(a.env.begin(), a.env.end());
        for (const auto &kv : j.env)
            if (cleanOn(a, kv.first) && cleanOn(b, kv.first))
                j.clean.insert(kv.first);
        return j;
    }

    /** A control head; the keyword before its `(` picks the rule
     * (`if constexpr` reads as an if, a do-while's head as a while; a
     * `;` before it is a for head on its back edge). */
    void
    condition(size_t b, size_t e, TaintState &st)
    {
        const std::string &kw = t_[b - 2].text;
        if (kw == "for" || isPunct(t_, b - 1, ";"))
            forHead(b, e, st);
        else
            handleCond(b, e, /*loop=*/kw == "while",
                       /*isSwitch=*/kw == "switch", st);
    }

    /** return/co_return/throw at @p kw: the operand is a statement, and
     * in summary mode a tainted return value is recorded. */
    void
    exit(size_t kw, size_t e, TaintState &st)
    {
        statement(kw + 1, e, st);
        TaintInfo ti;
        if (summaryMode_ && t_[kw].text != "throw" &&
            findTaint(kw + 1, e, st, ti))
            recordReturn(ti);
    }

    /** One statement. An inline lambda's body is walked as a nested
     * body from the state before it (its effects stay inside), and the
     * statement's own transfer skips it. */
    void
    statement(size_t b, size_t e, TaintState &st)
    {
        size_t from = b;
        for (size_t i = b; i < e; ++i) {
            size_t body = lambdaBody(i, e);
            if (body == e)
                continue;
            size_t end = std::min(matchForward(t_, body, '{', '}'), e);
            transfer(from, body, st);
            TaintState inner = st;
            nxcommon::CfgWalk<Analyzer>(t_, *this).walk(body + 1, end, inner);
            from = end + 1;
            i = end;
        }
        transfer(from, e, st);
    }

  private:
    /** Walk @p fn's body from its entry state: NXSIM_UNTRUSTED
     * parameters tainted, and in summary mode every parameter. */
    void
    walkFunction(const nxcommon::FunctionDef &fn)
    {
        TaintState st;
        std::vector<std::pair<size_t, size_t>> params;
        splitArgs(t_, fn.paramOpen + 1, fn.paramClose, params);
        for (const auto &[b, e] : params)
            markUntrustedParam(b, e, st);
        for (size_t p = 0; summaryMode_ && p < fn.params.size(); ++p)
            if (!fn.params[p].empty())
                st.env[fn.params[p]] = {fn.line,
                                        "parameter '" + fn.params[p] + "'",
                                        static_cast<int>(p)};
        if (st.env.empty() && !readsSource(fn.bodyBegin, fn.bodyEnd))
            return;    // nothing can become tainted: the walk finds nothing
        nxcommon::CfgWalk<Analyzer>(t_, *this).walk(fn.bodyBegin + 1,
                                                    fn.bodyEnd, st);
    }

    /** Does [b, e) read a source, or call a function whose summary
     * says it returns taint? Those are the only ways a clean state
     * gains taint. */
    bool
    readsSource(size_t b, size_t e) const
    {
        for (size_t i = b; i < e; ++i) {
            if (!isIdent(t_, i) || !isPunct(t_, i + 1, "("))
                continue;
            if (i >= 2 && isIdent(t_, i - 2) &&
                (isPunct(t_, i - 1, ".") || isPunct(t_, i - 1, "->")) &&
                kSourceMethods.count(t_[i].text) != 0)
                return true;
            const nxcommon::CallSite *cs =
                sums_ != nullptr ? graph_->callAt(fileIdx_, i) : nullptr;
            if (cs != nullptr && cs->target >= 0 &&
                (*sums_)[static_cast<size_t>(cs->target)].returnsTaint)
                return true;
        }
        return false;
    }

    void
    markUntrustedParam(size_t b, size_t e, TaintState &st) const
    {
        bool untrusted = false;
        size_t lastIdent = t_.size();
        for (size_t i = b; i < e; ++i) {
            if (isPunct(t_, i, "="))
                break;    // default argument
            if (!isIdent(t_, i))
                continue;
            if (t_[i].text == "NXSIM_UNTRUSTED") {
                untrusted = true;
                continue;
            }
            lastIdent = i;
        }
        if (untrusted && lastIdent != t_.size())
            st.env[t_[lastIdent].text] = {t_[lastIdent].line,
                                          "NXSIM_UNTRUSTED parameter '" +
                                              t_[lastIdent].text + "'"};
    }

    /** The `{` of the inline lambda whose introducer `[` is at @p i, or
     * @p e when none starts there. */
    size_t
    lambdaBody(size_t i, size_t e) const
    {
        if (!isPunct(t_, i, "[") || isPunct(t_, i + 1, "[") ||
            isIdent(t_, i - 1) || isPunct(t_, i - 1, "]") ||
            isPunct(t_, i - 1, ")"))
            return e;    // a subscript or an attribute
        size_t j = matchForward(t_, i, '[', ']') + 1;
        if (isPunct(t_, j, "("))
            j = matchForward(t_, j, '(', ')') + 1;
        while (j < e && (isIdent(t_, j) || isPunct(t_, j, "->") ||
                         isPunct(t_, j, "::") || isPunct(t_, j, "<") ||
                         isPunct(t_, j, ">") || isPunct(t_, j, "*") ||
                         isPunct(t_, j, "&")))
            ++j;    // mutable, noexcept, a trailing return type
        return j < e && isPunct(t_, j, "{") ? j : e;
    }

    /** A `for` head: at entry `init; test; update` runs the init, then
     * the test; on a back edge `test; update` runs the update, then the
     * test. A range-for head has no test and runs as one statement. */
    void
    forHead(size_t b, size_t e, TaintState &st)
    {
        size_t s1 = nxcommon::findSemi(t_, b, e);
        if (s1 == e) {
            statement(b, e, st);
            return;
        }
        if (isPunct(t_, b - 1, ";")) {
            statement(s1 + 1, e, st);
            handleCond(b, s1, /*loop=*/true, /*isSwitch=*/false, st);
            return;
        }
        statement(b, s1, st);
        handleCond(s1 + 1, nxcommon::findSemi(t_, s1 + 1, e), /*loop=*/true,
                   /*isSwitch=*/false, st);
    }

    /** Loop conditions are loop-bound sinks before they sanitize;
     * `if`/`switch` conditions sanitize without flagging. */
    void
    handleCond(size_t b, size_t e, bool loop, bool isSwitch,
               TaintState &st)
    {
        checkSinks(b, e, st);
        if (isSwitch) {
            sanitizeIdents(b, e, st);
            return;
        }
        for (size_t i = b; i < e; ++i) {
            if (t_[i].kind != Tok::Punct ||
                kComparisons.count(t_[i].text) == 0)
                continue;
            size_t lb = operandLeft(i, b);
            size_t rb = operandRight(i, e);
            if (loop) {
                TaintInfo ti;
                if (findTaint(lb, i, st, ti) || findTaint(i + 1, rb, st, ti))
                    report("taint-loop-bound", i, t_[i].line,
                           "loop bound compares against " + ti.what +
                               " (tainted at line " +
                               std::to_string(ti.line) +
                               ") before any bounds check",
                           ti, "loop-bound");
            }
            sanitizeIdents(lb, i, st);
            sanitizeIdents(i + 1, rb, st);
        }
    }

    /** Left edge of the operand of the comparison at @p op. */
    size_t
    operandLeft(size_t op, size_t b) const
    {
        size_t i = op;
        while (i > b) {
            size_t p = i - 1;
            if (isPunct(t_, p, ")") || isPunct(t_, p, "]")) {
                char open = t_[p].text[0] == ')' ? '(' : '[';
                size_t o = matchBackward(t_, p, open, t_[p].text[0]);
                if (o == t_.size() || o < b)
                    return i;
                i = o;
                continue;
            }
            if (t_[p].kind == Tok::Punct) {
                const std::string &s = t_[p].text;
                if (s == "(" || s == "," || s == ";" || s == "&&" ||
                    s == "||" || s == "!" || s == "?" || s == ":" ||
                    s == "=" || kComparisons.count(s) != 0)
                    return i;
            }
            i = p;
        }
        return i;
    }

    /** One past the right edge of the operand of the comparison. */
    size_t
    operandRight(size_t op, size_t e) const
    {
        size_t i = op + 1;
        while (i < e) {
            if (isPunct(t_, i, "(") || isPunct(t_, i, "[")) {
                char close = t_[i].text[0] == '(' ? ')' : ']';
                size_t c = matchForward(t_, i, t_[i].text[0], close);
                if (c >= e)
                    return e;
                i = c + 1;
                continue;
            }
            if (t_[i].kind == Tok::Punct) {
                const std::string &s = t_[i].text;
                if (s == ")" || s == "," || s == ";" || s == "&&" ||
                    s == "||" || s == "?" || s == ":" ||
                    kComparisons.count(s) != 0)
                    return i;
            }
            ++i;
        }
        return e;
    }

    /**
     * Mark compared identifiers clean. An identifier inside a
     * subscript group is excluded (the subscript is its own sink, not
     * a check of its index), as is the object/method of a member call
     * (`member.size()` sanitizes nothing about `member` — its contents
     * stay attacker-controlled).
     */
    void
    sanitizeIdents(size_t b, size_t e, TaintState &st) const
    {
        int sub = 0;
        for (size_t i = b; i < e; ++i) {
            if (isPunct(t_, i, "["))
                ++sub;
            else if (isPunct(t_, i, "]") && sub > 0)
                --sub;
            if (sub > 0 || !isIdent(t_, i))
                continue;
            if (isPunct(t_, i + 1, ".") || isPunct(t_, i + 1, "->") ||
                isPunct(t_, i + 1, "(") || isPunct(t_, i + 1, "::"))
                continue;
            st.clean.insert(t_[i].text);
        }
    }

    // -- statements ---------------------------------------------------------

    /** The transfer of the statement range [b, e), which holds no
     * lambda body. */
    void
    transfer(size_t b, size_t e, TaintState &st)
    {
        if (b >= e)
            return;
        if (t_[b].kind == Tok::Ident &&
            kContractMacros.count(t_[b].text) != 0 &&
            isPunct(t_, b + 1, "(")) {
            size_t close = matchForward(t_, b + 1, '(', ')');
            // A contract *is* the bounds check: sanitize, don't sink.
            handleCond(b + 2, std::min(close, e), /*loop=*/false,
                       /*isSwitch=*/false, st);
            return;
        }
        checkSinks(b, e, st);
        applyAssignment(b, e, st);
    }

    /** Summary mode: a tainted value reached `return`. */
    void
    recordReturn(const TaintInfo &ti)
    {
        if (ti.param >= 0) {
            size_t p = static_cast<size_t>(ti.param);
            if (p < sum_->paramToReturn.size() &&
                !sum_->paramToReturn[p]) {
                sum_->paramToReturn[p] = true;
                sumChanged_ = true;
            }
        } else if (!sum_->returnsTaint) {
            sum_->returnsTaint = true;
            sumChanged_ = true;
        }
    }

    void
    applyAssignment(size_t b, size_t e, TaintState &st) const
    {
        size_t i = findTopLevel(t_, b, e, [&](size_t k) {
            const Token &op = t_[k];
            return op.kind == Tok::Punct &&
                   (op.text == "=" || kCompoundAssign.count(op.text) != 0);
        });
        if (i == e || i == b || !isIdent(t_, i - 1))
            return;    // none, or a subscript/deref target: not tracked
        const std::string &var = t_[i - 1].text;
        TaintInfo ti;
        if (findTaint(i + 1, e, st, ti)) {
            st.env[var] = ti;
            st.clean.erase(var);
        } else if (t_[i].text == "=") {
            st.env.erase(var);
        }
    }

    // -- taint evaluation ---------------------------------------------------

    /**
     * Is any value in [b, e) tainted and unsanitized? Regions inside
     * checked_cast/truncate_cast/std::min/std::clamp are skipped; a
     * top-level mask (`& literal`, `% literal-or-kConst`) bounds the
     * whole expression.
     */
    bool
    findTaint(size_t b, size_t e, const TaintState &st,
              TaintInfo &out) const
    {
        if (maskedAt(b, e))
            return false;
        size_t i = b;
        while (i < e) {
            if (!isIdent(t_, i)) {
                ++i;
                continue;
            }
            const std::string &name = t_[i].text;
            // Sanitizer wrapper: skip `fn<...>(...)` entirely.
            if (kSanitizerFns.count(name) != 0) {
                size_t j = i + 1;
                if (isPunct(t_, j, "<")) {
                    int ad = 0;
                    for (; j < e; ++j) {
                        if (isPunct(t_, j, "<"))
                            ++ad;
                        else if (isPunct(t_, j, ">") && --ad == 0) {
                            ++j;
                            break;
                        } else if (isPunct(t_, j, ">>"))
                            ad -= 2;
                    }
                }
                if (isPunct(t_, j, "(")) {
                    i = matchForward(t_, j, '(', ')') + 1;
                    continue;
                }
            }
            // Source method call: obj.readBits(...) etc.
            if ((isPunct(t_, i + 1, ".") || isPunct(t_, i + 1, "->")) &&
                isIdent(t_, i + 2) && isPunct(t_, i + 3, "(")) {
                const std::string &m = t_[i + 2].text;
                if (kSourceMethods.count(m) != 0) {
                    out = {t_[i + 2].line, m + "() result"};
                    return true;
                }
            }
            // Resolved call with a summary: the result is tainted when
            // the callee's own sources reach its return, or when a
            // tainted argument flows through to the result. Otherwise
            // the call is clean and the whole expression is skipped —
            // only *unresolved* callees stay conservatively tainted.
            if (sums_ != nullptr && isPunct(t_, i + 1, "(")) {
                const nxcommon::CallSite *cs =
                    graph_->callAt(fileIdx_, i);
                if (cs != nullptr && cs->target >= 0) {
                    const TaintSummary &S =
                        (*sums_)[static_cast<size_t>(cs->target)];
                    if (S.returnsTaint) {
                        out = {t_[i].line,
                               name + "() result (returns untrusted "
                                      "data)"};
                        return true;
                    }
                    for (size_t a = 0;
                         a < cs->args.size() &&
                         a < S.paramToReturn.size();
                         ++a) {
                        if (!S.paramToReturn[a])
                            continue;
                        if (findTaint(cs->args[a].first,
                                      std::min(cs->args[a].second, e), st,
                                      out))
                            return true;
                    }
                    i = matchForward(t_, i + 1, '(', ')') + 1;
                    continue;
                }
            }
            auto it = st.env.find(name);
            if (it != st.env.end() && st.clean.count(name) == 0) {
                // Walk the member chain: geometry queries on a tainted
                // container (x.size(), a.b.begin(), ...) are clean —
                // they report capacity, the very thing tainted values
                // get sanitized against. Any other use is tainted.
                size_t j = i;
                bool cleanCall = false;
                while ((isPunct(t_, j + 1, ".") ||
                        isPunct(t_, j + 1, "->")) &&
                       isIdent(t_, j + 2)) {
                    if (isPunct(t_, j + 3, "(")) {
                        cleanCall =
                            kCleanMethods.count(t_[j + 2].text) != 0;
                        if (cleanCall)
                            i = matchForward(t_, j + 3, '(', ')') + 1;
                        break;
                    }
                    j += 2;
                }
                if (cleanCall)
                    continue;
                out = it->second;
                if (out.what.find('\'') == std::string::npos)
                    out = {it->second.line, "'" + name + "'"};
                return true;
            }
            ++i;
        }
        return false;
    }

    /** Does [b, e) contain a top-level constant mask or modulo? */
    bool
    maskedAt(size_t b, size_t e) const
    {
        return findTopLevel(t_, b, e, [&](size_t i) {
                   return (isPunct(t_, i, "&") || isPunct(t_, i, "%")) &&
                          i + 1 < e && constOperand(i + 1, e);
               }) != e;
    }

    /** Is the operand at @p j a literal, a constant, or a parenthesized
     * group of only those? */
    bool
    constOperand(size_t j, size_t e) const
    {
        if (t_[j].kind == Tok::Number)
            return true;
        if (isIdent(t_, j) && isConstIdent(t_[j].text) &&
            !isPunct(t_, j + 1, "("))
            return true;
        if (!isPunct(t_, j, "("))
            return false;
        size_t c = matchForward(t_, j, '(', ')');
        if (c <= j + 1 || c > e)
            return false;
        for (size_t k = j + 1; k < c; ++k) {
            if (t_[k].kind != Tok::Number && t_[k].kind != Tok::Punct &&
                !(isIdent(t_, k) && isConstIdent(t_[k].text)))
                return false;
        }
        return true;
    }

    // -- sinks --------------------------------------------------------------

    void
    checkSinks(size_t b, size_t e, const TaintState &st)
    {
        checkCallSinks(b, e, st);
        checkIndexSinks(b, e, st);
        checkShiftSinks(b, e, st);
    }

    void
    checkCallSinks(size_t b, size_t e, const TaintState &st)
    {
        for (size_t i = b; i < e; ++i) {
            if (!isIdent(t_, i) || !isPunct(t_, i + 1, "("))
                continue;
            const std::string &name = t_[i].text;
            size_t close = matchForward(t_, i + 1, '(', ')');
            if (close > e)
                continue;
            std::vector<std::pair<size_t, size_t>> args;
            splitArgs(t_, i + 2, close, args);
            bool member = i > b && (isPunct(t_, i - 1, ".") ||
                                    isPunct(t_, i - 1, "->"));
            size_t argIdx = t_.size();
            const char *rule = nullptr;
            if (name == "memcpy" || name == "memmove" ||
                name == "memset" || name == "copyBytes") {
                if (!args.empty()) {
                    argIdx = args.size() - 1;
                    rule = "taint-copy-size";
                }
            } else if (member &&
                       (name == "resize" || name == "reserve" ||
                        (name == "assign" && args.size() == 2))) {
                if (!args.empty()) {
                    argIdx = 0;
                    rule = "taint-alloc-size";
                }
            } else if (member && name == "insert" && args.size() == 3) {
                argIdx = 1;
                rule = "taint-alloc-size";
            }
            if (rule != nullptr && argIdx < args.size()) {
                TaintInfo ti;
                if (findTaint(args[argIdx].first, args[argIdx].second, st,
                              ti))
                    report(rule, i, t_[i].line,
                           name + "() count argument derives from " +
                               ti.what + " (tainted at line " +
                               std::to_string(ti.line) +
                               ") without a bounds check",
                           ti, name);
                continue;
            }
            checkSummarySinks(i, name, args, st);
        }
    }

    /**
     * Cross-function sink: the call resolves to a function whose
     * summary says parameter N reaches a sink unchecked — a tainted
     * argument in position N is a finding at this call site, with the
     * call chain printed.
     */
    void
    checkSummarySinks(size_t i, const std::string &name,
                      const std::vector<std::pair<size_t, size_t>> &args,
                      const TaintState &st)
    {
        if (sums_ == nullptr)
            return;
        const nxcommon::CallSite *cs = graph_->callAt(fileIdx_, i);
        if (cs == nullptr || cs->target < 0)
            return;
        const TaintSummary &S = (*sums_)[static_cast<size_t>(cs->target)];
        for (size_t a = 0; a < args.size() && a < S.paramSinks.size();
             ++a) {
            if (S.paramSinks[a].empty())
                continue;
            TaintInfo ti;
            if (!findTaint(args[a].first, args[a].second, st, ti))
                continue;
            const SinkFlow &fl = S.paramSinks[a][0];
            report(fl.rule, args[a].first, t_[i].line,
                   "argument " + std::to_string(a + 1) + " of " + name +
                       "() derives from " + ti.what +
                       " (tainted at line " + std::to_string(ti.line) +
                       ") and reaches an unchecked sink (call chain: " +
                       fl.chain + ")",
                   ti, fl.chain);
        }
    }

    void
    checkIndexSinks(size_t b, size_t e, const TaintState &st)
    {
        for (size_t i = b; i < e; ++i) {
            if (!isPunct(t_, i, "["))
                continue;
            if (i == b || !(isIdent(t_, i - 1) || isPunct(t_, i - 1, "]") ||
                            isPunct(t_, i - 1, ")")))
                continue;    // lambda introducer / attribute, not a load
            size_t close = matchForward(t_, i, '[', ']');
            if (close > e)
                continue;
            TaintInfo ti;
            if (findTaint(i + 1, close, st, ti))
                report("taint-index", i, t_[i].line,
                       "subscript derives from " + ti.what +
                           " (tainted at line " + std::to_string(ti.line) +
                           ") without a bounds check",
                       ti, "subscript");
        }
    }

    void
    checkShiftSinks(size_t b, size_t e, const TaintState &st)
    {
        // Stream formatting (`oss << value`) is not bit arithmetic:
        // skip statements that chain a string literal through <<.
        bool hasStr = false;
        bool hasShl = false;
        for (size_t i = b; i < e; ++i) {
            if (t_[i].kind == Tok::Str)
                hasStr = true;
            if (isPunct(t_, i, "<<"))
                hasShl = true;
        }
        if (hasStr && hasShl)
            return;
        for (size_t i = b; i < e; ++i) {
            if (!isPunct(t_, i, "<<") && !isPunct(t_, i, ">>"))
                continue;
            size_t rb = i + 1;
            size_t re = rb;
            if (isPunct(t_, rb, "(")) {
                re = matchForward(t_, rb, '(', ')') + 1;
            } else {
                while (re < e &&
                       (isIdent(t_, re) || t_[re].kind == Tok::Number ||
                        isPunct(t_, re, "::") || isPunct(t_, re, ".") ||
                        isPunct(t_, re, "->")))
                    ++re;
            }
            TaintInfo ti;
            if (findTaint(rb, std::min(re, e), st, ti))
                report("taint-shift", i, t_[i].line,
                       "shift amount derives from " + ti.what +
                           " (tainted at line " + std::to_string(ti.line) +
                           ") without a bounds check",
                       ti, "shift");
        }
    }

    /**
     * Emit a finding — or, in summary mode, record the flow: a sink
     * reached from parameter N becomes a SinkFlow on that parameter
     * (chain extended with this function's name); sinks fed by the
     * function's own sources are dropped here because the findings
     * pass reports them directly. A loop body is walked twice, so a
     * finding fires once per sink token @p at and rule.
     */
    void
    report(const std::string &rule, size_t at, int line,
           const std::string &msg, const TaintInfo &ti,
           const std::string &chainTail)
    {
        if (summaryMode_) {
            if (ti.param < 0 ||
                static_cast<size_t>(ti.param) >= sum_->paramSinks.size())
                return;
            int hops = 1;
            for (size_t p = chainTail.find(" -> ");
                 p != std::string::npos;
                 p = chainTail.find(" -> ", p + 4))
                ++hops;
            if (hops >= kMaxChainHops)
                return;
            std::string chain = fnName_ + " -> " + chainTail;
            auto &flows =
                sum_->paramSinks[static_cast<size_t>(ti.param)];
            for (const SinkFlow &fl : flows)
                if (fl.rule == rule && fl.chain == chain)
                    return;
            flows.push_back({rule, chain});
            sumChanged_ = true;
            return;
        }
        if (seen_.emplace(at, rule).second)
            out_.push_back({std::string(file_), line, rule, msg});
    }

    std::string_view file_;
    const std::vector<Token> &t_;
    std::vector<Finding> &out_;
    std::set<std::pair<size_t, std::string>> seen_;

    // Cross-function mode (setGraph) and summary mode (computeSummary).
    const nxcommon::CallGraph *graph_ = nullptr;
    size_t fileIdx_ = 0;
    const std::vector<TaintSummary> *sums_ = nullptr;
    bool summaryMode_ = false;
    TaintSummary *sum_ = nullptr;
    std::string fnName_;
    bool sumChanged_ = false;
};

} // namespace

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> &
rules()
{
    return kRules;
}

std::vector<Finding>
analyzeFiles(const std::vector<nxcommon::SourceFile> &files)
{
    size_t n = files.size();
    std::vector<std::string> paths;
    std::vector<std::vector<Token>> merged;
    std::vector<std::vector<Allow>> allows(n);
    std::vector<std::vector<Finding>> pre(n);
    paths.reserve(n);
    merged.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        std::vector<Token> raw = Lexer(files[i].content).run();
        allows[i] = nxcommon::collectAllows(raw, "nxtaint", kRules,
                                            pre[i], files[i].path);
        merged.push_back(nxcommon::mergeOperators(raw));
        paths.push_back(files[i].path);
    }

    const nxcommon::CallGraph graph =
        nxcommon::CallGraph::build(std::move(paths), std::move(merged));

    // Summaries, callees before callers; SCCs iterate to a fixpoint.
    std::vector<TaintSummary> sums(graph.functions().size());
    std::vector<Finding> scratch;
    graph.forEachBottomUp([&](int id) {
        const nxcommon::FunctionDef &fn =
            graph.functions()[static_cast<size_t>(id)];
        Analyzer a(graph.paths()[fn.fileIdx], graph.tokens(fn.fileIdx),
                   scratch);
        a.setGraph(&graph, fn.fileIdx, &sums);
        return a.computeSummary(fn, sums[static_cast<size_t>(id)]);
    });

    // Findings pass, summaries in hand.
    std::vector<Finding> findings;
    for (size_t i = 0; i < n; ++i) {
        std::vector<Finding> fileFindings = std::move(pre[i]);
        std::vector<Finding> rawFindings;
        Analyzer a(files[i].path, graph.tokens(i), rawFindings);
        a.setGraph(&graph, i, &sums);
        a.run();
        nxcommon::applyAllows(std::move(rawFindings), allows[i],
                              files[i].path, fileFindings);
        std::sort(fileFindings.begin(), fileFindings.end(),
                  [](const Finding &a2, const Finding &b2) {
                      return a2.line != b2.line ? a2.line < b2.line
                                                : a2.rule < b2.rule;
                  });
        for (Finding &fd : fileFindings)
            findings.push_back(std::move(fd));
    }
    return findings;
}

std::vector<Finding>
analyzeFile(std::string_view path, std::string_view content)
{
    return analyzeFiles(
        {{std::string(path), std::string(content)}});
}

std::vector<Finding>
analyzeTree(const std::string &root)
{
    nxcommon::TreeLoad tree = nxcommon::loadTree(root, {"src"});
    std::vector<Finding> findings = std::move(tree.ioErrors);
    for (Finding &fd : analyzeFiles(tree.files))
        findings.push_back(std::move(fd));
    return findings;
}

std::string
format(const Finding &f)
{
    return nxcommon::formatText(f);
}

} // namespace nxtaint
