/**
 * @file
 * nxtaint implementation: a statement-level forward taint walk over
 * the shared tokenizer's output.
 *
 * The shape of the analysis, front to back:
 *
 *   1. Lex (tools/common/lexer.h), collect `nxtaint: allow(...)`
 *      suppressions from the comment stream (tools/common/allow.h),
 *      then strip comments and merge multi-character operators (`<<`,
 *      `->`, `==`, ...) via tools/common/tokens.h.
 *   2. Find function bodies with the shared finder
 *      (nxcommon::findFunctions). Each body gets a fresh taint
 *      environment; lambdas and nested blocks are analyzed inline
 *      against the enclosing function's environment.
 *   3. Walk the body statement by statement in token order. Sources
 *      taint variables, `if`/`switch`/contract comparisons sanitize
 *      them, sinks fire findings on tainted-and-unsanitized values.
 *      "Earlier in statement order" approximates "dominating" — right
 *      for the decode-loop idiom this tree is written in, and every
 *      deliberate exception carries an allow() with a justification.
 *
 * The statement walk stays intra-procedural; cross-function flow rides
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
#include <sstream>

#include "common/allow.h"
#include "common/callgraph.h"
#include "common/fileset.h"
#include "common/lexer.h"
#include "common/tokens.h"

namespace nxtaint {

namespace {

using nxcommon::Allow;
using nxlex::Lexer;
using nxlex::Tok;
using nxlex::Token;
using nxlex::trim;

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
        beginFunction(fn.paramOpen, fn.paramClose);
        for (size_t p = 0; p < fn.params.size(); ++p)
            if (!fn.params[p].empty())
                env_[fn.params[p]] = {fn.line,
                                      "parameter '" + fn.params[p] + "'",
                                      static_cast<int>(p)};
        analyzeBody(fn.bodyBegin);
        summaryMode_ = false;
        sum_ = nullptr;
        return sumChanged_;
    }

    /** Findings mode: analyze every function body in the file. */
    void
    run()
    {
        for (const nxcommon::FunctionDef &fn :
             nxcommon::findFunctions(t_, fileIdx_)) {
            beginFunction(fn.paramOpen, fn.paramClose);
            analyzeBody(fn.bodyBegin);
        }
    }

  private:
    // -- bracket matching ---------------------------------------------------

    size_t
    matchForward(size_t i, char open, char close) const
    {
        return nxcommon::matchForward(t_, i, open, close);
    }

    size_t
    matchBackward(size_t i, char open, char close) const
    {
        return nxcommon::matchBackward(t_, i, open, close);
    }

    /** Reset state and mark NXSIM_UNTRUSTED parameters tainted. */
    void
    beginFunction(size_t po, size_t pc)
    {
        env_.clear();
        clean_.clear();
        std::vector<std::pair<size_t, size_t>> params;
        splitArgs(po + 1, pc, params);
        for (const auto &[b, e] : params)
            markUntrustedParam(b, e);
    }

    void
    markUntrustedParam(size_t b, size_t e)
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
            env_[t_[lastIdent].text] = {t_[lastIdent].line,
                                        "NXSIM_UNTRUSTED parameter '" +
                                            t_[lastIdent].text + "'"};
    }

    // -- body walk ----------------------------------------------------------

    /** Walk one function body statement by statement. */
    void
    analyzeBody(size_t braceIdx)
    {
        size_t end = matchForward(braceIdx, '{', '}');
        size_t i = braceIdx + 1;
        size_t sb = i;
        while (i < end) {
            const Token &tk = t_[i];
            if (tk.kind == Tok::Ident &&
                (tk.text == "if" || tk.text == "while" ||
                 tk.text == "switch" || tk.text == "for") &&
                isPunct(t_, i + 1, "(")) {
                processStmt(sb, i);
                size_t close = matchForward(i + 1, '(', ')');
                handleControl(tk.text, i + 2, close);
                i = close + 1;
                sb = i;
                continue;
            }
            if (isPunct(t_, i, ";") || isPunct(t_, i, "{") ||
                isPunct(t_, i, "}")) {
                processStmt(sb, i);
                ++i;
                sb = i;
                continue;
            }
            ++i;
        }
        processStmt(sb, end);
    }

    /** `for` headers split into init/cond/update; conditions of loops
     * are loop-bound sinks before they sanitize, `if`/`switch`
     * conditions sanitize without flagging. */
    void
    handleControl(const std::string &kind, size_t b, size_t e)
    {
        if (kind == "for") {
            auto semi = [&](size_t i) { return isPunct(t_, i, ";"); };
            size_t s1 = findTopLevel(t_, b, e, semi);
            size_t s2 = s1 == e ? e : findTopLevel(t_, s1 + 1, e, semi);
            if (s1 == e) {
                processStmt(b, e);    // range-for: no condition clause
                return;
            }
            processStmt(b, s1);
            handleCond(s1 + 1, s2 == e ? e : s2, /*loop=*/true,
                       /*isSwitch=*/false);
            if (s2 != e)
                processStmt(s2 + 1, e);
            return;
        }
        handleCond(b, e, /*loop=*/kind == "while",
                   /*isSwitch=*/kind == "switch");
    }

    void
    handleCond(size_t b, size_t e, bool loop, bool isSwitch)
    {
        checkSinks(b, e);
        if (isSwitch) {
            sanitizeIdents(b, e);
            return;
        }
        bool any = false;
        for (size_t i = b; i < e; ++i) {
            if (t_[i].kind != Tok::Punct ||
                kComparisons.count(t_[i].text) == 0)
                continue;
            any = true;
            size_t lb = operandLeft(i, b);
            size_t rb = operandRight(i, e);
            if (loop) {
                TaintInfo ti;
                if (findTaint(lb, i, ti) || findTaint(i + 1, rb, ti))
                    report("taint-loop-bound", t_[i].line,
                           "loop bound compares against " + ti.what +
                               " (tainted at line " +
                               std::to_string(ti.line) +
                               ") before any bounds check",
                           ti, "loop-bound");
            }
            sanitizeIdents(lb, i);
            sanitizeIdents(i + 1, rb);
        }
        (void)any;
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
                size_t o = matchBackward(p, open, t_[p].text[0]);
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
                size_t c = matchForward(i, t_[i].text[0], close);
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
    sanitizeIdents(size_t b, size_t e)
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
            clean_.insert(t_[i].text);
        }
    }

    // -- statements ---------------------------------------------------------

    void
    processStmt(size_t b, size_t e)
    {
        if (b >= e)
            return;
        if (t_[b].kind == Tok::Ident &&
            kContractMacros.count(t_[b].text) != 0 &&
            isPunct(t_, b + 1, "(")) {
            size_t close = matchForward(b + 1, '(', ')');
            // A contract *is* the bounds check: sanitize, don't sink.
            handleCond(b + 2, std::min(close, e), /*loop=*/false,
                       /*isSwitch=*/false);
            return;
        }
        checkSinks(b, e);
        applyAssignment(b, e);
        if (summaryMode_ && (isIdent(t_, b, "return") ||
                             isIdent(t_, b, "co_return"))) {
            TaintInfo ti;
            if (findTaint(b + 1, e, ti))
                recordReturn(ti);
        }
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
    applyAssignment(size_t b, size_t e)
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
        if (findTaint(i + 1, e, ti)) {
            env_[var] = ti;
            clean_.erase(var);
        } else if (t_[i].text == "=") {
            env_.erase(var);
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
    findTaint(size_t b, size_t e, TaintInfo &out) const
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
                    i = matchForward(j, '(', ')') + 1;
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
                                      std::min(cs->args[a].second, e),
                                      out))
                            return true;
                    }
                    i = matchForward(i + 1, '(', ')') + 1;
                    continue;
                }
            }
            auto it = env_.find(name);
            if (it != env_.end() && clean_.count(name) == 0) {
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
                            i = matchForward(j + 3, '(', ')') + 1;
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
        size_t c = matchForward(j, '(', ')');
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
    checkSinks(size_t b, size_t e)
    {
        checkCallSinks(b, e);
        checkIndexSinks(b, e);
        checkShiftSinks(b, e);
    }

    void
    checkCallSinks(size_t b, size_t e)
    {
        for (size_t i = b; i < e; ++i) {
            if (!isIdent(t_, i) || !isPunct(t_, i + 1, "("))
                continue;
            const std::string &name = t_[i].text;
            size_t close = matchForward(i + 1, '(', ')');
            if (close > e)
                continue;
            std::vector<std::pair<size_t, size_t>> args;
            splitArgs(i + 2, close, args);
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
                if (findTaint(args[argIdx].first, args[argIdx].second,
                              ti))
                    report(rule, t_[i].line,
                           name + "() count argument derives from " +
                               ti.what + " (tainted at line " +
                               std::to_string(ti.line) +
                               ") without a bounds check",
                           ti, name);
                continue;
            }
            checkSummarySinks(i, name, args);
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
                      const std::vector<std::pair<size_t, size_t>> &args)
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
            if (!findTaint(args[a].first, args[a].second, ti))
                continue;
            const SinkFlow &fl = S.paramSinks[a][0];
            report(fl.rule, t_[i].line,
                   "argument " + std::to_string(a + 1) + " of " + name +
                       "() derives from " + ti.what +
                       " (tainted at line " + std::to_string(ti.line) +
                       ") and reaches an unchecked sink (call chain: " +
                       fl.chain + ")",
                   ti, fl.chain);
        }
    }

    void
    splitArgs(size_t b, size_t e,
              std::vector<std::pair<size_t, size_t>> &args) const
    {
        nxcommon::splitArgs(t_, b, e, args);
    }

    void
    checkIndexSinks(size_t b, size_t e)
    {
        for (size_t i = b; i < e; ++i) {
            if (!isPunct(t_, i, "["))
                continue;
            if (i == b || !(isIdent(t_, i - 1) || isPunct(t_, i - 1, "]") ||
                            isPunct(t_, i - 1, ")")))
                continue;    // lambda introducer / attribute, not a load
            size_t close = matchForward(i, '[', ']');
            if (close > e)
                continue;
            TaintInfo ti;
            if (findTaint(i + 1, close, ti))
                report("taint-index", t_[i].line,
                       "subscript derives from " + ti.what +
                           " (tainted at line " + std::to_string(ti.line) +
                           ") without a bounds check",
                       ti, "subscript");
        }
    }

    void
    checkShiftSinks(size_t b, size_t e)
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
                re = matchForward(rb, '(', ')') + 1;
            } else {
                while (re < e &&
                       (isIdent(t_, re) || t_[re].kind == Tok::Number ||
                        isPunct(t_, re, "::") || isPunct(t_, re, ".") ||
                        isPunct(t_, re, "->")))
                    ++re;
            }
            TaintInfo ti;
            if (findTaint(rb, std::min(re, e), ti))
                report("taint-shift", t_[i].line,
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
     * pass reports them directly.
     */
    void
    report(const std::string &rule, int line, const std::string &msg,
           const TaintInfo &ti, const std::string &chainTail)
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
        out_.push_back({std::string(file_), line, rule, msg});
    }

    std::string_view file_;
    const std::vector<Token> &t_;
    std::vector<Finding> &out_;
    std::map<std::string, TaintInfo, std::less<>> env_;
    std::set<std::string, std::less<>> clean_;

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
