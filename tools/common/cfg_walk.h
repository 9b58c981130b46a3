/**
 * @file
 * The one path-sensitive CFG walker behind the body analyses (nxstate's
 * typestate check, nxown's ownership check). It walks a function body's
 * merged tokens (common/tokens.h) statement by statement and owns the
 * control flow; the analysis owns everything else. An analysis type
 * @p A supplies:
 *
 *     using State = ...;                       // per-path state, copyable
 *     State join(const State &a, const State &b);
 *     void statement(size_t b, size_t e, State &st);  // one statement [b, e)
 *     void condition(size_t b, size_t e, State &st);  // if/loop/switch head
 *     void exit(size_t kw, size_t e, State &st);      // return/co_return/
 *                                                     // throw at kw, operand
 *                                                     // [kw + 1, e)
 *
 * Control flow, all at token level:
 *
 *   - `if`/`else` fork the state and join the branches that fall
 *     through; when both branches end, the construct ends.
 *   - Loop bodies run twice, the second pass entered with the first
 *     pass's back-edge state (its end joined with every `continue`):
 *     that is what catches a once-only call repeated across iterations.
 *     The state after a loop joins both passes' back edges and every
 *     `break`; `for`/`while` join the entry state too (the body may not
 *     run), `do` does not.
 *   - `switch` enters every case from the head's state; fall-through
 *     joins in the previous case's state. The state after it joins every
 *     `break`, the end of the last case, and the head's state when there
 *     is no `default:`.
 *   - `break` sends its state to the innermost loop or switch, and
 *     `continue` to the innermost loop's back edge, however deeply
 *     nested in ifs and blocks. return/co_return/throw/goto send it
 *     nowhere. All of them end the path: the rest of the block is dead,
 *     and a loop or switch no path leaves ends the path too.
 *   - A `catch` handler starts from the state at the end of the `try`
 *     block and joins it.
 */

#ifndef NXSIM_COMMON_CFG_WALK_H
#define NXSIM_COMMON_CFG_WALK_H

#include <algorithm>
#include <optional>
#include <vector>

#include "common/lexer.h"
#include "common/tokens.h"

namespace nxcommon {

/** The `;` ending the statement at @p i, or @p e; the body of an
 * inline lambda never ends it. */
inline size_t
findSemi(const std::vector<nxlex::Token> &t, size_t i, size_t e)
{
    return findTopLevel(t, i, e, [&](size_t k) { return isPunct(t, k, ";"); });
}

template <typename A>
class CfgWalk
{
  public:
    using State = typename A::State;

    CfgWalk(const std::vector<nxlex::Token> &t, A &a) : t_(t), a_(a) {}

    /** Walk [b, e) from @p st. True when the path ended (return,
     * throw, break, ...) — everything after it in the block is dead,
     * and no later code sees @p st. */
    bool
    walk(size_t b, size_t e, State &st)
    {
        size_t i = b;
        while (i < e) {
            bool ended = false;
            i = step(i, e, st, ended);
            if (ended)
                return true;
        }
        return false;
    }

  private:
    /** Where break/continue send their state; none until one does. */
    using Sinks = std::vector<std::optional<State>>;

    /** One statement or construct at @p i; returns the index past it. */
    size_t
    step(size_t i, size_t e, State &st, bool &ended)
    {
        if (isPunct(t_, i, "{")) {
            size_t m = std::min(matchForward(t_, i, '{', '}'), e);
            ended = walk(i + 1, m, st);
            return m + 1;
        }
        if (isPunct(t_, i, ";") || isPunct(t_, i, ":"))
            return i + 1;
        if (isIdent(t_, i, "if"))
            return ifElse(i, e, st, ended);
        if (isIdent(t_, i, "for") || isIdent(t_, i, "while")) {
            if (!isPunct(t_, i + 1, "("))
                return i + 1;
            size_t pc = head(i + 1, e, st);
            State after = st;
            bool noneLeaves = false;
            size_t k = loop(pc + 1, e, after, noneLeaves);
            if (!noneLeaves)
                st = a_.join(st, after);
            return k;
        }
        if (isIdent(t_, i, "do")) {
            size_t k = loop(i + 1, e, st, ended);
            if (isIdent(t_, k, "while") && isPunct(t_, k + 1, "(")) {
                k = head(k + 1, e, st) + 1;
                if (isPunct(t_, k, ";"))
                    ++k;
            }
            return k;
        }
        if (isIdent(t_, i, "switch")) {
            if (!isPunct(t_, i + 1, "("))
                return i + 1;
            size_t pc = head(i + 1, e, st);
            if (!isPunct(t_, pc + 1, "{"))
                return pc + 1;
            size_t m = std::min(matchForward(t_, pc + 1, '{', '}'), e);
            switchBody(pc + 2, m, st, ended);
            return m + 1;
        }
        if (isLabel(i))
            return labelEnd(i, e);
        if (isIdent(t_, i, "return") || isIdent(t_, i, "co_return") ||
            isIdent(t_, i, "throw")) {
            size_t semi = findSemi(t_, i + 1, e);
            a_.exit(i, semi, st);
            ended = true;
            return semi + 1;
        }
        if (isIdent(t_, i, "break") || isIdent(t_, i, "continue")) {
            Sinks &sinks = t_[i].text == "break" ? breaks_ : continues_;
            if (!sinks.empty())
                into(sinks.back(), st);
            ended = true;
            return findSemi(t_, i, e) + 1;
        }
        if (isIdent(t_, i, "goto")) {
            ended = true;
            return findSemi(t_, i, e) + 1;
        }
        if (isIdent(t_, i, "try") || isIdent(t_, i, "else"))
            return i + 1;
        if (isIdent(t_, i, "catch")) {
            size_t pc = isPunct(t_, i + 1, "(")
                            ? std::min(matchForward(t_, i + 1, '(', ')'), e)
                            : i;
            State handler = st;
            bool handlerEnded = false;
            size_t k = step(pc + 1, e, handler, handlerEnded);
            if (!handlerEnded)
                st = a_.join(st, handler);
            return k;
        }
        size_t semi = findSemi(t_, i, e);
        a_.statement(i, semi, st);
        return semi + 1;
    }

    /** The parenthesized head whose `(` is at @p open: hand it to the
     * condition transfer and return its `)`. */
    size_t
    head(size_t open, size_t e, State &st)
    {
        size_t close = std::min(matchForward(t_, open, '(', ')'), e);
        a_.condition(open + 1, close, st);
        return close;
    }

    size_t
    ifElse(size_t i, size_t e, State &st, bool &ended)
    {
        size_t open = isIdent(t_, i + 1, "constexpr") ? i + 2 : i + 1;
        if (!isPunct(t_, open, "("))
            return i + 1;
        size_t close = head(open, e, st);
        State thenSt = st;
        bool thenEnded = false;
        size_t k = step(close + 1, e, thenSt, thenEnded);
        if (!isIdent(t_, k, "else")) {
            if (!thenEnded)
                st = a_.join(st, thenSt);
            return k;
        }
        State elseSt = st;
        bool elseEnded = false;
        k = step(k + 1, e, elseSt, elseEnded);
        if (thenEnded == elseEnded)
            st = a_.join(thenSt, elseSt);
        else
            st = std::move(thenEnded ? elseSt : thenSt);
        ended = thenEnded && elseEnded;
        return k;
    }

    /** Run the loop body at @p i twice, the second pass entered from
     * the first's back edge. @p st enters as the state before the body
     * and leaves as the join of every state that leaves the loop: both
     * back edges and every break; @p ended when none does. Returns the
     * index past the body. */
    size_t
    loop(size_t i, size_t e, State &st, bool &ended)
    {
        breaks_.emplace_back();
        std::optional<State> out;
        std::optional<State> pass = st;
        size_t k = i;
        for (int n = 0; n < 2 && pass; ++n) {
            continues_.emplace_back();
            bool passEnded = false;
            k = step(i, e, *pass, passEnded);
            if (!passEnded)
                into(continues_.back(), *pass);
            pass = std::move(continues_.back());   // the back edge
            continues_.pop_back();
            if (pass)
                into(out, *pass);
        }
        leave(out, st, ended);
        return k;
    }

    /** The cases of the switch body [b, e); @p st holds the head's
     * state on entry and the state after the switch on return; @p ended
     * when no path gets past it. */
    void
    switchBody(size_t b, size_t e, State &st, bool &ended)
    {
        breaks_.emplace_back();
        std::optional<State> live;  // the running case; none once it ended
        bool hasDefault = false;
        size_t i = b;
        while (i < e) {
            if (isLabel(i)) {
                hasDefault = hasDefault || t_[i].text == "default";
                i = labelEnd(i, e);
                into(live, st);
                continue;
            }
            if (!live) {   // no label reaches this code: skip to the next
                i = findTopLevel(t_, i, e,
                                 [&](size_t k) { return isLabel(k); });
                continue;
            }
            bool caseEnded = false;
            i = step(i, e, *live, caseEnded);
            if (caseEnded)
                live.reset();
        }
        std::optional<State> out = std::move(live);
        if (!hasDefault)
            into(out, st);
        leave(out, st, ended);
    }

    /** Close the innermost loop or switch: @p out (what leaves it other
     * than by a break) joined with its breaks becomes @p st, or
     * @p ended when nothing leaves. */
    void
    leave(std::optional<State> &out, State &st, bool &ended)
    {
        if (breaks_.back())
            into(out, *breaks_.back());
        breaks_.pop_back();
        ended = !out;
        if (out)
            st = std::move(*out);
    }

    void
    into(std::optional<State> &sink, const State &s)
    {
        sink = sink ? a_.join(*sink, s) : s;
    }

    /** Index past the `:` of the case/default label at @p i. */
    size_t
    labelEnd(size_t i, size_t e) const
    {
        while (i < e && !isPunct(t_, i, ":"))
            ++i;
        return i + 1;
    }

    bool
    isLabel(size_t i) const
    {
        return isIdent(t_, i, "case") || isIdent(t_, i, "default");
    }

    const std::vector<nxlex::Token> &t_;
    A &a_;
    Sinks breaks_;      ///< innermost loop or switch last
    Sinks continues_;   ///< innermost loop last
};

} // namespace nxcommon

#endif // NXSIM_COMMON_CFG_WALK_H
