/**
 * @file
 * Token-stream helpers shared by the statement-level analyzers
 * (nxtaint, nxstate, nxown) and the call graph: bracket matching, the
 * top-level token search, argument splitting, and the one spelling of a
 * simple path (`a.b->c` as "a.b.c"). The lexer (common/lexer.h) emits
 * one Punct token per character; analyses that care about `<<` vs `<`
 * or `->` vs `-` run their token stream through mergeOperators() first,
 * which also drops comments and preprocessor directives (suppressions
 * are harvested from the raw stream before that).
 */

#ifndef NXSIM_COMMON_TOKENS_H
#define NXSIM_COMMON_TOKENS_H

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/lexer.h"

namespace nxcommon {

inline bool
isPunct(const std::vector<nxlex::Token> &t, size_t i, std::string_view s)
{
    return i < t.size() && t[i].kind == nxlex::Tok::Punct && t[i].text == s;
}

inline bool
isIdent(const std::vector<nxlex::Token> &t, size_t i)
{
    return i < t.size() && t[i].kind == nxlex::Tok::Ident;
}

inline bool
isIdent(const std::vector<nxlex::Token> &t, size_t i, std::string_view name)
{
    return i < t.size() && t[i].kind == nxlex::Tok::Ident &&
           t[i].text == name;
}

/**
 * Strip comments/preprocessor directives and merge the standard
 * multi-character operators (greedy, longest first). Tokens that merge
 * must share a source line, so `a < b\n> c` never becomes a shift.
 */
inline std::vector<nxlex::Token>
mergeOperators(const std::vector<nxlex::Token> &raw)
{
    using nxlex::Tok;
    using nxlex::Token;
    static const std::vector<std::string> kThree = {"<<=", ">>=", "->*",
                                                    "..."};
    static const std::vector<std::string> kTwo = {
        "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->", "::",
        "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--"};

    std::vector<Token> toks;
    for (const Token &t : raw)
        if (t.kind != Tok::Comment && t.kind != Tok::Pp)
            toks.push_back(t);

    std::vector<Token> out;
    size_t i = 0;
    auto punct = [&](size_t k) -> char {
        return k < toks.size() && toks[k].kind == Tok::Punct &&
                       toks[k].text.size() == 1
                   ? toks[k].text[0]
                   : '\0';
    };
    while (i < toks.size()) {
        char a = punct(i);
        if (a != '\0') {
            char b = punct(i + 1);
            char c = punct(i + 2);
            bool merged = false;
            if (b != '\0' && c != '\0' && toks[i].line == toks[i + 2].line) {
                std::string three{a};
                three += b;
                three += c;
                if (std::find(kThree.begin(), kThree.end(), three) !=
                    kThree.end()) {
                    Token t = toks[i];
                    t.text = three;
                    out.push_back(std::move(t));
                    i += 3;
                    merged = true;
                }
            }
            if (!merged && b != '\0' && toks[i].line == toks[i + 1].line) {
                std::string two{a};
                two += b;
                if (std::find(kTwo.begin(), kTwo.end(), two) != kTwo.end()) {
                    Token t = toks[i];
                    t.text = two;
                    out.push_back(std::move(t));
                    i += 2;
                    merged = true;
                }
            }
            if (merged)
                continue;
        }
        out.push_back(toks[i]);
        ++i;
    }
    return out;
}

/** Index of the matching close bracket for the open at @p i (depth
 * aware), or toks.size() when unbalanced. */
inline size_t
matchForward(const std::vector<nxlex::Token> &t, size_t i, char open,
             char close)
{
    int depth = 0;
    std::string o(1, open);
    std::string c(1, close);
    for (; i < t.size(); ++i) {
        if (isPunct(t, i, o))
            ++depth;
        else if (isPunct(t, i, c) && --depth == 0)
            return i;
    }
    return t.size();
}

/** Index of the matching open bracket for the close at @p i, or
 * toks.size() when unbalanced. */
inline size_t
matchBackward(const std::vector<nxlex::Token> &t, size_t i, char open,
              char close)
{
    int depth = 0;
    std::string o(1, open);
    std::string c(1, close);
    while (true) {
        if (isPunct(t, i, c))
            ++depth;
        else if (isPunct(t, i, o) && --depth == 0)
            return i;
        if (i == 0)
            break;
        --i;
    }
    return t.size();
}

/**
 * Dotted form of the simple path [b, e): identifiers joined by `.`
 * (`->` spelled `.`) and `::`, so `r -> ticket` becomes "r.ticket".
 * "" when the range holds anything else (`v[i]`, `f()`, `*p`).
 */
inline std::string
simplePath(const std::vector<nxlex::Token> &t, size_t b, size_t e)
{
    std::string s;
    for (size_t i = b; i < e; ++i) {
        if (isIdent(t, i))
            s += t[i].text;
        else if (isPunct(t, i, ".") || isPunct(t, i, "->"))
            s += ".";
        else if (isPunct(t, i, "::"))
            s += "::";
        else
            return {};
    }
    return s;
}

/**
 * Receiver of the member call whose `.`/`->` sits at @p dot, looking
 * no further left than @p b: the simple path ending there, or "" for
 * complex receivers (`tickets[i].wait()`, `make().x`).
 */
inline std::string
receiverPath(const std::vector<nxlex::Token> &t, size_t b, size_t dot)
{
    size_t i = dot;
    size_t lo = dot;
    while (i > b) {
        --i;
        if (isIdent(t, i)) {
            lo = i;
            if (i > b && (isPunct(t, i - 1, ".") || isPunct(t, i - 1, "->") ||
                          isPunct(t, i - 1, "::"))) {
                --i;
                continue;
            }
        }
        break;
    }
    if (!isIdent(t, lo) || lo == dot)
        return {};
    if (lo > b && (isPunct(t, lo - 1, ")") || isPunct(t, lo - 1, "]")))
        return {};
    return simplePath(t, lo, dot);
}

/** First index in [i, e) at bracket depth 0 where @p at holds, or
 * @p e; brackets themselves are never tested. */
template <typename Pred>
size_t
findTopLevel(const std::vector<nxlex::Token> &t, size_t i, size_t e, Pred at)
{
    int depth = 0;
    for (; i < e; ++i) {
        if (isPunct(t, i, "(") || isPunct(t, i, "[") || isPunct(t, i, "{"))
            ++depth;
        else if (isPunct(t, i, ")") || isPunct(t, i, "]") ||
                 isPunct(t, i, "}"))
            --depth;
        else if (depth == 0 && at(i))
            return i;
    }
    return e;
}

/** Split [b, e) into top-level comma-separated argument ranges. */
inline void
splitArgs(const std::vector<nxlex::Token> &t, size_t b, size_t e,
          std::vector<std::pair<size_t, size_t>> &args)
{
    if (b >= e)
        return;
    auto comma = [&](size_t i) { return isPunct(t, i, ","); };
    for (size_t c; (c = findTopLevel(t, b, e, comma)) != e; b = c + 1)
        args.emplace_back(b, c);
    args.emplace_back(b, e);
}

} // namespace nxcommon

#endif // NXSIM_COMMON_TOKENS_H
