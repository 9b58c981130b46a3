/**
 * @file
 * nxlint implementation: token-pattern rules over the shared analyzer
 * engine (tools/common/ — one lexer, one allow() grammar, one tree
 * walker for all five analyzers). The
 * lexer understands comments, string/char literals (raw strings
 * included), numbers and preprocessor lines — enough that a banned
 * identifier inside a string or comment never fires, and a
 * suppression comment is visible next to the code it excuses.
 */

#include "nxlint/nxlint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <set>

#include "common/allow.h"
#include "common/fileset.h"
#include "common/lexer.h"

namespace nxlint {

namespace {

using nxcommon::Allow;
using nxcommon::relFromTree;
using nxlex::identChar;
using nxlex::Lexer;
using nxlex::Tok;
using nxlex::Token;

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

struct Scope
{
    std::string rel;       // path from the tree root ("src/nx/crb.h")
    bool isHeader = false;
    bool isSrc = false;    // library code: src/ (or an unrecognized path)
    bool isUtil = false;   // src/util/: the whitelisted helper layer
};

Scope
scopeFor(std::string_view path)
{
    Scope sc;
    sc.rel = relFromTree(path);
    std::string_view name = sc.rel.empty() ? path : sc.rel;
    sc.isHeader = name.size() > 2 && (name.ends_with(".h") ||
                                      name.ends_with(".hpp"));
    if (sc.rel.empty()) {
        // Scratch file: lint at the strictest scope, as library code.
        sc.isSrc = true;
    } else {
        sc.isSrc = sc.rel.rfind("src/", 0) == 0;
        sc.isUtil = sc.rel.rfind("src/util/", 0) == 0;
    }
    return sc;
}

std::string
expectedGuard(std::string_view path)
{
    // NXSIM_<PARENT-DIR>_<STEM>_H, non-alphanumerics folded to '_'.
    std::filesystem::path p{std::string(path)};
    std::string dir = p.parent_path().filename().string();
    std::string stem = p.stem().string();
    std::string out = "NXSIM_";
    auto append = [&out](const std::string &part) {
        for (char c : part)
            out += std::isalnum(static_cast<unsigned char>(c))
                       ? static_cast<char>(
                             std::toupper(static_cast<unsigned char>(c)))
                       : '_';
    };
    if (!dir.empty() && dir != ".") {
        append(dir);
        out += '_';
    }
    append(stem);
    out += "_H";
    return out;
}

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"include-guard",
     "headers carry an #ifndef/#define guard named NXSIM_<DIR>_<FILE>_H"},
    {"using-namespace-header",
     "no `using namespace` at any scope in a header"},
    {"banned-call",
     "assert/abort/sprintf/atoi-family calls are banned in src/; "
     "use the contracts layer (src/util/contracts.h)"},
    {"banned-include",
     "<cassert>/<assert.h> are banned in src/; include util/contracts.h"},
    {"raw-memcpy",
     "memcpy with a runtime-computed size is banned in src/ outside "
     "src/util/; use nx::copyBytes (src/util/checked.h)"},
    {"narrow-cast",
     "bare static_cast to a narrow integer is banned in src/ outside "
     "src/util/; use nx::checked_cast or nx::truncate_cast"},
    {"nodiscard-status",
     "header functions returning a status type (CondCode, Csb, *Status, "
     "*Result) must be [[nodiscard]]"},
    {"raw-thread",
     "std::thread/jthread/async is banned in src/ outside "
     "src/core/job_server.*, src/load/load_gen.cc and src/util/ — "
     "route work through core::JobServer; detach() is banned "
     "everywhere in src/"},
    {"mutex-annotation",
     "a mutex member in a src/ header must guard something: the file "
     "needs NXSIM_GUARDED_BY(<that mutex>) on at least one member "
     "(src/util/thread_annotations.h)"},
    {"todo-tag",
     "TODO/FIXME comments must carry an issue tag: TODO(#123)"},
    {"bare-allow",
     "nxlint suppressions must name a known rule and justify it: "
     "// nxlint: allow(<rule>): <why>"},
    {"stale-allow",
     "an allow() that no longer suppresses any finding is itself a "
     "finding; delete it"},
    {"io-error", "file could not be read"},
};

using nxlex::trim;

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

/// Index of the previous non-comment token, or npos.
size_t
prevSig(const std::vector<Token> &toks, size_t i)
{
    while (i > 0) {
        --i;
        if (toks[i].kind != Tok::Comment)
            return i;
    }
    return static_cast<size_t>(-1);
}

/// Index of the next non-comment token, or npos.
size_t
nextSig(const std::vector<Token> &toks, size_t i)
{
    for (++i; i < toks.size(); ++i)
        if (toks[i].kind != Tok::Comment)
            return i;
    return static_cast<size_t>(-1);
}

bool
isPunct(const std::vector<Token> &toks, size_t i, char c)
{
    return i < toks.size() && toks[i].kind == Tok::Punct &&
           toks[i].text.size() == 1 && toks[i].text[0] == c;
}

bool
isIdent(const std::vector<Token> &toks, size_t i, std::string_view name)
{
    return i < toks.size() && toks[i].kind == Tok::Ident &&
           toks[i].text == name;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

struct PpDirective
{
    std::string keyword;
    std::string rest;
};

PpDirective
parsePp(const std::string &text)
{
    PpDirective d;
    size_t i = 0;
    while (i < text.size() &&
           (text[i] == '#' ||
            std::isspace(static_cast<unsigned char>(text[i]))))
        ++i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i])))
        d.keyword += text[i++];
    d.rest = std::string(trim(std::string_view(text).substr(i)));
    return d;
}

void
checkIncludeGuard(const std::vector<Token> &toks, const Scope &sc,
                  std::string_view file, std::vector<Finding> &out)
{
    if (!sc.isHeader || toks.empty())
        return;
    std::string want = expectedGuard(sc.rel.empty() ? file : sc.rel);
    size_t first = static_cast<size_t>(-1);
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Tok::Comment) {
            first = i;
            break;
        }
    }
    if (first == static_cast<size_t>(-1))
        return;    // comment-only header
    const Token &t = toks[first];
    if (t.kind != Tok::Pp) {
        out.push_back({std::string(file), t.line, "include-guard",
                       "header must open with #ifndef " + want});
        return;
    }
    PpDirective open = parsePp(t.text);
    if (open.keyword != "ifndef") {
        out.push_back({std::string(file), t.line, "include-guard",
                       "header must open with #ifndef " + want +
                           " (found #" + open.keyword + ")"});
        return;
    }
    std::string got{trim(open.rest)};
    if (got != want) {
        out.push_back({std::string(file), t.line, "include-guard",
                       "guard is " + got + ", expected " + want});
        return;
    }
    size_t next = nextSig(toks, first);
    PpDirective def = next != static_cast<size_t>(-1) &&
                              toks[next].kind == Tok::Pp
                          ? parsePp(toks[next].text)
                          : PpDirective{};
    if (def.keyword != "define" || std::string(trim(def.rest)) != want) {
        out.push_back({std::string(file), t.line, "include-guard",
                       "#ifndef " + want +
                           " must be followed by #define " + want});
        return;
    }
    for (size_t i = toks.size(); i-- > next;) {
        if (toks[i].kind == Tok::Pp &&
            parsePp(toks[i].text).keyword == "endif")
            return;
    }
    out.push_back({std::string(file), toks.back().line, "include-guard",
                   "guard #endif is missing"});
}

void
checkUsingNamespace(const std::vector<Token> &toks, const Scope &sc,
                    std::string_view file, std::vector<Finding> &out)
{
    if (!sc.isHeader)
        return;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (isIdent(toks, i, "using") &&
            isIdent(toks, nextSig(toks, i), "namespace")) {
            out.push_back({std::string(file), toks[i].line,
                           "using-namespace-header",
                           "`using namespace` leaks into every includer; "
                           "qualify names instead"});
        }
    }
}

const std::map<std::string_view, std::string_view> kBannedCalls = {
    {"assert", "NXSIM_ASSERT / NXSIM_EXPECT (util/contracts.h)"},
    {"abort", "NXSIM_UNREACHABLE or a contract (util/contracts.h)"},
    {"sprintf", "snprintf"},
    {"vsprintf", "vsnprintf"},
    {"atoi", "std::from_chars with a range check"},
    {"atol", "std::from_chars with a range check"},
    {"atoll", "std::from_chars with a range check"},
    {"gets", "fgets"},
    {"strcpy", "nx::copyBytes with an explicit size"},
    {"strcat", "std::string"},
    {"alloca", "a fixed buffer or std::vector"},
};

void
checkBannedCalls(const std::vector<Token> &toks, const Scope &sc,
                 std::string_view file, std::vector<Finding> &out)
{
    if (!sc.isSrc)
        return;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Tok::Ident)
            continue;
        auto it = kBannedCalls.find(toks[i].text);
        if (it == kBannedCalls.end())
            continue;
        if (!isPunct(toks, nextSig(toks, i), '('))
            continue;
        size_t p = prevSig(toks, i);
        if (isPunct(toks, p, '.'))
            continue;    // member access, a different function entirely
        if (isPunct(toks, p, '>') &&
            isPunct(toks, prevSig(toks, p), '-'))
            continue;    // `->` member access
        out.push_back({std::string(file), toks[i].line, "banned-call",
                       "`" + toks[i].text +
                           "` is banned in library code; use " +
                           std::string(it->second)});
    }
}

void
checkBannedIncludes(const std::vector<Token> &toks, const Scope &sc,
                    std::string_view file, std::vector<Finding> &out)
{
    if (!sc.isSrc)
        return;
    for (const Token &t : toks) {
        if (t.kind != Tok::Pp)
            continue;
        PpDirective d = parsePp(t.text);
        if (d.keyword != "include")
            continue;
        if (d.rest.find("cassert") != std::string::npos ||
            d.rest.find("assert.h") != std::string::npos) {
            out.push_back({std::string(file), t.line, "banned-include",
                           "include util/contracts.h instead of " +
                               d.rest});
        }
    }
}

/// Top-level argument ranges [begin, end) of a call starting at `open`
/// (the '(' token). Returns the index one past the closing ')'.
size_t
splitArgs(const std::vector<Token> &toks, size_t open,
          std::vector<std::pair<size_t, size_t>> &args)
{
    int depth = 0;
    size_t argStart = open + 1;
    size_t i = open;
    for (; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != Tok::Punct)
            continue;
        char c = t.text[0];
        if (c == '(' || c == '[' || c == '{') {
            ++depth;
        } else if (c == ')' || c == ']' || c == '}') {
            --depth;
            if (depth == 0) {
                if (i > argStart)
                    args.emplace_back(argStart, i);
                return i + 1;
            }
        } else if (c == ',' && depth == 1) {
            args.emplace_back(argStart, i);
            argStart = i + 1;
        }
    }
    return i;
}

void
checkRawMemcpy(const std::vector<Token> &toks, const Scope &sc,
               std::string_view file, std::vector<Finding> &out)
{
    if (!sc.isSrc || sc.isUtil)
        return;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks, i, "memcpy") && !isIdent(toks, i, "memmove") &&
            !isIdent(toks, i, "memset"))
            continue;
        size_t open = nextSig(toks, i);
        if (!isPunct(toks, open, '('))
            continue;
        std::vector<std::pair<size_t, size_t>> args;
        splitArgs(toks, open, args);
        if (args.size() < 3)
            continue;
        auto [b, e] = args.back();
        // A compile-time-constant size is fine: a single integer
        // literal, or a sizeof expression.
        bool constantSize =
            (e - b == 1 && toks[b].kind == Tok::Number) ||
            isIdent(toks, b, "sizeof");
        if (!constantSize) {
            out.push_back({std::string(file), toks[i].line, "raw-memcpy",
                           "`" + toks[i].text +
                               "` with a runtime size; use nx::copyBytes "
                               "(util/checked.h) so null/overlap "
                               "contracts apply"});
        }
    }
}

const std::set<std::string, std::less<>> kNarrowTypes = {
    "int8_t", "uint8_t", "int16_t", "uint16_t", "int32_t", "uint32_t",
    "int", "unsigned", "unsigned int", "short", "short int",
    "unsigned short", "unsigned short int", "char", "signed char",
    "unsigned char", "char8_t",
};

void
checkNarrowCast(const std::vector<Token> &toks, const Scope &sc,
                std::string_view file, std::vector<Finding> &out)
{
    if (!sc.isSrc || sc.isUtil)
        return;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks, i, "static_cast"))
            continue;
        size_t lt = nextSig(toks, i);
        if (!isPunct(toks, lt, '<'))
            continue;
        // Collect the type tokens to the matching '>'.
        int depth = 0;
        bool pointerish = false;
        std::vector<std::string> words;
        size_t j = lt;
        for (; j < toks.size(); ++j) {
            if (isPunct(toks, j, '<')) {
                ++depth;
            } else if (isPunct(toks, j, '>')) {
                if (--depth == 0)
                    break;
            } else if (isPunct(toks, j, '*') || isPunct(toks, j, '&')) {
                pointerish = true;
            } else if (toks[j].kind == Tok::Ident && toks[j].text != "std" &&
                       toks[j].text != "const" &&
                       toks[j].text != "volatile") {
                words.push_back(toks[j].text);
            }
        }
        if (pointerish || words.empty())
            continue;
        std::string type = words[0];
        for (size_t w = 1; w < words.size(); ++w)
            type += " " + words[w];
        if (kNarrowTypes.count(type) == 0)
            continue;
        out.push_back(
            {std::string(file), toks[i].line, "narrow-cast",
             "bare static_cast<" + type +
                 "> may drop bits; use nx::checked_cast<" + type +
                 "> (value-preserving) or nx::truncate_cast<" + type +
                 "> (intentional truncation)"});
    }
}

bool
isStatusType(const std::string &name)
{
    if (name == "CondCode" || name == "Csb")
        return true;
    auto endsWith = [&name](std::string_view suf) {
        return name.size() > suf.size() && name.ends_with(suf);
    };
    return endsWith("Status") || endsWith("Result");
}

const std::set<std::string, std::less<>> kDeclPrefix = {
    "inline", "static", "constexpr", "virtual", "explicit", "friend",
    "extern", "const",
};

void
checkNodiscard(const std::vector<Token> &toks, const Scope &sc,
               std::string_view file, std::vector<Finding> &out)
{
    if (!sc.isHeader)
        return;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Tok::Ident || !isStatusType(toks[i].text))
            continue;
        size_t name = nextSig(toks, i);
        if (name == static_cast<size_t>(-1) ||
            toks[name].kind != Tok::Ident)
            continue;
        if (!isPunct(toks, nextSig(toks, name), '('))
            continue;
        // Scan the declaration prefix backwards for [[nodiscard]],
        // past the qualifiers of a qualified type (`nx::CondCode`).
        bool nodiscard = false;
        bool declaration = true;
        size_t p = prevSig(toks, i);
        while (isPunct(toks, p, ':') && isPunct(toks, prevSig(toks, p), ':')) {
            p = prevSig(toks, prevSig(toks, p));
            if (p != static_cast<size_t>(-1) && toks[p].kind == Tok::Ident)
                p = prevSig(toks, p);
        }
        while (p != static_cast<size_t>(-1)) {
            const Token &t = toks[p];
            if (t.kind == Tok::Pp) {
                break;    // start of a declaration after a directive
            } else if (t.kind == Tok::Ident) {
                if (t.text == "nodiscard") {
                    nodiscard = true;
                } else if (kDeclPrefix.count(t.text) == 0) {
                    declaration = false;    // `struct X`, `return x`, ...
                    break;
                }
            } else if (t.kind == Tok::Punct) {
                char c = t.text[0];
                if (c == ';' || c == '{' || c == '}' || c == ':')
                    break;    // clean declaration start
                if (c == '[' || c == ']')
                    ;    // attribute brackets; keep scanning
                else {
                    declaration = false;    // parameter or expression
                    break;
                }
            } else {
                declaration = false;
                break;
            }
            p = prevSig(toks, p);
        }
        if (declaration && !nodiscard) {
            out.push_back({std::string(file), toks[i].line,
                           "nodiscard-status",
                           "function returning " + toks[i].text +
                               " must be [[nodiscard]] — dropping a "
                               "status is how output-cap bugs hide"});
        }
    }
}

/**
 * Concurrency primitives stay behind the dispatch layer. Spawning a
 * raw std::thread (or jthread/async) anywhere else in src/ forks the
 * threading model: such a thread is invisible to core::JobServer's
 * drain/stats machinery and to the TSan-gated concurrency suite.
 * detach() is worse — an orphaned thread can outlive shutdown — so it
 * is banned even inside the whitelisted files.
 */
void
checkRawThread(const std::vector<Token> &toks, const Scope &sc,
               std::string_view file, std::vector<Finding> &out)
{
    if (!sc.isSrc)
        return;
    // load_gen.cc's client threads are the *requesters* the JobServer
    // serves — modelling them through the server would be circular.
    bool whitelisted = sc.isUtil ||
                       sc.rel == "src/core/job_server.cc" ||
                       sc.rel == "src/core/job_server.h" ||
                       sc.rel == "src/load/load_gen.cc";
    for (size_t i = 0; i < toks.size(); ++i) {
        if (isIdent(toks, i, "detach")) {
            size_t p = prevSig(toks, i);
            bool member = isPunct(toks, p, '.') ||
                          (isPunct(toks, p, '>') &&
                           isPunct(toks, prevSig(toks, p), '-'));
            if (member && isPunct(toks, nextSig(toks, i), '(')) {
                out.push_back(
                    {std::string(file), toks[i].line, "raw-thread",
                     "`detach()` orphans a thread past shutdown; keep "
                     "threads joinable (core::JobServer drains on stop)"});
                continue;
            }
        }
        if (whitelisted)
            continue;
        if (!isIdent(toks, i, "std"))
            continue;
        size_t c1 = nextSig(toks, i);
        if (!isPunct(toks, c1, ':'))
            continue;
        size_t c2 = nextSig(toks, c1);
        if (!isPunct(toks, c2, ':'))
            continue;
        size_t name = nextSig(toks, c2);
        if (name == static_cast<size_t>(-1) ||
            toks[name].kind != Tok::Ident)
            continue;
        const std::string &id = toks[name].text;
        if (id != "thread" && id != "jthread" && id != "async")
            continue;
        out.push_back(
            {std::string(file), toks[name].line, "raw-thread",
             "direct std::" + id + " in library code; route "
             "concurrency through core::JobServer "
             "(src/core/job_server.h)"});
    }
}

/**
 * mutex-annotation: a mutex member in a src/ header is only useful if
 * the lock discipline is stated — some sibling member must carry
 * NXSIM_GUARDED_BY(<that mutex>). Matches owning members of the
 * std::mutex family and of nx::Mutex; references (`Mutex &mu_;`) are
 * borrowed capabilities and exempt. The wrapper in
 * src/util/thread_annotations.h carries the one audited allow().
 */
void
checkMutexAnnotation(const std::vector<Token> &toks, const Scope &sc,
                     std::string_view file, std::vector<Finding> &out)
{
    if (!sc.isSrc || !sc.isHeader)
        return;

    // Names X appearing as NXSIM_GUARDED_BY(X) / NXSIM_PT_GUARDED_BY(X).
    std::set<std::string> guarded;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks, i, "NXSIM_GUARDED_BY") &&
            !isIdent(toks, i, "NXSIM_PT_GUARDED_BY"))
            continue;
        size_t open = nextSig(toks, i);
        if (!isPunct(toks, open, '('))
            continue;
        size_t arg = nextSig(toks, open);
        if (arg != static_cast<size_t>(-1) &&
            toks[arg].kind == Tok::Ident)
            guarded.insert(toks[arg].text);
    }

    auto memberAfterType = [&](size_t typeEnd) -> size_t {
        // <type> <ident> then ';' / '{' / '=' is a member declaration;
        // anything else (reference, pointer, parameter) is not owning.
        size_t name = nextSig(toks, typeEnd);
        if (name == static_cast<size_t>(-1) ||
            toks[name].kind != Tok::Ident)
            return static_cast<size_t>(-1);
        size_t after = nextSig(toks, name);
        if (isPunct(toks, after, ';') || isPunct(toks, after, '{') ||
            isPunct(toks, after, '='))
            return name;
        return static_cast<size_t>(-1);
    };

    auto report = [&](size_t name) {
        const std::string &id = toks[name].text;
        if (guarded.count(id) != 0)
            return;
        out.push_back(
            {std::string(file), toks[name].line, "mutex-annotation",
             "mutex member '" + id + "' guards nothing here; annotate "
             "the data it protects with NXSIM_GUARDED_BY(" + id +
             ") (src/util/thread_annotations.h)"});
    };

    for (size_t i = 0; i < toks.size(); ++i) {
        // std::mutex family: std :: <mutex-ish> <ident> ;
        if (isIdent(toks, i, "std")) {
            size_t c1 = nextSig(toks, i);
            if (!isPunct(toks, c1, ':'))
                continue;
            size_t c2 = nextSig(toks, c1);
            if (!isPunct(toks, c2, ':'))
                continue;
            size_t type = nextSig(toks, c2);
            if (type == static_cast<size_t>(-1) ||
                toks[type].kind != Tok::Ident)
                continue;
            const std::string &id = toks[type].text;
            if (id != "mutex" && id != "recursive_mutex" &&
                id != "shared_mutex" && id != "timed_mutex" &&
                id != "recursive_timed_mutex" &&
                id != "shared_timed_mutex")
                continue;
            size_t name = memberAfterType(type);
            if (name != static_cast<size_t>(-1))
                report(name);
            continue;
        }
        // nx::Mutex (or bare Mutex inside namespace nx). Skip when the
        // previous token is ':' so `nx::Mutex` is not matched twice,
        // and when `Mutex` is being declared rather than used.
        if (isIdent(toks, i, "Mutex")) {
            size_t p = prevSig(toks, i);
            if (isPunct(toks, p, ':'))
                continue;    // qualified use, handled via the `nx` path
            if (p != static_cast<size_t>(-1) &&
                (isIdent(toks, p, "class") ||
                 isIdent(toks, p, "struct") ||
                 isIdent(toks, p, "friend")))
                continue;
            size_t name = memberAfterType(i);
            if (name != static_cast<size_t>(-1))
                report(name);
            continue;
        }
        if (isIdent(toks, i, "nx")) {
            size_t c1 = nextSig(toks, i);
            if (!isPunct(toks, c1, ':'))
                continue;
            size_t c2 = nextSig(toks, c1);
            if (!isPunct(toks, c2, ':'))
                continue;
            size_t type = nextSig(toks, c2);
            if (!isIdent(toks, type, "Mutex"))
                continue;
            size_t name = memberAfterType(type);
            if (name != static_cast<size_t>(-1))
                report(name);
        }
    }
}

void
checkTodoTags(const std::vector<Token> &toks, std::string_view file,
              std::vector<Finding> &out)
{
    for (const Token &t : toks) {
        if (t.kind != Tok::Comment)
            continue;
        const std::string &s = t.text;
        for (std::string_view word : {"TODO", "FIXME"}) {
            size_t pos = 0;
            while ((pos = s.find(word, pos)) != std::string::npos) {
                size_t end = pos + word.size();
                bool boundedLeft =
                    pos == 0 || !identChar(s[pos - 1]);
                bool boundedRight = end >= s.size() || !identChar(s[end]);
                pos = end;
                if (!boundedLeft || !boundedRight)
                    continue;
                // Require an immediate issue tag: TODO(#123).
                bool tagged = false;
                if (end + 2 < s.size() && s[end] == '(' &&
                    s[end + 1] == '#') {
                    size_t d = end + 2;
                    while (d < s.size() &&
                           std::isdigit(static_cast<unsigned char>(s[d])))
                        ++d;
                    tagged = d > end + 2 && d < s.size() && s[d] == ')';
                }
                if (!tagged) {
                    int line = t.line +
                        static_cast<int>(std::count(s.begin(),
                                                    s.begin() +
                                                        static_cast<long>(
                                                            end),
                                                    '\n'));
                    out.push_back({std::string(file), line, "todo-tag",
                                   std::string(word) +
                                       " needs an issue tag: " +
                                       std::string(word) + "(#123)"});
                }
            }
        }
    }
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

std::vector<Finding>
lintFile(std::string_view path, std::string_view content)
{
    Scope sc = scopeFor(path);
    std::vector<Token> toks = Lexer(content).run();

    std::vector<Finding> raw;
    std::vector<Allow> allows =
        nxcommon::collectAllows(toks, "nxlint", kRules, raw, path);

    checkIncludeGuard(toks, sc, path, raw);
    checkUsingNamespace(toks, sc, path, raw);
    checkBannedCalls(toks, sc, path, raw);
    checkBannedIncludes(toks, sc, path, raw);
    checkRawMemcpy(toks, sc, path, raw);
    checkNarrowCast(toks, sc, path, raw);
    checkNodiscard(toks, sc, path, raw);
    checkRawThread(toks, sc, path, raw);
    checkMutexAnnotation(toks, sc, path, raw);
    checkTodoTags(toks, path, raw);

    std::vector<Finding> out;
    nxcommon::applyAllows(std::move(raw), allows, path, out);
    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return out;
}

std::vector<Finding>
lintTree(const std::string &root)
{
    // Lint with tree-relative labels so scoping is stable no matter
    // where the tool is invoked from.
    nxcommon::TreeLoad tl =
        nxcommon::loadTree(root, {"src", "tools", "fuzz", "bench"});
    std::vector<Finding> out = std::move(tl.ioErrors);
    for (const nxcommon::SourceFile &sf : tl.files)
        for (Finding &f : lintFile(sf.path, sf.content))
            out.push_back(std::move(f));
    return out;
}

std::string
format(const Finding &f)
{
    return nxcommon::formatText(f);
}

} // namespace nxlint
