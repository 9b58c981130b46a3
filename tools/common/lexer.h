/**
 * @file
 * The shared C++ tokenizer behind the project's static-analysis
 * tools: all five analyzers lex with this one class (nxdeps reads its
 * includes from the Pp tokens), so every pass agrees byte-for-byte on
 * what is a comment, a string literal, a directive, or code.
 *
 * It is deliberately a lexer and nothing more: comments, string/char
 * literals (raw strings included), numbers, identifiers and whole
 * preprocessor directives (continuations joined). That is enough that
 * a banned identifier inside a string or comment never fires, and a
 * suppression comment is visible next to the code it excuses —
 * without taking a dependency on a real compiler frontend.
 *
 * A trailing `//` comment on a preprocessor line is emitted as its own
 * Comment token (the directive text stops before it), so a suppression
 * next to an `#include` reads exactly like one next to a statement.
 */

#ifndef NXSIM_COMMON_LEXER_H
#define NXSIM_COMMON_LEXER_H

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace nxlex {

enum class Tok
{
    Ident,
    Number,
    Punct,
    Str,
    Chr,
    Comment,
    Pp,         // one whole preprocessor directive (continuations joined)
};

struct Token
{
    Tok kind;
    std::string text;
    int line = 0;        // 1-based start line
    int endLine = 0;     // last physical line the token touches
    bool firstOnLine = false;
};

inline bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

inline bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

class Lexer
{
  public:
    explicit Lexer(std::string_view s) : s_(s) {}

    std::vector<Token>
    run()
    {
        std::vector<Token> out;
        while (i_ < s_.size()) {
            char c = s_[i_];
            if (c == '\n') {
                ++line_;
                atLineStart_ = true;
                ++i_;
                continue;
            }
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++i_;
                continue;
            }
            Token t;
            t.line = line_;
            t.firstOnLine = atLineStart_;
            atLineStart_ = false;
            if (c == '#') {
                t.kind = Tok::Pp;
                t.text = readPpLine();
            } else if (c == '/' && peek(1) == '/') {
                t.kind = Tok::Comment;
                t.text = readLineComment();
            } else if (c == '/' && peek(1) == '*') {
                t.kind = Tok::Comment;
                t.text = readBlockComment();
            } else if (c == '"') {
                t.kind = Tok::Str;
                t.text = readString();
            } else if (c == '\'') {
                t.kind = Tok::Chr;
                t.text = readChar();
            } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                       (c == '.' &&
                        std::isdigit(static_cast<unsigned char>(peek(1))))) {
                t.kind = Tok::Number;
                t.text = readNumber();
            } else if (identStart(c)) {
                t.kind = Tok::Ident;
                t.text = readIdent();
                // String/char literal prefixes: u8R"(... , L"...", etc.
                if ((i_ < s_.size()) &&
                    (s_[i_] == '"' || s_[i_] == '\'') &&
                    isLiteralPrefix(t.text)) {
                    if (s_[i_] == '\'') {
                        t.kind = Tok::Chr;
                        t.text += readChar();
                    } else if (t.text.back() == 'R') {
                        t.kind = Tok::Str;
                        t.text += readRawString();
                    } else {
                        t.kind = Tok::Str;
                        t.text += readString();
                    }
                }
            } else {
                t.kind = Tok::Punct;
                t.text = std::string(1, c);
                ++i_;
            }
            t.endLine = line_;
            out.push_back(std::move(t));
        }
        return out;
    }

  private:
    char
    peek(size_t ahead) const
    {
        return i_ + ahead < s_.size() ? s_[i_ + ahead] : '\0';
    }

    static bool
    isLiteralPrefix(const std::string &id)
    {
        return id == "u8" || id == "u" || id == "U" || id == "L" ||
               id == "R" || id == "u8R" || id == "uR" || id == "UR" ||
               id == "LR";
    }

    std::string
    readPpLine()
    {
        std::string text;
        bool inStr = false;
        bool inChr = false;
        while (i_ < s_.size()) {
            char c = s_[i_];
            if (c == '\\' && peek(1) == '\n') {
                text += ' ';
                i_ += 2;
                ++line_;
                continue;
            }
            if (c == '\n')
                break;
            if (inStr || inChr) {
                if (c == '\\' && peek(1) != '\0' && peek(1) != '\n') {
                    text += c;
                    text += s_[i_ + 1];
                    i_ += 2;
                    continue;
                }
                if (inStr && c == '"')
                    inStr = false;
                else if (inChr && c == '\'')
                    inChr = false;
            } else if (c == '"') {
                inStr = true;
            } else if (c == '\'') {
                inChr = true;
            } else if (c == '/' && peek(1) == '/') {
                // Trailing line comment: stop the directive here so the
                // comment lexes as its own token (allow() directives on
                // #include lines depend on this).
                break;
            } else if (c == '/' && peek(1) == '*') {
                // A block comment is one space to the preprocessor, and
                // the directive continues after it — even across lines.
                i_ += 2;
                while (i_ < s_.size() &&
                       !(s_[i_] == '*' && peek(1) == '/')) {
                    if (s_[i_] == '\n')
                        ++line_;
                    ++i_;
                }
                if (i_ < s_.size())
                    i_ += 2;
                text += ' ';
                continue;
            }
            text += c;
            ++i_;
        }
        return text;
    }

    std::string
    readLineComment()
    {
        size_t start = i_;
        while (i_ < s_.size() && s_[i_] != '\n')
            ++i_;
        return std::string(s_.substr(start, i_ - start));
    }

    std::string
    readBlockComment()
    {
        size_t start = i_;
        i_ += 2;
        while (i_ < s_.size()) {
            if (s_[i_] == '\n')
                ++line_;
            if (s_[i_] == '*' && peek(1) == '/') {
                i_ += 2;
                break;
            }
            ++i_;
        }
        return std::string(s_.substr(start, i_ - start));
    }

    std::string
    readString()
    {
        size_t start = i_;
        ++i_;
        while (i_ < s_.size() && s_[i_] != '"') {
            if (s_[i_] == '\\' && i_ + 1 < s_.size())
                ++i_;
            if (s_[i_] == '\n')
                ++line_;    // ill-formed C++, but keep line counts sane
            ++i_;
        }
        if (i_ < s_.size())
            ++i_;
        return std::string(s_.substr(start, i_ - start));
    }

    std::string
    readRawString()
    {
        size_t start = i_;
        ++i_;    // opening quote
        std::string delim;
        while (i_ < s_.size() && s_[i_] != '(')
            delim += s_[i_++];
        std::string close = ")" + delim + "\"";
        size_t end = s_.find(close, i_);
        if (end == std::string_view::npos) {
            i_ = s_.size();
        } else {
            for (size_t k = i_; k < end; ++k)
                if (s_[k] == '\n')
                    ++line_;
            i_ = end + close.size();
        }
        return std::string(s_.substr(start, i_ - start));
    }

    std::string
    readChar()
    {
        size_t start = i_;
        ++i_;
        while (i_ < s_.size() && s_[i_] != '\'') {
            if (s_[i_] == '\\' && i_ + 1 < s_.size())
                ++i_;
            ++i_;
        }
        if (i_ < s_.size())
            ++i_;
        return std::string(s_.substr(start, i_ - start));
    }

    std::string
    readNumber()
    {
        size_t start = i_;
        while (i_ < s_.size()) {
            char c = s_[i_];
            if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                c == '\'') {
                ++i_;
                continue;
            }
            if ((c == '+' || c == '-') && i_ > start) {
                char p = s_[i_ - 1];
                if (p == 'e' || p == 'E' || p == 'p' || p == 'P') {
                    ++i_;
                    continue;
                }
            }
            break;
        }
        return std::string(s_.substr(start, i_ - start));
    }

    std::string
    readIdent()
    {
        size_t start = i_;
        while (i_ < s_.size() && identChar(s_[i_]))
            ++i_;
        return std::string(s_.substr(start, i_ - start));
    }

    std::string_view s_;
    size_t i_ = 0;
    int line_ = 1;
    bool atLineStart_ = true;
};

/** Trim ASCII whitespace from both ends (shared by the rule parsers). */
inline std::string_view
trim(std::string_view v)
{
    while (!v.empty() &&
           std::isspace(static_cast<unsigned char>(v.front())))
        v.remove_prefix(1);
    while (!v.empty() && std::isspace(static_cast<unsigned char>(v.back())))
        v.remove_suffix(1);
    return v;
}

} // namespace nxlex

#endif // NXSIM_COMMON_LEXER_H
