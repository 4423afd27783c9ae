#include "php/lexer.h"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <string>
#include <type_traits>

#include "obs/counters.h"
#include "util/strings.h"

namespace phpsafe::php {

namespace {

// Byte classes. The table is the lexer's only character classification, so
// lexing does not depend on the C locale: ASCII letters, '_' and every byte
// >= 0x80 start identifiers, as PHP's own scanner has it.
enum ByteClass : uint8_t {
    kIdentStart = 1 << 0,
    kIdentChar = 1 << 1,
    kDigit = 1 << 2,
    kHexDigit = 1 << 3,
    kSpace = 1 << 4,   ///< ' ' \t \n \v \f \r
    kAlpha = 1 << 5,   ///< ASCII letters (cast names)
};

constexpr std::array<uint8_t, 256> kByteClasses = [] {
    std::array<uint8_t, 256> table{};
    for (int c = 0; c < 256; ++c) {
        uint8_t cls = 0;
        const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
        const bool digit = c >= '0' && c <= '9';
        if (alpha) cls |= kAlpha;
        if (alpha || c == '_' || c >= 0x80) cls |= kIdentStart | kIdentChar;
        if (digit) cls |= kDigit | kIdentChar | kHexDigit;
        if ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')) cls |= kHexDigit;
        if (c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
            c == '\r')
            cls |= kSpace;
        table[static_cast<size_t>(c)] = cls;
    }
    return table;
}();

constexpr bool in_class(char c, uint8_t cls) noexcept {
    return (kByteClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

/// First index at or after `i` that is not an identifier byte.
size_t scan_ident(std::string_view text, size_t i) noexcept {
    while (i < text.size() && in_class(text[i], kIdentChar)) ++i;
    return i;
}

constexpr size_t kMaxKeywordLength = 12;  // include_once, require_once
constexpr size_t kMaxCastLength = 7;      // integer, boolean

/// ASCII-lowercases `s` into `out` (room for s.size() bytes); returns
/// whether any byte changed.
bool fold_into(std::string_view s, char* out) noexcept {
    bool changed = false;
    for (size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (c >= 'A' && c <= 'Z') {
            c = static_cast<char>(c - 'A' + 'a');
            changed = true;
        }
        out[i] = c;
    }
    return changed;
}

bool one_of(std::string_view word,
            std::initializer_list<std::string_view> candidates) noexcept {
    for (const std::string_view c : candidates)
        if (c[0] == word[0] && c == word) return true;
    return false;
}

/// PHP's reserved words, matched by length and then by bytes. `word` is
/// already lowercase.
bool is_keyword(std::string_view word) noexcept {
    switch (word.size()) {
        case 2: return one_of(word, {"as", "do", "fn", "if", "or"});
        case 3:
            return one_of(word,
                          {"and", "die", "for", "new", "try", "use", "var", "xor"});
        case 4:
            return one_of(word,
                          {"case", "echo", "else", "eval", "exit", "goto", "list"});
        case 5:
            return one_of(word, {"array", "break", "catch", "class", "clone",
                                 "const", "empty", "endif", "final", "isset",
                                 "match", "print", "throw", "trait", "unset",
                                 "while", "yield"});
        case 6:
            return one_of(word, {"elseif", "endfor", "global", "public",
                                 "return", "static", "switch"});
        case 7:
            return one_of(word, {"declare", "default", "extends", "finally",
                                 "foreach", "include", "private", "require"});
        case 8:
            return one_of(word, {"abstract", "callable", "continue",
                                 "endwhile", "function", "readonly"});
        case 9:
            return one_of(word, {"endswitch", "insteadof", "interface",
                                 "namespace", "protected"});
        case 10:
            return one_of(word, {"enddeclare", "endforeach", "implements",
                                 "instanceof"});
        case 12: return one_of(word, {"include_once", "require_once"});
        default: return false;
    }
}

/// The names `(name)` casts accept. `word` is already lowercase.
bool is_cast_name(std::string_view word) noexcept {
    switch (word.size()) {
        case 3: return word == "int";
        case 4: return one_of(word, {"bool", "real"});
        case 5: return one_of(word, {"float", "array", "unset"});
        case 6: return one_of(word, {"double", "string", "object", "binary"});
        case 7: return one_of(word, {"integer", "boolean"});
        default: return false;
    }
}

int hex_value(char c) noexcept {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return c - 'A' + 10;
}

// The decoders hand each output byte to `put`, so one definition both
// measures a decoded string and writes it straight into the arena.

/// Decodes escape sequences of a single-quoted string body.
template <typename Put>
void decode_single_quoted(std::string_view body, Put&& put) {
    for (size_t i = 0; i < body.size(); ++i) {
        if (body[i] == '\\' && i + 1 < body.size() &&
            (body[i + 1] == '\\' || body[i + 1] == '\'')) {
            put(body[++i]);
        } else {
            put(body[i]);
        }
    }
}

/// Decodes escape sequences of a double-quoted string literal segment.
template <typename Put>
void decode_double_quoted(std::string_view body, Put&& put) {
    for (size_t i = 0; i < body.size(); ++i) {
        if (body[i] != '\\' || i + 1 >= body.size()) {
            put(body[i]);
            continue;
        }
        const char c = body[++i];
        switch (c) {
            case 'n': put('\n'); break;
            case 't': put('\t'); break;
            case 'r': put('\r'); break;
            case 'v': put('\v'); break;
            case 'f': put('\f'); break;
            case 'e': put('\x1b'); break;
            case '\\': put('\\'); break;
            case '$': put('$'); break;
            case '"': put('"'); break;
            case 'x': {
                int value = 0;
                int digits = 0;
                while (digits < 2 && i + 1 < body.size() &&
                       in_class(body[i + 1], kHexDigit)) {
                    value = value * 16 + hex_value(body[++i]);
                    ++digits;
                }
                if (digits == 0) {
                    put('\\');
                    put('x');
                } else {
                    put(static_cast<char>(value));
                }
                break;
            }
            default:
                if (c >= '0' && c <= '7') {
                    int value = c - '0';
                    int digits = 1;
                    while (digits < 3 && i + 1 < body.size() &&
                           body[i + 1] >= '0' && body[i + 1] <= '7') {
                        value = value * 8 + (body[++i] - '0');
                        ++digits;
                    }
                    put(static_cast<char>(value & 0xFF));
                } else {
                    put('\\');
                    put(c);
                }
        }
    }
}

/// Stores `decode(body)` in the arena at its exact size: one pass measures,
/// the second writes in place, so no temporary string is built.
template <typename Decode>
std::string_view store_decoded(Arena& arena, std::string_view body,
                               Decode decode) {
    size_t size = 0;
    decode(body, [&size](char) { ++size; });
    return arena.store_with(size, [&](char* out) {
        decode(body, [&out](char c) { *out++ = c; });
    });
}

/// Stores the concatenation of `pieces` in the arena.
std::string_view store_concat(Arena& arena,
                              std::initializer_list<std::string_view> pieces) {
    size_t size = 0;
    for (const std::string_view piece : pieces) size += piece.size();
    return arena.store_with(size, [&](char* out) {
        for (const std::string_view piece : pieces)
            out = std::copy(piece.begin(), piece.end(), out);
    });
}

/// One string's parts while they are scanned: on the stack up to kInline
/// parts, on the heap beyond (only adversarial input has that many). The
/// lexer then copies them into the arena at their exact count.
class PartBuffer {
public:
    void push(StringPart part) {
        if (size_ < kInline) {
            inline_[size_] = part;
        } else {
            if (spill_.empty()) spill_.assign(inline_, inline_ + kInline);
            spill_.push_back(part);
        }
        ++size_;
    }
    size_t size() const noexcept { return size_; }
    const StringPart* begin() const noexcept {
        return size_ <= kInline ? inline_ : spill_.data();
    }
    const StringPart* end() const noexcept { return begin() + size_; }

private:
    static constexpr size_t kInline = 32;
    StringPart inline_[kInline];
    size_t size_ = 0;
    std::vector<StringPart> spill_;
};

static_assert(std::is_trivially_copyable_v<StringPart>);

}  // namespace

const char* to_string(TokenKind kind) {
    switch (kind) {
        case TokenKind::kEndOfFile: return "eof";
        case TokenKind::kInlineHtml: return "inline_html";
        case TokenKind::kOpenTag: return "open_tag";
        case TokenKind::kOpenTagWithEcho: return "open_tag_with_echo";
        case TokenKind::kCloseTag: return "close_tag";
        case TokenKind::kVariable: return "variable";
        case TokenKind::kIdentifier: return "identifier";
        case TokenKind::kKeyword: return "keyword";
        case TokenKind::kIntLiteral: return "int";
        case TokenKind::kFloatLiteral: return "float";
        case TokenKind::kSingleQuotedString: return "sq_string";
        case TokenKind::kDoubleQuotedString: return "dq_string";
        case TokenKind::kHeredoc: return "heredoc";
        case TokenKind::kNowdoc: return "nowdoc";
        case TokenKind::kComment: return "comment";
        case TokenKind::kCast: return "cast";
        case TokenKind::kArrow: return "->";
        case TokenKind::kNullsafeArrow: return "?->";
        case TokenKind::kDoubleColon: return "::";
        case TokenKind::kDoubleArrow: return "=>";
        case TokenKind::kInc: return "++";
        case TokenKind::kDec: return "--";
        case TokenKind::kPow: return "**";
        case TokenKind::kEq: return "==";
        case TokenKind::kNotEq: return "!=";
        case TokenKind::kIdentical: return "===";
        case TokenKind::kNotIdentical: return "!==";
        case TokenKind::kSpaceship: return "<=>";
        case TokenKind::kLtEq: return "<=";
        case TokenKind::kGtEq: return ">=";
        case TokenKind::kAndAnd: return "&&";
        case TokenKind::kOrOr: return "||";
        case TokenKind::kCoalesce: return "??";
        case TokenKind::kShiftLeft: return "<<";
        case TokenKind::kShiftRight: return ">>";
        case TokenKind::kPlusEq: return "+=";
        case TokenKind::kMinusEq: return "-=";
        case TokenKind::kMulEq: return "*=";
        case TokenKind::kDivEq: return "/=";
        case TokenKind::kConcatEq: return ".=";
        case TokenKind::kModEq: return "%=";
        case TokenKind::kPowEq: return "**=";
        case TokenKind::kAndEq: return "&=";
        case TokenKind::kOrEq: return "|=";
        case TokenKind::kXorEq: return "^=";
        case TokenKind::kShlEq: return "<<=";
        case TokenKind::kShrEq: return ">>=";
        case TokenKind::kCoalesceEq: return "?\?=";
        case TokenKind::kEllipsis: return "...";
        case TokenKind::kPlus: return "+";
        case TokenKind::kMinus: return "-";
        case TokenKind::kStar: return "*";
        case TokenKind::kSlash: return "/";
        case TokenKind::kPercent: return "%";
        case TokenKind::kDot: return ".";
        case TokenKind::kAssign: return "=";
        case TokenKind::kLt: return "<";
        case TokenKind::kGt: return ">";
        case TokenKind::kNot: return "!";
        case TokenKind::kQuestion: return "?";
        case TokenKind::kColon: return ":";
        case TokenKind::kSemicolon: return ";";
        case TokenKind::kComma: return ",";
        case TokenKind::kLParen: return "(";
        case TokenKind::kRParen: return ")";
        case TokenKind::kLBrace: return "{";
        case TokenKind::kRBrace: return "}";
        case TokenKind::kLBracket: return "[";
        case TokenKind::kRBracket: return "]";
        case TokenKind::kAmp: return "&";
        case TokenKind::kPipe: return "|";
        case TokenKind::kCaret: return "^";
        case TokenKind::kTilde: return "~";
        case TokenKind::kAt: return "@";
        case TokenKind::kDollar: return "$";
        case TokenKind::kBacktick: return "`";
        case TokenKind::kBackslash: return "\\";
    }
    return "?";
}

Lexer::Lexer(const SourceFile& file, Arena& arena, DiagnosticSink& sink,
             Options options)
    : file_(file),
      text_(file.text()),
      arena_(arena),
      sink_(sink),
      options_(options) {}

void Lexer::advance_to(size_t end) noexcept {
    line_ += static_cast<int>(
        std::count(text_.begin() + pos_, text_.begin() + end, '\n'));
    pos_ = end;
}

Token Lexer::make(TokenKind kind, std::string_view text, int line) noexcept {
    Token t;
    t.kind = kind;
    t.text = text;
    t.line = line;
    return t;
}

Token Lexer::op(TokenKind kind, size_t length) noexcept {
    const size_t start = pos_;
    pos_ += length;
    return make(kind, slice(start), line_);
}

std::vector<Token> Lexer::tokenize() {
    std::vector<Token> out;
    // Plugin code averages one token per ~6 source bytes; one up-front
    // reservation replaces the dozen-plus geometric growth reallocations a
    // multi-thousand-token file would otherwise pay.
    out.reserve(text_.size() / 6 + 16);
    while (!at_end()) {
        if (mode_ == Mode::kHtml) {
            lex_html(out);
        } else {
            lex_php_token(out);
        }
    }
    out.push_back(make(TokenKind::kEndOfFile, "", line_));
    obs::Counters& counters = obs::tls();
    counters.tokens_lexed += out.size();
    counters.alloc_string_bytes_saved += bytes_saved_;
    bytes_saved_ = 0;
    return out;
}

void Lexer::lex_html(std::vector<Token>& out) {
    const int start_line = line_;
    const size_t start = pos_;
    advance_to(std::min(text_.find("<?", pos_), text_.size()));
    const std::string_view html = slice(start);
    if (!html.empty()) {
        out.push_back(make(TokenKind::kInlineHtml, html, start_line));
        bytes_saved_ += html.size();
    }
    if (at_end()) return;
    // At "<?": the long tag, the echo tag, or the short open tag.
    if (peek(2) == 'p' && peek(3) == 'h' && peek(4) == 'p') {
        out.push_back(op(TokenKind::kOpenTag, 5));
    } else if (peek(2) == '=') {
        out.push_back(op(TokenKind::kOpenTagWithEcho, 3));
    } else {
        out.push_back(op(TokenKind::kOpenTag, 2));
    }
    mode_ = Mode::kPhp;
}

void Lexer::lex_php_token(std::vector<Token>& out) {
    while (!at_end() && in_class(text_[pos_], kSpace)) {
        if (text_[pos_] == '\n') ++line_;
        ++pos_;
    }
    if (at_end()) return;

    const char c = text_[pos_];
    if (in_class(c, kIdentStart)) {
        out.push_back(lex_identifier_or_keyword());
        return;
    }
    if (in_class(c, kDigit)) {
        out.push_back(lex_number());
        return;
    }
    switch (c) {
        case '$':
            if (in_class(peek(1), kIdentStart)) {
                out.push_back(lex_variable());
                return;
            }
            break;
        case '?':
            if (peek(1) == '>') {
                out.push_back(op(TokenKind::kCloseTag, 2));
                // PHP swallows a single newline immediately after the close tag.
                if (peek() == '\n') advance_to(pos_ + 1);
                mode_ = Mode::kHtml;
                return;
            }
            break;
        case '/':
            if (peek(1) == '/' || peek(1) == '*') {
                lex_comment(out);
                return;
            }
            break;
        case '#':
            if (peek(1) == '[') {
                skip_attribute();
            } else {
                lex_comment(out);
            }
            return;
        case '.':
            if (in_class(peek(1), kDigit)) {
                out.push_back(lex_number());
                return;
            }
            break;
        case '\'':
            out.push_back(lex_single_quoted());
            return;
        case '"':
            out.push_back(lex_double_quoted('"', TokenKind::kDoubleQuotedString));
            return;
        case '`':
            // Shell-exec operator: lex the body like a double-quoted string so
            // interpolation is visible to the analysis (a potential sink).
            out.push_back(lex_double_quoted('`', TokenKind::kDoubleQuotedString));
            return;
        case '<':
            if (peek(1) == '<' && peek(2) == '<') {
                out.push_back(lex_heredoc());
                return;
            }
            break;
        case '(':
            if (try_lex_cast(out)) return;
            break;
        default:
            break;
    }
    out.push_back(lex_operator());
}

void Lexer::skip_attribute() {
    // PHP 8 attribute "#[...]": skip to the matching ']'.
    int depth = 0;
    size_t i = pos_;
    while (i < text_.size()) {
        const char a = text_[i++];
        if (a == '[') ++depth;
        else if (a == ']' && --depth == 0) break;
    }
    advance_to(i);
}

Token Lexer::lex_variable() {
    const size_t start = pos_;
    pos_ = scan_ident(text_, pos_ + 1);  // past the '$'
    bytes_saved_ += pos_ - start;
    return make(TokenKind::kVariable, slice(start), line_);
}

Token Lexer::lex_identifier_or_keyword() {
    const size_t start = pos_;
    pos_ = scan_ident(text_, pos_);
    const std::string_view raw = slice(start);
    if (raw.size() <= kMaxKeywordLength) {
        char folded[kMaxKeywordLength];
        const bool had_upper = fold_into(raw, folded);
        const std::string_view lower(folded, raw.size());
        if (is_keyword(lower)) {
            if (had_upper)
                return make(TokenKind::kKeyword, arena_.store(lower), line_);
            bytes_saved_ += raw.size();
            return make(TokenKind::kKeyword, raw, line_);
        }
    }
    // Identifier text keeps its case and stays zero-copy.
    bytes_saved_ += raw.size();
    return make(TokenKind::kIdentifier, raw, line_);
}

Token Lexer::lex_number() {
    const size_t start = pos_;
    bool is_float = false;
    auto skip = [this](uint8_t cls, bool underscores) {
        while (!at_end() && (in_class(text_[pos_], cls) ||
                             (underscores && text_[pos_] == '_')))
            ++pos_;
    };
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        pos_ += 2;
        skip(kHexDigit, true);
    } else if (peek() == '0' && (peek(1) == 'b' || peek(1) == 'B')) {
        pos_ += 2;
        while (!at_end() && (peek() == '0' || peek() == '1' || peek() == '_'))
            ++pos_;
    } else {
        skip(kDigit, true);
        if (peek() == '.' && in_class(peek(1), kDigit)) {
            is_float = true;
            ++pos_;
            skip(kDigit, false);
        }
        if (peek() == 'e' || peek() == 'E') {
            const size_t look = (peek(1) == '+' || peek(1) == '-') ? 2 : 1;
            if (in_class(peek(look), kDigit)) {
                is_float = true;
                ++pos_;
                if (peek() == '+' || peek() == '-') ++pos_;
                skip(kDigit, false);
            }
        }
    }
    return make(is_float ? TokenKind::kFloatLiteral : TokenKind::kIntLiteral,
                slice(start), line_);
}

std::string_view Lexer::scan_quoted_body(char quote, bool escapes_any) {
    const int start_line = line_;
    const size_t body_start = pos_ + 1;
    size_t i = body_start;
    bool terminated = false;
    while (i < text_.size()) {
        const char c = text_[i];
        if (c == '\\' && i + 1 < text_.size() &&
            (escapes_any || text_[i + 1] == '\\' || text_[i + 1] == quote)) {
            i += 2;
            continue;
        }
        if (c == quote) {
            terminated = true;
            break;
        }
        ++i;
    }
    advance_to(i);
    const std::string_view body = slice(body_start);
    if (terminated) {
        ++pos_;  // closing quote
    } else {
        sink_.add(Severity::kError, {file_.name(), start_line},
                  "unterminated string literal");
    }
    return body;
}

Token Lexer::lex_single_quoted() {
    const int start_line = line_;
    const size_t tok_start = pos_;
    const std::string_view body = scan_quoted_body('\'', false);
    Token t = make(TokenKind::kSingleQuotedString, slice(tok_start), start_line);
    if (body.find('\\') == std::string_view::npos) {
        t.value = body;  // nothing to decode: reuse the source bytes
        bytes_saved_ += body.size();
    } else {
        t.value = store_decoded(arena_, body, [](std::string_view b, auto&& put) {
            decode_single_quoted(b, put);
        });
    }
    return t;
}

Token Lexer::lex_double_quoted(char quote, TokenKind kind) {
    const int start_line = line_;
    const size_t tok_start = pos_;
    const std::string_view body = scan_quoted_body(quote, true);
    Token t = make(kind, slice(tok_start), start_line);
    scan_interpolation(body, t);
    return t;
}

Token Lexer::lex_heredoc() {
    const int start_line = line_;
    pos_ += 3;  // "<<<"
    while (peek() == ' ' || peek() == '\t') ++pos_;
    bool nowdoc = false;
    bool quoted = false;
    if (peek() == '\'') {
        nowdoc = true;
        ++pos_;
    } else if (peek() == '"') {
        quoted = true;
        ++pos_;
    }
    const size_t label_start = pos_;
    pos_ = scan_ident(text_, pos_);
    const std::string_view label = slice(label_start);
    if ((nowdoc && peek() == '\'') || (quoted && peek() == '"')) ++pos_;
    // Moves past the end of the current line, newline included.
    auto next_line = [this] {
        const size_t eol = text_.find('\n', pos_);
        advance_to(eol == std::string_view::npos ? text_.size() : eol + 1);
    };
    next_line();

    const size_t body_start = pos_;
    size_t body_end = pos_;
    bool terminated = false;
    while (!at_end()) {
        // Check for terminator at line start (PHP 7.3 allows indentation).
        size_t probe = pos_;
        while (probe < text_.size() && (text_[probe] == ' ' || text_[probe] == '\t'))
            ++probe;
        if (text_.substr(probe, label.size()) == label) {
            const size_t after = probe + label.size();
            const char next = after < text_.size() ? text_[after] : '\n';
            if (!in_class(next, kIdentChar)) {
                body_end = pos_;
                pos_ = after;  // up to and including the label
                terminated = true;
                break;
            }
        }
        next_line();
        body_end = pos_;
    }
    if (!terminated)
        sink_.add(Severity::kError, {file_.name(), start_line},
                  "unterminated heredoc '" + std::string(label) + "'");
    std::string_view body = text_.substr(body_start, body_end - body_start);
    if (!body.empty() && body.back() == '\n') body.remove_suffix(1);

    Token t = make(nowdoc ? TokenKind::kNowdoc : TokenKind::kHeredoc, body,
                   start_line);
    if (nowdoc) {
        t.value = body;
        bytes_saved_ += body.size();
    } else {
        scan_interpolation(body, t);
    }
    return t;
}

void Lexer::scan_interpolation(std::string_view body, Token& token) {
    // `body` is a slice of the retained source buffer, so literal runs and
    // embedded-expression sources that need no transformation are kept as
    // subviews; only decoded escapes and synthesized expressions (${name},
    // re-quoted indexes) are copied into the arena.
    PartBuffer parts;
    size_t seg_start = 0;
    auto flush_literal = [&](size_t end_pos) {
        if (end_pos <= seg_start) return;
        const std::string_view raw = body.substr(seg_start, end_pos - seg_start);
        if (raw.find('\\') == std::string_view::npos) {
            parts.push({StringPart::Kind::kLiteral, raw});
            bytes_saved_ += raw.size();
        } else {
            parts.push({StringPart::Kind::kLiteral,
                        store_decoded(arena_, raw, [](std::string_view b, auto&& put) {
                            decode_double_quoted(b, put);
                        })});
        }
    };
    auto add_expr = [&](size_t lit_end, std::string_view expr) {
        flush_literal(lit_end);
        parts.push({StringPart::Kind::kExpression, expr});
    };

    size_t i = 0;
    while (i < body.size()) {
        const char c = body[i];
        const char next = i + 1 < body.size() ? body[i + 1] : '\0';
        if (c == '\\' && i + 1 < body.size()) {
            i += 2;
            continue;
        }
        // Complex syntax: {$expr}
        if (c == '{' && next == '$') {
            size_t j = i + 1;
            int depth = 1;
            while (j < body.size() && depth > 0) {
                if (body[j] == '{') ++depth;
                if (body[j] == '}') {
                    --depth;
                    if (depth == 0) break;
                }
                ++j;
            }
            add_expr(i, body.substr(i + 1, j - (i + 1)));
            bytes_saved_ += j - (i + 1);
            seg_start = i = (j < body.size()) ? j + 1 : j;
            continue;
        }
        if (c != '$') {
            ++i;
            continue;
        }
        // ${name} syntax.
        if (next == '{') {
            size_t j = i + 2;
            while (j < body.size() && body[j] != '}') ++j;
            add_expr(i, store_concat(arena_, {"$", body.substr(i + 2, j - (i + 2))}));
            seg_start = i = (j < body.size()) ? j + 1 : j;
            continue;
        }
        // Simple syntax: $name, $name->prop, $name[index]
        if (i + 1 < body.size() && in_class(next, kIdentStart)) {
            size_t j = scan_ident(body, i + 1);
            size_t expr_end = j;
            std::string_view synthesized;
            if (j + 1 < body.size() && body[j] == '-' && body[j + 1] == '>' &&
                j + 2 < body.size() && in_class(body[j + 2], kIdentStart)) {
                j = scan_ident(body, j + 2);
                expr_end = j;
            } else if (j < body.size() && body[j] == '[') {
                size_t k = j + 1;
                while (k < body.size() && body[k] != ']') ++k;
                if (k < body.size()) {
                    const std::string_view name = body.substr(i, j - i);
                    const std::string_view index = body.substr(j + 1, k - (j + 1));
                    const std::string_view idx = trim(index);
                    const bool numeric =
                        !idx.empty() && std::all_of(idx.begin(), idx.end(), [](char d) {
                            return in_class(d, kDigit);
                        });
                    if (!idx.empty() && (idx.front() == '\'' || idx.front() == '"' ||
                                         idx.front() == '$' || numeric)) {
                        if (idx.size() == index.size()) {
                            // "$name[idx]" is already verbatim in the source.
                            expr_end = k + 1;
                        } else {
                            synthesized = store_concat(arena_, {name, "[", idx, "]"});
                        }
                    } else {
                        // PHP's simple syntax allows unquoted string keys.
                        synthesized = store_concat(arena_, {name, "['", idx, "']"});
                    }
                    j = k + 1;
                }
            }
            if (!synthesized.empty()) {
                add_expr(i, synthesized);
            } else {
                add_expr(i, body.substr(i, expr_end - i));
                bytes_saved_ += expr_end - i;
            }
            seg_start = i = j;
            continue;
        }
        ++i;
    }
    flush_literal(body.size());
    if (parts.size() == 0) return;  // empty body: no parts, empty value

    // The parts move into the arena at their exact count.
    auto* array = static_cast<StringPart*>(arena_.allocate(
        parts.size() * sizeof(StringPart), alignof(StringPart)));
    std::copy(parts.begin(), parts.end(), array);
    token.parts = StringParts(arena_.create<std::span<const StringPart>>(
        array, parts.size()));

    // The decoded value is the concatenation of literal parts (expressions
    // contribute nothing to the static value). Single-literal tokens — the
    // overwhelmingly common case — reuse the part's view.
    size_t literal_count = 0;
    size_t literal_bytes = 0;
    std::string_view single;
    for (const StringPart& p : parts) {
        if (p.kind != StringPart::Kind::kLiteral) continue;
        ++literal_count;
        literal_bytes += p.text.size();
        single = p.text;
    }
    if (literal_count == 1) {
        token.value = single;
    } else if (literal_count > 1) {
        token.value = arena_.store_with(literal_bytes, [&](char* out) {
            for (const StringPart& p : parts)
                if (p.kind == StringPart::Kind::kLiteral)
                    out = std::copy(p.text.begin(), p.text.end(), out);
        });
    }
}

void Lexer::lex_comment(std::vector<Token>& out) {
    const int start_line = line_;
    const size_t start = pos_;
    if (peek() == '/' && peek(1) == '*') {  // "/* ... */"
        const size_t close = text_.find("*/", pos_ + 2);
        if (close == std::string_view::npos) {
            advance_to(text_.size());
            sink_.add(Severity::kWarning, {file_.name(), start_line},
                      "unterminated block comment");
        } else {
            advance_to(close + 2);
        }
    } else {
        // Line comment ("//" or "#"): ends at newline or before '?>'.
        size_t i = pos_ + (peek() == '/' ? 2 : 1);
        while (i < text_.size() && text_[i] != '\n' &&
               !(text_[i] == '?' && i + 1 < text_.size() && text_[i + 1] == '>'))
            ++i;
        pos_ = i;
    }
    if (options_.keep_comments) {
        out.push_back(make(TokenKind::kComment, slice(start), start_line));
        bytes_saved_ += pos_ - start;
    }
}

bool Lexer::try_lex_cast(std::vector<Token>& out) {
    // Lookahead: "(" ws* castname ws* ")".
    auto skip_blanks = [this](size_t i) {
        while (i < text_.size() && (text_[i] == ' ' || text_[i] == '\t')) ++i;
        return i;
    };
    size_t probe = skip_blanks(pos_ + 1);
    const size_t name_start = probe;
    while (probe < text_.size() && in_class(text_[probe], kAlpha)) ++probe;
    const std::string_view name = text_.substr(name_start, probe - name_start);
    probe = skip_blanks(probe);
    if (probe >= text_.size() || text_[probe] != ')') return false;
    if (name.size() > kMaxCastLength) return false;
    char folded[kMaxCastLength];
    const bool had_upper = fold_into(name, folded);
    const std::string_view lower(folded, name.size());
    if (!is_cast_name(lower)) return false;

    const size_t tok_start = pos_;
    pos_ = probe + 1;
    Token t = make(TokenKind::kCast, slice(tok_start), line_);
    t.value = had_upper ? arena_.store(lower) : name;
    out.push_back(t);
    return true;
}

Token Lexer::lex_operator() {
    // Maximal munch keyed on the first byte; each branch tries its longest
    // operator first, so "<<=" wins over "<=>" over "<>"/"<="/"<<", "??="
    // over "?->", and "..." over ".=".
    const char c = peek();
    const char c1 = peek(1);
    switch (c) {
        case '<':
            if (c1 == '<') return peek(2) == '=' ? op(TokenKind::kShlEq, 3)
                                                 : op(TokenKind::kShiftLeft, 2);
            if (c1 == '=') return peek(2) == '>' ? op(TokenKind::kSpaceship, 3)
                                                 : op(TokenKind::kLtEq, 2);
            if (c1 == '>') return op(TokenKind::kNotEq, 2);
            return op(TokenKind::kLt, 1);
        case '>':
            if (c1 == '>') return peek(2) == '=' ? op(TokenKind::kShrEq, 3)
                                                 : op(TokenKind::kShiftRight, 2);
            if (c1 == '=') return op(TokenKind::kGtEq, 2);
            return op(TokenKind::kGt, 1);
        case '*':
            if (c1 == '*') return peek(2) == '=' ? op(TokenKind::kPowEq, 3)
                                                 : op(TokenKind::kPow, 2);
            if (c1 == '=') return op(TokenKind::kMulEq, 2);
            return op(TokenKind::kStar, 1);
        case '=':
            if (c1 == '=') return peek(2) == '=' ? op(TokenKind::kIdentical, 3)
                                                 : op(TokenKind::kEq, 2);
            if (c1 == '>') return op(TokenKind::kDoubleArrow, 2);
            return op(TokenKind::kAssign, 1);
        case '!':
            if (c1 == '=') return peek(2) == '=' ? op(TokenKind::kNotIdentical, 3)
                                                 : op(TokenKind::kNotEq, 2);
            return op(TokenKind::kNot, 1);
        case '?':
            if (c1 == '?') return peek(2) == '=' ? op(TokenKind::kCoalesceEq, 3)
                                                 : op(TokenKind::kCoalesce, 2);
            if (c1 == '-' && peek(2) == '>') return op(TokenKind::kNullsafeArrow, 3);
            return op(TokenKind::kQuestion, 1);
        case '.':
            if (c1 == '.' && peek(2) == '.') return op(TokenKind::kEllipsis, 3);
            if (c1 == '=') return op(TokenKind::kConcatEq, 2);
            return op(TokenKind::kDot, 1);
        case '-':
            if (c1 == '>') return op(TokenKind::kArrow, 2);
            if (c1 == '-') return op(TokenKind::kDec, 2);
            if (c1 == '=') return op(TokenKind::kMinusEq, 2);
            return op(TokenKind::kMinus, 1);
        case '+':
            if (c1 == '+') return op(TokenKind::kInc, 2);
            if (c1 == '=') return op(TokenKind::kPlusEq, 2);
            return op(TokenKind::kPlus, 1);
        case '&':
            if (c1 == '&') return op(TokenKind::kAndAnd, 2);
            if (c1 == '=') return op(TokenKind::kAndEq, 2);
            return op(TokenKind::kAmp, 1);
        case '|':
            if (c1 == '|') return op(TokenKind::kOrOr, 2);
            if (c1 == '=') return op(TokenKind::kOrEq, 2);
            return op(TokenKind::kPipe, 1);
        case ':':
            return c1 == ':' ? op(TokenKind::kDoubleColon, 2) : op(TokenKind::kColon, 1);
        case '/':
            return c1 == '=' ? op(TokenKind::kDivEq, 2) : op(TokenKind::kSlash, 1);
        case '%':
            return c1 == '=' ? op(TokenKind::kModEq, 2) : op(TokenKind::kPercent, 1);
        case '^':
            return c1 == '=' ? op(TokenKind::kXorEq, 2) : op(TokenKind::kCaret, 1);
        case ';': return op(TokenKind::kSemicolon, 1);
        case ',': return op(TokenKind::kComma, 1);
        case '(': return op(TokenKind::kLParen, 1);
        case ')': return op(TokenKind::kRParen, 1);
        case '{': return op(TokenKind::kLBrace, 1);
        case '}': return op(TokenKind::kRBrace, 1);
        case '[': return op(TokenKind::kLBracket, 1);
        case ']': return op(TokenKind::kRBracket, 1);
        case '~': return op(TokenKind::kTilde, 1);
        case '@': return op(TokenKind::kAt, 1);
        case '$': return op(TokenKind::kDollar, 1);
        case '`': return op(TokenKind::kBacktick, 1);
        case '\\': return op(TokenKind::kBackslash, 1);
        default:
            sink_.add(Severity::kWarning, {file_.name(), line_},
                      std::string("unexpected character '") + c + "'");
            return op(TokenKind::kAt, 1);  // benign placeholder
    }
}

}  // namespace phpsafe::php
