// Test-only reference: a frozen copy of the substring-probing lexer that
// the first-byte-dispatch lexer in src/php/ replaced, kept verbatim apart
// from its namespace and include paths. LexerDifferentialTest compares the
// two token for token; do not change this copy's behaviour.
#include "support/reference_lexer.h"

#include <array>
#include <cctype>
#include <unordered_set>

#include "obs/counters.h"
#include "util/strings.h"

namespace phpsafe::php::reference {

namespace {

bool is_ident_start(char c) noexcept {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           static_cast<unsigned char>(c) >= 0x80;
}

bool is_ident_char(char c) noexcept {
    return is_ident_start(c) || std::isdigit(static_cast<unsigned char>(c));
}

bool has_upper(std::string_view s) noexcept {
    for (const char c : s)
        if (c >= 'A' && c <= 'Z') return true;
    return false;
}

const std::unordered_set<std::string_view>& keyword_set() {
    static const std::unordered_set<std::string_view> kKeywords = {
        "abstract", "and", "array", "as", "break", "callable", "case", "catch",
        "class", "clone", "const", "continue", "declare", "default", "die", "do",
        "echo", "else", "elseif", "empty", "enddeclare", "endfor", "endforeach",
        "eval", "exit",
        "endif", "endswitch", "endwhile", "extends", "final", "finally", "fn",
        "for", "foreach", "function", "global", "goto", "if", "implements",
        "include", "include_once", "instanceof", "insteadof", "interface",
        "isset", "list", "match", "namespace", "new", "or", "print", "private",
        "protected", "public", "readonly", "require", "require_once", "return",
        "static", "switch", "throw", "trait", "try", "unset", "use", "var",
        "while", "xor", "yield",
    };
    return kKeywords;
}

const std::unordered_set<std::string_view>& cast_name_set() {
    static const std::unordered_set<std::string_view> kCasts = {
        "int", "integer", "bool", "boolean", "float", "double", "real",
        "string", "array", "object", "unset", "binary",
    };
    return kCasts;
}

/// Decodes escape sequences of a single-quoted string body.
std::string decode_single_quoted(std::string_view body) {
    std::string out;
    out.reserve(body.size());
    for (size_t i = 0; i < body.size(); ++i) {
        if (body[i] == '\\' && i + 1 < body.size() &&
            (body[i + 1] == '\\' || body[i + 1] == '\'')) {
            out.push_back(body[++i]);
        } else {
            out.push_back(body[i]);
        }
    }
    return out;
}

/// Decodes escape sequences of a double-quoted string literal segment.
std::string decode_double_quoted(std::string_view body) {
    std::string out;
    out.reserve(body.size());
    for (size_t i = 0; i < body.size(); ++i) {
        if (body[i] != '\\' || i + 1 >= body.size()) {
            out.push_back(body[i]);
            continue;
        }
        const char c = body[++i];
        switch (c) {
            case 'n': out.push_back('\n'); break;
            case 't': out.push_back('\t'); break;
            case 'r': out.push_back('\r'); break;
            case 'v': out.push_back('\v'); break;
            case 'f': out.push_back('\f'); break;
            case 'e': out.push_back('\x1b'); break;
            case '\\': out.push_back('\\'); break;
            case '$': out.push_back('$'); break;
            case '"': out.push_back('"'); break;
            case 'x': {
                std::string hex;
                while (hex.size() < 2 && i + 1 < body.size() &&
                       std::isxdigit(static_cast<unsigned char>(body[i + 1])))
                    hex.push_back(body[++i]);
                if (hex.empty()) {
                    out.push_back('\\');
                    out.push_back('x');
                } else {
                    out.push_back(static_cast<char>(std::stoi(hex, nullptr, 16)));
                }
                break;
            }
            default:
                if (c >= '0' && c <= '7') {
                    std::string oct(1, c);
                    while (oct.size() < 3 && i + 1 < body.size() && body[i + 1] >= '0' &&
                           body[i + 1] <= '7')
                        oct.push_back(body[++i]);
                    out.push_back(static_cast<char>(std::stoi(oct, nullptr, 8) & 0xFF));
                } else {
                    out.push_back('\\');
                    out.push_back(c);
                }
        }
    }
    return out;
}

}  // namespace

bool is_php_keyword(std::string_view word) noexcept {
    return keyword_set().count(word) > 0;
}

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

char Lexer::advance() noexcept {
    const char c = text_[pos_++];
    if (c == '\n') ++line_;
    return c;
}

bool Lexer::looking_at(std::string_view s) const noexcept {
    return text_.substr(pos_, s.size()) == s;
}

bool Lexer::match(std::string_view s) noexcept {
    if (!looking_at(s)) return false;
    for (size_t i = 0; i < s.size(); ++i) advance();
    return true;
}

Token Lexer::make(TokenKind kind, std::string_view text) const {
    Token t;
    t.kind = kind;
    t.text = text;
    t.line = line_;
    return t;
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
    out.push_back(make(TokenKind::kEndOfFile, ""));
    obs::tls().tokens_lexed += out.size();
    return out;
}

void Lexer::lex_html(std::vector<Token>& out) {
    const int start_line = line_;
    const size_t start = pos_;
    while (!at_end()) {
        if (looking_at("<?")) break;
        advance();
    }
    const std::string_view html = slice(start);
    if (!html.empty()) {
        Token t = make(TokenKind::kInlineHtml, html);
        t.line = start_line;
        out.push_back(std::move(t));
        obs::tls().alloc_string_bytes_saved += html.size();
    }
    if (at_end()) return;
    const int tag_line = line_;
    if (match("<?php")) {
        Token t = make(TokenKind::kOpenTag, "<?php");
        t.line = tag_line;
        out.push_back(std::move(t));
        mode_ = Mode::kPhp;
    } else if (match("<?=")) {
        Token t = make(TokenKind::kOpenTagWithEcho, "<?=");
        t.line = tag_line;
        out.push_back(std::move(t));
        mode_ = Mode::kPhp;
    } else if (match("<?")) {  // short open tag
        Token t = make(TokenKind::kOpenTag, "<?");
        t.line = tag_line;
        out.push_back(std::move(t));
        mode_ = Mode::kPhp;
    }
}

void Lexer::lex_php_token(std::vector<Token>& out) {
    // Skip whitespace.
    while (!at_end() && std::isspace(static_cast<unsigned char>(peek()))) advance();
    if (at_end()) return;

    const char c = peek();

    if (looking_at("?>")) {
        const int tag_line = line_;
        match("?>");
        // PHP swallows a single newline immediately after the close tag.
        if (peek() == '\n') advance();
        Token t = make(TokenKind::kCloseTag, "?>");
        t.line = tag_line;
        out.push_back(std::move(t));
        mode_ = Mode::kHtml;
        return;
    }

    if (looking_at("//") || looking_at("/*") ||
        (c == '#' && !looking_at("#["))) {
        lex_comment(out);
        return;
    }
    if (looking_at("#[")) {  // PHP 8 attribute: skip to matching ']'.
        int depth = 0;
        while (!at_end()) {
            const char a = advance();
            if (a == '[') ++depth;
            else if (a == ']' && --depth == 0) break;
        }
        return;
    }

    if (c == '$' && is_ident_start(peek(1))) {
        out.push_back(lex_variable());
        return;
    }
    if (is_ident_start(c)) {
        // Heredoc/nowdoc start with <<< which is handled below; identifiers here.
        out.push_back(lex_identifier_or_keyword());
        return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
        out.push_back(lex_number());
        return;
    }
    if (c == '\'') {
        out.push_back(lex_single_quoted());
        return;
    }
    if (c == '"') {
        out.push_back(lex_double_quoted('"', TokenKind::kDoubleQuotedString));
        return;
    }
    if (c == '`') {
        // Shell-exec operator: lex the body like a double-quoted string so
        // interpolation is visible to the analysis (a potential sink).
        out.push_back(lex_double_quoted('`', TokenKind::kDoubleQuotedString));
        return;
    }
    if (looking_at("<<<")) {
        out.push_back(lex_heredoc());
        return;
    }
    if (c == '(' && try_lex_cast(out)) return;

    out.push_back(lex_operator());
}

Token Lexer::lex_variable() {
    const int start_line = line_;
    const size_t start = pos_;
    advance();  // '$'
    while (!at_end() && is_ident_char(peek())) advance();
    Token t = make(TokenKind::kVariable, slice(start));
    t.line = start_line;
    obs::tls().alloc_string_bytes_saved += t.text.size();
    return t;
}

Token Lexer::lex_identifier_or_keyword() {
    const int start_line = line_;
    const size_t start = pos_;
    while (!at_end() && is_ident_char(peek())) advance();
    const std::string_view raw = slice(start);
    Token t;
    if (!has_upper(raw)) {
        // Already lowercase: keyword and identifier text are both zero-copy.
        t = make(is_php_keyword(raw) ? TokenKind::kKeyword
                                     : TokenKind::kIdentifier,
                 raw);
        obs::tls().alloc_string_bytes_saved += raw.size();
    } else {
        const std::string lower = ascii_lower(raw);
        if (is_php_keyword(lower)) {
            t = make(TokenKind::kKeyword, arena_.store(lower));
        } else {
            t = make(TokenKind::kIdentifier, raw);
            obs::tls().alloc_string_bytes_saved += raw.size();
        }
    }
    t.line = start_line;
    return t;
}

Token Lexer::lex_number() {
    const int start_line = line_;
    const size_t start = pos_;
    bool is_float = false;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        advance();
        advance();
        while (!at_end() && (std::isxdigit(static_cast<unsigned char>(peek())) || peek() == '_'))
            advance();
    } else if (peek() == '0' && (peek(1) == 'b' || peek(1) == 'B')) {
        advance();
        advance();
        while (!at_end() && (peek() == '0' || peek() == '1' || peek() == '_'))
            advance();
    } else {
        while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) || peek() == '_'))
            advance();
        if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
            is_float = true;
            advance();
            while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
                advance();
        }
        if (peek() == 'e' || peek() == 'E') {
            size_t look = 1;
            if (peek(1) == '+' || peek(1) == '-') look = 2;
            if (std::isdigit(static_cast<unsigned char>(peek(look)))) {
                is_float = true;
                advance();
                if (peek() == '+' || peek() == '-') advance();
                while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
                    advance();
            }
        }
    }
    Token t = make(is_float ? TokenKind::kFloatLiteral : TokenKind::kIntLiteral,
                   slice(start));
    t.line = start_line;
    return t;
}

Token Lexer::lex_single_quoted() {
    const int start_line = line_;
    const size_t tok_start = pos_;
    advance();  // opening quote
    const size_t body_start = pos_;
    bool terminated = false;
    while (!at_end()) {
        const char c = peek();
        if (c == '\\' && (peek(1) == '\\' || peek(1) == '\'')) {
            advance();
            advance();
            continue;
        }
        if (c == '\'') {
            terminated = true;
            break;
        }
        advance();
    }
    const std::string_view body = slice(body_start);
    if (terminated) {
        advance();  // closing quote
    } else {
        sink_.add(Severity::kError, {file_.name(), start_line},
                  "unterminated string literal");
    }
    Token t = make(TokenKind::kSingleQuotedString, slice(tok_start));
    if (body.find('\\') == std::string_view::npos) {
        t.value = body;  // nothing to decode: reuse the source bytes
        obs::tls().alloc_string_bytes_saved += body.size();
    } else {
        t.value = arena_.store(decode_single_quoted(body));
    }
    t.line = start_line;
    return t;
}

Token Lexer::lex_double_quoted(char quote, TokenKind kind) {
    const int start_line = line_;
    const size_t tok_start = pos_;
    advance();  // opening quote
    const size_t body_start = pos_;
    bool terminated = false;
    while (!at_end()) {
        const char c = peek();
        if (c == '\\' && pos_ + 1 < text_.size()) {
            advance();
            advance();
            continue;
        }
        if (c == quote) {
            terminated = true;
            break;
        }
        advance();
    }
    const std::string_view body = slice(body_start);
    if (terminated) {
        advance();  // closing quote
    } else {
        sink_.add(Severity::kError, {file_.name(), start_line},
                  "unterminated string literal");
    }
    Token t = make(kind, slice(tok_start));
    t.line = start_line;
    scan_interpolation(body, t);
    return t;
}

Token Lexer::lex_heredoc() {
    const int start_line = line_;
    match("<<<");
    while (!at_end() && (peek() == ' ' || peek() == '\t')) advance();
    bool nowdoc = false;
    bool quoted = false;
    if (peek() == '\'') {
        nowdoc = true;
        advance();
    } else if (peek() == '"') {
        quoted = true;
        advance();
    }
    const size_t label_start = pos_;
    while (!at_end() && is_ident_char(peek())) advance();
    const std::string_view label = slice(label_start);
    if ((nowdoc && peek() == '\'') || (quoted && peek() == '"')) advance();
    // Skip to end of line.
    while (!at_end() && peek() != '\n') advance();
    if (!at_end()) advance();

    const size_t body_start = pos_;
    size_t body_end = pos_;
    bool terminated = false;
    while (!at_end()) {
        // Check for terminator at line start (PHP 7.3 allows indentation).
        size_t probe = pos_;
        while (probe < text_.size() && (text_[probe] == ' ' || text_[probe] == '\t')) ++probe;
        if (text_.substr(probe, label.size()) == label) {
            const size_t after = probe + label.size();
            const char next = after < text_.size() ? text_[after] : '\n';
            if (!is_ident_char(next)) {
                body_end = pos_;
                // Consume up to and including the label.
                while (pos_ < after) advance();
                terminated = true;
                break;
            }
        }
        // Scan past one full line.
        while (!at_end()) {
            if (advance() == '\n') break;
        }
        body_end = pos_;
    }
    if (!terminated)
        sink_.add(Severity::kError, {file_.name(), start_line},
                  "unterminated heredoc '" + std::string(label) + "'");
    std::string_view body = text_.substr(body_start, body_end - body_start);
    if (!body.empty() && body.back() == '\n') body.remove_suffix(1);

    Token t = make(nowdoc ? TokenKind::kNowdoc : TokenKind::kHeredoc, body);
    t.line = start_line;
    if (nowdoc) {
        t.value = body;
        obs::tls().alloc_string_bytes_saved += body.size();
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
    size_t seg_start = 0;
    auto flush_literal = [&](size_t end_pos) {
        if (end_pos <= seg_start) return;
        const std::string_view raw = body.substr(seg_start, end_pos - seg_start);
        StringPart part;
        part.kind = StringPart::Kind::kLiteral;
        if (raw.find('\\') == std::string_view::npos) {
            part.text = raw;
            obs::tls().alloc_string_bytes_saved += raw.size();
        } else {
            part.text = arena_.store(decode_double_quoted(raw));
        }
        token.parts.push_back(part);
    };
    auto add_expr = [&](size_t lit_end, std::string_view expr) {
        flush_literal(lit_end);
        StringPart part;
        part.kind = StringPart::Kind::kExpression;
        part.text = expr;
        token.parts.push_back(part);
    };

    size_t i = 0;
    while (i < body.size()) {
        const char c = body[i];
        if (c == '\\' && i + 1 < body.size()) {
            i += 2;
            continue;
        }
        // Complex syntax: {$expr}
        if (c == '{' && i + 1 < body.size() && body[i + 1] == '$') {
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
            obs::tls().alloc_string_bytes_saved += j - (i + 1);
            seg_start = i = (j < body.size()) ? j + 1 : j;
            continue;
        }
        // ${name} syntax.
        if (c == '$' && i + 1 < body.size() && body[i + 1] == '{') {
            size_t j = i + 2;
            while (j < body.size() && body[j] != '}') ++j;
            std::string synth = "$";
            synth += body.substr(i + 2, j - (i + 2));
            add_expr(i, arena_.store(synth));
            seg_start = i = (j < body.size()) ? j + 1 : j;
            continue;
        }
        // Simple syntax: $name, $name->prop, $name[index]
        if (c == '$' && i + 1 < body.size() && is_ident_start(body[i + 1])) {
            size_t j = i + 1;
            while (j < body.size() && is_ident_char(body[j])) ++j;
            size_t expr_end = j;
            bool synthesized = false;
            std::string synth;
            if (j + 1 < body.size() && body[j] == '-' && body[j + 1] == '>' &&
                j + 2 < body.size() && is_ident_start(body[j + 2])) {
                j += 2;
                while (j < body.size() && is_ident_char(body[j])) ++j;
                expr_end = j;
            } else if (j < body.size() && body[j] == '[') {
                size_t k = j + 1;
                while (k < body.size() && body[k] != ']') ++k;
                if (k < body.size()) {
                    const std::string_view index = body.substr(j + 1, k - (j + 1));
                    const std::string_view idx = trim(index);
                    bool numeric = !idx.empty();
                    for (const char d : idx)
                        if (!std::isdigit(static_cast<unsigned char>(d))) numeric = false;
                    if (!idx.empty() && (idx.front() == '\'' || idx.front() == '"' ||
                                         idx.front() == '$' || numeric)) {
                        if (idx.size() == index.size()) {
                            // "$name[idx]" is already verbatim in the source.
                            expr_end = k + 1;
                        } else {
                            synth.assign(body.substr(i, j - i));
                            synth += '[';
                            synth += idx;
                            synth += ']';
                            synthesized = true;
                        }
                    } else {
                        // PHP's simple syntax allows unquoted string keys.
                        synth.assign(body.substr(i, j - i));
                        synth += "['";
                        synth += idx;
                        synth += "']";
                        synthesized = true;
                    }
                    j = k + 1;
                }
            }
            if (synthesized) {
                add_expr(i, arena_.store(synth));
            } else {
                add_expr(i, body.substr(i, expr_end - i));
                obs::tls().alloc_string_bytes_saved += expr_end - i;
            }
            seg_start = i = j;
            continue;
        }
        ++i;
    }
    flush_literal(body.size());

    // The decoded value is the concatenation of literal parts (expressions
    // contribute nothing to the static value). Single-literal tokens — the
    // overwhelmingly common case — reuse the part's view.
    size_t literal_count = 0;
    std::string_view single;
    for (const StringPart& p : token.parts) {
        if (p.kind != StringPart::Kind::kLiteral) continue;
        ++literal_count;
        single = p.text;
    }
    if (literal_count == 0) {
        token.value = {};
    } else if (literal_count == 1) {
        token.value = single;
    } else {
        std::string value;
        for (const StringPart& p : token.parts)
            if (p.kind == StringPart::Kind::kLiteral) value += p.text;
        token.value = arena_.store(value);
    }
}

void Lexer::lex_comment(std::vector<Token>& out) {
    const int start_line = line_;
    const size_t start = pos_;
    if (looking_at("/*")) {
        match("/*");
        while (!at_end() && !looking_at("*/")) advance();
        if (!match("*/"))
            sink_.add(Severity::kWarning, {file_.name(), start_line},
                      "unterminated block comment");
    } else {
        // Line comment: ends at newline or before '?>'.
        if (looking_at("//")) {
            match("//");
        } else {
            match("#");
        }
        while (!at_end() && peek() != '\n' && !looking_at("?>")) advance();
    }
    if (options_.keep_comments) {
        Token t = make(TokenKind::kComment, slice(start));
        t.line = start_line;
        obs::tls().alloc_string_bytes_saved += t.text.size();
        out.push_back(std::move(t));
    }
}

bool Lexer::try_lex_cast(std::vector<Token>& out) {
    // Lookahead: "(" ws* castname ws* ")".
    size_t probe = pos_ + 1;
    while (probe < text_.size() &&
           (text_[probe] == ' ' || text_[probe] == '\t'))
        ++probe;
    const size_t name_start = probe;
    while (probe < text_.size() && std::isalpha(static_cast<unsigned char>(text_[probe])))
        ++probe;
    const std::string_view name = text_.substr(name_start, probe - name_start);
    while (probe < text_.size() && (text_[probe] == ' ' || text_[probe] == '\t')) ++probe;
    if (probe >= text_.size() || text_[probe] != ')') return false;
    const std::string lower = ascii_lower(name);  // short: stays in SSO
    if (!cast_name_set().count(lower)) return false;

    const int start_line = line_;
    const size_t tok_start = pos_;
    while (pos_ <= probe) advance();
    Token t = make(TokenKind::kCast, slice(tok_start));
    t.value = has_upper(name) ? arena_.store(lower) : name;
    t.line = start_line;
    out.push_back(std::move(t));
    return true;
}

Token Lexer::lex_operator() {
    const int start_line = line_;
    struct OpEntry {
        std::string_view text;
        TokenKind kind;
    };
    // Longest-match table; ordered by length.
    static constexpr std::array<OpEntry, 28> kMulti = {{
        {"<<=", TokenKind::kShlEq}, {">>=", TokenKind::kShrEq},
        {"**=", TokenKind::kPowEq}, {"===", TokenKind::kIdentical},
        {"!==", TokenKind::kNotIdentical}, {"<=>", TokenKind::kSpaceship},
        {"?\?=", TokenKind::kCoalesceEq}, {"...", TokenKind::kEllipsis},
        {"?->", TokenKind::kNullsafeArrow},
        {"->", TokenKind::kArrow}, {"::", TokenKind::kDoubleColon},
        {"=>", TokenKind::kDoubleArrow}, {"++", TokenKind::kInc},
        {"--", TokenKind::kDec}, {"**", TokenKind::kPow},
        {"==", TokenKind::kEq}, {"!=", TokenKind::kNotEq},
        {"<>", TokenKind::kNotEq}, {"<=", TokenKind::kLtEq},
        {">=", TokenKind::kGtEq}, {"&&", TokenKind::kAndAnd},
        {"||", TokenKind::kOrOr}, {"??", TokenKind::kCoalesce},
        {"<<", TokenKind::kShiftLeft}, {">>", TokenKind::kShiftRight},
        {"+=", TokenKind::kPlusEq}, {"-=", TokenKind::kMinusEq},
        {".=", TokenKind::kConcatEq},
    }};
    static constexpr std::array<OpEntry, 5> kMulti2 = {{
        {"*=", TokenKind::kMulEq}, {"/=", TokenKind::kDivEq},
        {"%=", TokenKind::kModEq}, {"&=", TokenKind::kAndEq},
        {"|=", TokenKind::kOrEq},
    }};

    for (const OpEntry& e : kMulti) {
        if (match(e.text)) {
            Token t = make(e.kind, e.text);
            t.line = start_line;
            return t;
        }
    }
    for (const OpEntry& e : kMulti2) {
        if (match(e.text)) {
            Token t = make(e.kind, e.text);
            t.line = start_line;
            return t;
        }
    }
    if (match("^=")) {
        Token t = make(TokenKind::kXorEq, "^=");
        t.line = start_line;
        return t;
    }

    const size_t start = pos_;
    const char c = advance();
    TokenKind kind;
    switch (c) {
        case '+': kind = TokenKind::kPlus; break;
        case '-': kind = TokenKind::kMinus; break;
        case '*': kind = TokenKind::kStar; break;
        case '/': kind = TokenKind::kSlash; break;
        case '%': kind = TokenKind::kPercent; break;
        case '.': kind = TokenKind::kDot; break;
        case '=': kind = TokenKind::kAssign; break;
        case '<': kind = TokenKind::kLt; break;
        case '>': kind = TokenKind::kGt; break;
        case '!': kind = TokenKind::kNot; break;
        case '?': kind = TokenKind::kQuestion; break;
        case ':': kind = TokenKind::kColon; break;
        case ';': kind = TokenKind::kSemicolon; break;
        case ',': kind = TokenKind::kComma; break;
        case '(': kind = TokenKind::kLParen; break;
        case ')': kind = TokenKind::kRParen; break;
        case '{': kind = TokenKind::kLBrace; break;
        case '}': kind = TokenKind::kRBrace; break;
        case '[': kind = TokenKind::kLBracket; break;
        case ']': kind = TokenKind::kRBracket; break;
        case '&': kind = TokenKind::kAmp; break;
        case '|': kind = TokenKind::kPipe; break;
        case '^': kind = TokenKind::kCaret; break;
        case '~': kind = TokenKind::kTilde; break;
        case '@': kind = TokenKind::kAt; break;
        case '$': kind = TokenKind::kDollar; break;
        case '`': kind = TokenKind::kBacktick; break;
        case '\\': kind = TokenKind::kBackslash; break;
        default:
            sink_.add(Severity::kWarning, {file_.name(), start_line},
                      std::string("unexpected character '") + c + "'");
            kind = TokenKind::kAt;  // benign placeholder
    }
    Token t = make(kind, slice(start));
    t.line = start_line;
    return t;
}

}  // namespace phpsafe::php::reference
