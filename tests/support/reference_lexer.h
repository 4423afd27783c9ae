// Test-only reference: a frozen copy of the substring-probing lexer that
// the first-byte-dispatch lexer in src/php/ replaced, kept verbatim apart
// from its namespace and include paths. LexerDifferentialTest compares the
// two token for token; do not change this copy's behaviour.
//
// PHP lexer: a C++ equivalent of the PHP interpreter's token_get_all(),
// which the paper uses to build its AST (model-construction stage). The
// lexer understands inline HTML, open/close tags, all literal forms
// (including heredoc/nowdoc and interpolated strings), comments and the
// full operator set used by PHP 5/7 plugin code.
//
// Zero-copy: token text and values are string_view slices of the source
// buffer whenever the lexeme needs no transformation; only decoded escape
// sequences, case-folded keywords and synthesized interpolation expressions
// are materialized — into the caller-supplied Arena, never onto the general
// heap. The SourceFile and Arena must outlive every token produced.
#pragma once

#include <string_view>
#include <vector>

#include "support/reference_token.h"
#include "util/arena.h"
#include "util/diagnostics.h"
#include "util/source.h"

namespace phpsafe::php::reference {

/// Returns true if `word` (already lowercased) is a PHP reserved keyword.
bool is_php_keyword(std::string_view word) noexcept;

struct LexerOptions {
    /// Emit kComment tokens instead of skipping them (the paper's tool
    /// "cleans the AST by removing comments"; tests flip this on).
    bool keep_comments = false;
};

class Lexer {
public:
    using Options = LexerOptions;

    Lexer(const SourceFile& file, Arena& arena, DiagnosticSink& sink,
          Options options = {});

    /// Tokenizes the whole file. Always ends with a kEndOfFile token.
    std::vector<Token> tokenize();

private:
    enum class Mode { kHtml, kPhp };

    bool at_end() const noexcept { return pos_ >= text_.size(); }
    char peek(size_t ahead = 0) const noexcept {
        return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
    }
    char advance() noexcept;
    bool match(std::string_view s) noexcept;
    bool looking_at(std::string_view s) const noexcept;

    void lex_html(std::vector<Token>& out);
    void lex_php_token(std::vector<Token>& out);
    Token lex_variable();
    Token lex_identifier_or_keyword();
    Token lex_number();
    Token lex_single_quoted();
    Token lex_double_quoted(char quote, TokenKind kind);
    Token lex_heredoc();
    void lex_comment(std::vector<Token>& out);
    bool try_lex_cast(std::vector<Token>& out);
    Token lex_operator();

    /// Scans interpolation inside a double-quoted/heredoc body and fills
    /// token parts; `body` is the raw contents (escapes not yet decoded), a
    /// slice of the source buffer.
    void scan_interpolation(std::string_view body, Token& token);

    /// The source bytes scanned since `start` — the zero-copy token text.
    std::string_view slice(size_t start) const noexcept {
        return text_.substr(start, pos_ - start);
    }

    Token make(TokenKind kind, std::string_view text) const;

    const SourceFile& file_;
    std::string_view text_;
    Arena& arena_;
    DiagnosticSink& sink_;
    Options options_;
    size_t pos_ = 0;
    int line_ = 1;
    Mode mode_ = Mode::kHtml;
};

}  // namespace phpsafe::php::reference
