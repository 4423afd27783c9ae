// Test-only reference: a frozen copy of the substring-probing lexer that
// the first-byte-dispatch lexer in src/php/ replaced, kept verbatim apart
// from its namespace and include paths. LexerDifferentialTest compares the
// two token for token; do not change this copy's behaviour.
//
// Token taxonomy for the PHP lexer. Kinds mirror the PHP interpreter's
// token_get_all() taxonomy (T_VARIABLE, T_OBJECT_OPERATOR, ...) that the
// paper's model-construction stage is built on, with two simplifications:
//  * interpolated double-quoted strings / heredocs are one token carrying a
//    structured part list instead of an ENCAPSED token run;
//  * one-character punctuation is a kind per character family.
//
// Tokens are zero-copy: `text` and `value` are string_views into the
// SourceFile's retained text whenever the lexeme needs no transformation,
// and into the per-file Arena when it does (decoded escapes, case-folded
// keywords, synthesized interpolation expressions). Either way the bytes
// live exactly as long as the ParsedFile that owns source and arena.
#pragma once

#include <string_view>
#include <vector>

#include "util/source.h"

namespace phpsafe::php::reference {

enum class TokenKind {
    kEndOfFile,
    kInlineHtml,        ///< text outside <?php ... ?>
    kOpenTag,           ///< "<?php"
    kOpenTagWithEcho,   ///< "<?="
    kCloseTag,          ///< "?>"

    kVariable,          ///< $name (text keeps the '$')
    kIdentifier,        ///< T_STRING: function/class/const names, true/false/null
    kKeyword,           ///< reserved word (text is the lowercase keyword)

    kIntLiteral,
    kFloatLiteral,
    kSingleQuotedString, ///< value() holds the decoded contents
    kDoubleQuotedString, ///< may carry interpolation parts
    kHeredoc,            ///< behaves like kDoubleQuotedString
    kNowdoc,             ///< behaves like kSingleQuotedString
    kComment,            ///< only emitted when Lexer::Options::keep_comments

    kCast,               ///< "(int)" etc.; value() holds the cast name

    // Multi-character operators.
    kArrow,              ///< ->
    kNullsafeArrow,      ///< ?->
    kDoubleColon,        ///< ::
    kDoubleArrow,        ///< =>
    kInc,                ///< ++
    kDec,                ///< --
    kPow,                ///< **
    kEq, kNotEq,         ///< == !=  (also <>)
    kIdentical, kNotIdentical, ///< === !==
    kSpaceship,          ///< <=>
    kLtEq, kGtEq,        ///< <= >=
    kAndAnd, kOrOr,      ///< && ||
    kCoalesce,           ///< ??
    kShiftLeft, kShiftRight, ///< << >>
    kPlusEq, kMinusEq, kMulEq, kDivEq, kConcatEq, kModEq, kPowEq,
    kAndEq, kOrEq, kXorEq, kShlEq, kShrEq, kCoalesceEq,
    kEllipsis,           ///< ...

    // Single-character punctuation.
    kPlus, kMinus, kStar, kSlash, kPercent, kDot,
    kAssign,             ///< =
    kLt, kGt,
    kNot,                ///< !
    kQuestion, kColon, kSemicolon, kComma,
    kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
    kAmp, kPipe, kCaret, kTilde, kAt, kDollar, kBacktick, kBackslash,
};

const char* to_string(TokenKind kind);

/// One piece of an interpolated string: either literal text or an embedded
/// expression kept as raw PHP source (re-parsed by the parser on demand).
struct StringPart {
    enum class Kind { kLiteral, kExpression } kind = Kind::kLiteral;
    std::string_view text;  ///< literal contents or raw expression source
};

struct Token {
    TokenKind kind = TokenKind::kEndOfFile;
    std::string_view text;          ///< raw lexeme (keyword text is lowercased)
    std::string_view value;         ///< decoded value for strings / cast name
    std::vector<StringPart> parts;  ///< interpolation parts (strings only)
    int line = 0;

    bool is(TokenKind k) const noexcept { return kind == k; }
    bool is_keyword(std::string_view kw) const noexcept {
        return kind == TokenKind::kKeyword && text == kw;
    }
    /// True for tokens that carry string contents.
    bool is_any_string() const noexcept {
        return kind == TokenKind::kSingleQuotedString ||
               kind == TokenKind::kDoubleQuotedString ||
               kind == TokenKind::kHeredoc || kind == TokenKind::kNowdoc;
    }
    /// True if the string token interpolates at least one expression.
    bool has_interpolation() const noexcept {
        for (const StringPart& p : parts)
            if (p.kind == StringPart::Kind::kExpression) return true;
        return false;
    }
};

}  // namespace phpsafe::php::reference
