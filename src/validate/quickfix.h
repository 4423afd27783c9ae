// Remediation engine — machine-applicable quickfixes for findings, in the
// spirit of the mitigation route the related work takes (PAPERS.md, "You
// shall not pass": rewrite the sink into a sanitized/prepared form and
// prove the flow is dead). Two fix shapes:
//
//   sanitize-wrap       — wrap the vulnerable sink-argument expression in
//                         the active profile's preferred sanitizer for the
//                         finding's kind (esc_html/htmlspecialchars/... for
//                         XSS, esc_sql/mysql_real_escape_string/... for
//                         SQLi), picked by probing the knowledge base so a
//                         WordPress profile prefers the esc_* family and a
//                         generic profile falls back to the PHP built-ins.
//   prepare-statement   — rewrite a procedural `mysqli_query($conn, <lit> .
//                         $var . <lit> ...)` call into mysqli_prepare +
//                         mysqli_stmt_bind_param + mysqli_stmt_execute with
//                         `?` placeholders, turning the query text into a
//                         pure literal.
//
// A Quickfix is a single-line textual edit against retained source: the
// replacement line may hold several `;`-separated statements, but it never
// adds or removes lines, so every other finding's (file, line) anchor — and
// therefore its canonical serialization — is untouched by applying it.
// Proposals are heuristics; validate/validate.h verifies each one by
// re-running the analyzer and the interpreter on the patched unit and only
// emits fixes that provably kill the flow without regressing anything else.
#pragma once

#include <optional>
#include <string>

#include "config/knowledge.h"
#include "core/finding.h"
#include "php/project.h"

namespace phpsafe::validate {

struct Quickfix {
    enum class Kind : uint8_t { kSanitizeWrap, kPrepareStatement };
    Kind kind = Kind::kSanitizeWrap;
    std::string file;
    int line = 0;         ///< 1-based line the edit replaces
    std::string before;   ///< exact original line (apply refuses on drift)
    std::string after;    ///< replacement line
    std::string note;     ///< human-readable summary of the rewrite
    bool verified = false;  ///< set by the pipeline's verification loop
};

std::string to_string(Quickfix::Kind kind);

/// Every sanitizer preferred_sanitizer may return for `kind`, most preferred
/// first: the profile-specific functions (the WordPress esc_* family), then
/// the PHP built-ins as the generic fallback. Each must be an implemented
/// row of the interpreter's built-in table, so a wrapped flow is dead for
/// the replay exactly when it is dead for the engine; BuiltinTableTest
/// checks this.
const std::vector<std::string>& sanitizer_preference(VulnKind kind);

/// The profile's preferred sanitizer for `kind`: the first function in
/// sanitizer_preference(kind) that the knowledge base registers as a
/// sanitizer of that kind. Empty when the profile has none.
std::string preferred_sanitizer(const KnowledgeBase& kb, VulnKind kind);

/// Proposes a textual fix for one finding against the project's retained
/// source. Returns nullopt when the sink line cannot be rewritten
/// unambiguously (expression not found on the line, no sanitizer in the
/// profile, file missing).
std::optional<Quickfix> propose_quickfix(const php::Project& project,
                                         const KnowledgeBase& kb,
                                         const Finding& finding);

/// Applies a fix: the full patched text of fix.file, or nullopt when the
/// file is gone or its current line no longer equals fix.before.
std::optional<std::string> apply_quickfix(const php::Project& project,
                                          const Quickfix& fix);

}  // namespace phpsafe::validate
