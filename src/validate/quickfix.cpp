#include "validate/quickfix.h"

#include <cctype>

#include "util/strings.h"

namespace phpsafe::validate {

namespace {

bool is_ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

size_t ifind(std::string_view haystack, std::string_view needle, size_t from) {
    const std::string h = ascii_lower(haystack.substr(from));
    const size_t pos = h.find(ascii_lower(needle));
    return pos == std::string_view::npos ? std::string_view::npos : from + pos;
}

/// The sink token to anchor the rewrite on: a method sink like
/// "wpdb::get_results" appears in source as "get_results".
std::string_view sink_token(std::string_view sink) {
    const size_t sep = sink.rfind("::");
    return sep == std::string_view::npos ? sink : sink.substr(sep + 2);
}

/// Finds the vulnerable expression on the sink line, preferring the first
/// identifier-bounded occurrence after the sink token so a variable that
/// is also assigned earlier on the line (`$q = $_GET['q']; echo $q;`) is
/// wrapped at the sink, not at its definition.
size_t find_expression(std::string_view line, std::string_view expr,
                       std::string_view sink) {
    if (expr.empty()) return std::string_view::npos;
    size_t from = 0;
    const std::string_view token = sink_token(sink);
    if (!token.empty()) {
        const size_t at = ifind(line, token, 0);
        if (at != std::string_view::npos) from = at + token.size();
    }
    for (size_t pos = line.find(expr, from); pos != std::string_view::npos;
         pos = line.find(expr, pos + 1)) {
        const bool left_ok =
            pos == 0 || (!is_ident_char(line[pos - 1]) && line[pos - 1] != '$');
        const char last = expr.back();
        const bool right_ok = !is_ident_char(last) ||
                              pos + expr.size() >= line.size() ||
                              !is_ident_char(line[pos + expr.size()]);
        if (left_ok && right_ok) return pos;
    }
    return std::string_view::npos;
}

/// Splits `text` at top-level occurrences of `sep` (a single char),
/// respecting single/double quotes and paren/bracket nesting. Returns
/// false on unbalanced input.
bool split_top_level(std::string_view text, char sep,
                     std::vector<std::string_view>& out) {
    int depth = 0;
    char quote = 0;
    size_t start = 0;
    for (size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quote) {
            if (c == '\\')
                ++i;
            else if (c == quote)
                quote = 0;
            continue;
        }
        if (c == '\'' || c == '"') {
            quote = c;
        } else if (c == '(' || c == '[' || c == '{') {
            ++depth;
        } else if (c == ')' || c == ']' || c == '}') {
            if (--depth < 0) return false;
        } else if (c == sep && depth == 0) {
            out.push_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    if (depth != 0 || quote) return false;
    out.push_back(text.substr(start));
    return true;
}

/// A quoted PHP string literal with no interpolation risk: '...' or "..."
/// with no embedded `$` and no escapes (the corpus and the quickfix both
/// stay inside this fragment on purpose — anything fancier is rejected and
/// falls back to the sanitize-wrap fix).
bool is_plain_literal(std::string_view part, std::string_view& content) {
    if (part.size() < 2) return false;
    const char q = part.front();
    if ((q != '\'' && q != '"') || part.back() != q) return false;
    const std::string_view inner = part.substr(1, part.size() - 2);
    for (char c : inner)
        if (c == q || c == '\\' || c == '$') return false;
    content = inner;
    return true;
}

/// A bindable variable expression: $ident, optionally chained with
/// [...] subscripts or ->prop accesses ($_GET['id'], $row->name, ...).
bool is_bindable_variable(std::string_view part) {
    size_t i = 0;
    if (i >= part.size() || part[i] != '$') return false;
    ++i;
    if (i >= part.size() || (!std::isalpha(static_cast<unsigned char>(part[i])) &&
                             part[i] != '_'))
        return false;
    while (i < part.size() && is_ident_char(part[i])) ++i;
    while (i < part.size()) {
        if (part[i] == '[') {
            const size_t close = part.find(']', i);
            if (close == std::string_view::npos) return false;
            i = close + 1;
        } else if (part.substr(i, 2) == "->") {
            i += 2;
            if (i >= part.size() || !is_ident_char(part[i])) return false;
            while (i < part.size() && is_ident_char(part[i])) ++i;
        } else {
            return false;
        }
    }
    return true;
}

std::string php_single_quote(std::string_view text) {
    std::string out = "'";
    for (char c : text) {
        if (c == '\'' || c == '\\') out += '\\';
        out += c;
    }
    out += '\'';
    return out;
}

/// Attempts the mysqli_query → prepared-statement rewrite. The line must
/// be a standalone statement `[$res = ] mysqli_query($conn, <concat>);`
/// whose query argument is a top-level `.`-concatenation of plain string
/// literals and bindable variables (at least one variable — a pure literal
/// query has nothing to fix).
std::optional<Quickfix> propose_prepare(std::string_view line,
                                        const Finding& finding) {
    const size_t call = ifind(line, "mysqli_query", 0);
    if (call == std::string_view::npos) return std::nullopt;
    // Guard against matching inside a longer identifier.
    if (call > 0 && (is_ident_char(line[call - 1]) || line[call - 1] == '$'))
        return std::nullopt;

    size_t open = call + std::string_view("mysqli_query").size();
    while (open < line.size() && std::isspace(static_cast<unsigned char>(line[open])))
        ++open;
    if (open >= line.size() || line[open] != '(') return std::nullopt;

    // Balanced argument span.
    int depth = 0;
    char quote = 0;
    size_t close = std::string_view::npos;
    for (size_t i = open; i < line.size(); ++i) {
        const char c = line[i];
        if (quote) {
            if (c == '\\')
                ++i;
            else if (c == quote)
                quote = 0;
            continue;
        }
        if (c == '\'' || c == '"') quote = c;
        else if (c == '(') ++depth;
        else if (c == ')' && --depth == 0) {
            close = i;
            break;
        }
    }
    if (close == std::string_view::npos) return std::nullopt;

    // Statement context: optional `$res =` before, `;` after, nothing else.
    const std::string_view head = trim(line.substr(0, call));
    std::string assign;
    if (!head.empty()) {
        if (head.back() != '=') return std::nullopt;
        const std::string_view lhs = trim(head.substr(0, head.size() - 1));
        if (!is_bindable_variable(lhs)) return std::nullopt;
        assign = std::string(lhs);
    }
    if (trim(line.substr(close + 1)) != ";") return std::nullopt;

    std::vector<std::string_view> args;
    if (!split_top_level(line.substr(open + 1, close - open - 1), ',', args) ||
        args.size() != 2)
        return std::nullopt;
    const std::string_view conn = trim(args[0]);
    if (!is_bindable_variable(conn)) return std::nullopt;

    std::vector<std::string_view> parts;
    if (!split_top_level(args[1], '.', parts)) return std::nullopt;
    std::string tmpl;
    std::vector<std::string_view> binds;
    for (std::string_view raw : parts) {
        const std::string_view part = trim(raw);
        std::string_view literal;
        if (is_plain_literal(part, literal)) {
            tmpl += literal;
        } else if (is_bindable_variable(part)) {
            tmpl += '?';
            binds.push_back(part);
        } else {
            return std::nullopt;
        }
    }
    if (binds.empty()) return std::nullopt;

    const size_t first = line.find_first_not_of(" \t");
    std::string after(line.substr(0, first == std::string_view::npos ? 0 : first));
    after += "$psf_stmt = mysqli_prepare(" + std::string(conn) + ", " +
             php_single_quote(tmpl) + "); mysqli_stmt_bind_param($psf_stmt, " +
             php_single_quote(std::string(binds.size(), 's')) + ", ";
    for (size_t i = 0; i < binds.size(); ++i) {
        if (i) after += ", ";
        after += std::string(binds[i]);
    }
    after += "); ";
    if (!assign.empty()) after += assign + " = ";
    after += "mysqli_stmt_execute($psf_stmt);";

    Quickfix fix;
    fix.kind = Quickfix::Kind::kPrepareStatement;
    fix.file = finding.location.file;
    fix.line = finding.location.line;
    fix.before = std::string(line);
    fix.after = std::move(after);
    fix.note = "rewrite mysqli_query into a prepared statement with " +
               std::to_string(binds.size()) + " bound parameter" +
               (binds.size() == 1 ? "" : "s");
    return fix;
}

}  // namespace

std::string to_string(Quickfix::Kind kind) {
    switch (kind) {
        case Quickfix::Kind::kSanitizeWrap: return "sanitize-wrap";
        case Quickfix::Kind::kPrepareStatement: return "prepare-statement";
    }
    return "?";
}

const std::vector<std::string>& sanitizer_preference(VulnKind kind) {
    static const std::vector<std::string> kXss = {"esc_html", "htmlspecialchars",
                                                  "htmlentities"};
    static const std::vector<std::string> kSqli = {
        "esc_sql", "mysql_real_escape_string", "addslashes"};
    return kind == VulnKind::kXss ? kXss : kSqli;
}

std::string preferred_sanitizer(const KnowledgeBase& kb, VulnKind kind) {
    for (const std::string& name : sanitizer_preference(kind)) {
        const FunctionInfo* info = kb.function(name);
        if (info && info->sanitizes.contains(kind)) return name;
    }
    return "";
}

std::optional<Quickfix> propose_quickfix(const php::Project& project,
                                         const KnowledgeBase& kb,
                                         const Finding& finding) {
    const php::ParsedFile* file = project.file_named(finding.location.file);
    if (!file || !file->source) return std::nullopt;
    const std::string_view line = file->source->line(finding.location.line);
    if (line.empty()) return std::nullopt;

    if (finding.kind == VulnKind::kSqli) {
        if (auto fix = propose_prepare(line, finding)) return fix;
    }

    const std::string sanitizer = preferred_sanitizer(kb, finding.kind);
    if (sanitizer.empty()) return std::nullopt;
    const size_t pos = find_expression(line, finding.variable, finding.sink);
    if (pos == std::string_view::npos) return std::nullopt;

    Quickfix fix;
    fix.kind = Quickfix::Kind::kSanitizeWrap;
    fix.file = finding.location.file;
    fix.line = finding.location.line;
    fix.before = std::string(line);
    fix.after = std::string(line.substr(0, pos)) + sanitizer + "(" +
                finding.variable + ")" +
                std::string(line.substr(pos + finding.variable.size()));
    fix.note = "wrap sink argument in " + sanitizer + "()";
    return fix;
}

std::optional<std::string> apply_quickfix(const php::Project& project,
                                          const Quickfix& fix) {
    const php::ParsedFile* file = project.file_named(fix.file);
    if (!file || !file->source || fix.line < 1) return std::nullopt;
    if (file->source->line(fix.line) != fix.before) return std::nullopt;

    const std::string_view text = file->source->text();
    size_t start = 0;
    for (int n = 1; n < fix.line; ++n) {
        start = text.find('\n', start);
        if (start == std::string_view::npos) return std::nullopt;
        ++start;
    }
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();

    std::string patched(text.substr(0, start));
    patched += fix.after;
    patched += text.substr(end);
    return patched;
}

}  // namespace phpsafe::validate
