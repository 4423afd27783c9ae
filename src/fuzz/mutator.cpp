#include "fuzz/mutator.h"

#include <algorithm>
#include <cctype>

#include "util/strings.h"

namespace phpsafe::fuzz {

const std::vector<std::string>& splice_sanitizers() {
    static const std::vector<std::string> fns = {
        "htmlspecialchars", "htmlentities", "strip_tags", "intval"};
    return fns;
}

namespace {

/// Joins snippet lines into a PHP file. Line 1 is the open tag, so snippet
/// line `offset` (0-based) lands on file line `offset + 2`.
std::string assemble(const std::vector<std::string>& lines) {
    std::string text = "<?php\n";
    for (const std::string& line : lines) {
        text += line;
        text += '\n';
    }
    return text;
}

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    size_t start = 0;
    while (start <= text.size()) {
        const size_t nl = text.find('\n', start);
        if (nl == std::string::npos) {
            if (start < text.size()) lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
    std::string text;
    for (const std::string& line : lines) {
        text += line;
        text += '\n';
    }
    return text;
}

bool declares_function(const std::string& text) {
    return text.find("function ") != std::string::npos;
}

}  // namespace

int FuzzCase::total_lines() const {
    int n = 0;
    for (const FuzzFile& f : files)
        n += static_cast<int>(split_lines(f.text).size());
    return n;
}

const std::vector<corpus::Family>& Mutator::agreement_families() {
    using corpus::Family;
    // Constructs both executions model concretely: superglobal reads,
    // echo/print, user-function calls, the generic sanitizer/guard idioms.
    // DB/file-source and WP-profile families are excluded — their dynamic
    // seeding depends on stub conventions, not on the flow under test.
    static const std::vector<Family> families = {
        Family::kXssGetEcho,          Family::kXssPostEcho,
        Family::kXssCookieEcho,       Family::kXssRequestPrint,
        Family::kXssGetViaFunction,   Family::kSafeSanitizedEcho,
        Family::kSafeGuardExit,       Family::kSafeWhitelistTernary,
        Family::kSafeIntval,          Family::kSafeCast,
    };
    return families;
}

const std::vector<corpus::Family>& Mutator::monotonic_families() {
    using corpus::Family;
    // Procedural generic PHP only: no WordPress functions (unknown to the
    // rips preset, which would over-report), no OOP, no deep includes.
    static const std::vector<Family> families = {
        Family::kXssGetEcho,          Family::kXssPostEcho,
        Family::kXssCookieEcho,       Family::kXssRequestPrint,
        Family::kXssGetViaFunction,   Family::kXssDbProcedural,
        Family::kXssFileSource,       Family::kXssUncalledFn,
        Family::kXssPrintfGet,        Family::kXssPregMatchFlow,
        Family::kXssExitMessage,      Family::kSafeSanitizedEcho,
        Family::kSafeGuardExit,       Family::kSafeWhitelistTernary,
        Family::kSafeIntval,          Family::kSafeCast,
        Family::kSafeSprintfD,
    };
    return families;
}

FuzzCase Mutator::seed_case() {
    FuzzCase c;
    c.name = "seed";
    c.files.push_back({"main.php",
                       "<?php\n$q_seed = $_GET['q'];\n"
                       "echo '<b>' . $q_seed . '</b>';\n"});
    c.sinks.push_back({"main.php", 3, VulnKind::kXss, InputVector::kGet});
    c.agreement_eligible = true;
    c.monotonic_eligible = true;
    return c;
}

FuzzCase Mutator::structure_case_for(corpus::Family family, int index,
                                     int variant) {
    const std::string tag = "fz" + std::to_string(index);
    const corpus::Snippet snippet = corpus::emit(family, tag, variant);
    const corpus::FamilyTraits t = corpus::traits(family);

    FuzzCase c;
    c.name = "case-" + std::to_string(index);
    c.files.push_back({"main.php", assemble(snippet.lines)});
    for (const int offset : snippet.sink_line_offsets)
        c.sinks.push_back({"main.php", offset + 2, t.kind, t.vector});
    const auto& agree = agreement_families();
    c.agreement_eligible =
        std::find(agree.begin(), agree.end(), family) != agree.end();
    const auto& mono = monotonic_families();
    c.monotonic_eligible =
        std::find(mono.begin(), mono.end(), family) != mono.end();
    return c;
}

FuzzCase Mutator::structure_case(int index) {
    const int variant = static_cast<int>(rng_.below(4));
    FuzzCase c;
    if (rng_.chance(30)) {
        // Multi-snippet procedural file: monotonicity/no-crash/determinism
        // material. Several sinks per file make per-sink dynamic validation
        // ambiguous (any echoed payload confirms every candidate), so
        // agreement is off.
        const std::string tag = "fz" + std::to_string(index);
        std::vector<std::string> lines;
        bool has_decls = false;
        const size_t count = 2 + rng_.below(2);
        c.name = "case-" + std::to_string(index);
        for (size_t i = 0; i < count; ++i) {
            const corpus::Family family = rng_.pick(monotonic_families());
            const corpus::Snippet snippet =
                corpus::emit(family, tag + "_" + std::to_string(i),
                             static_cast<int>(rng_.below(4)));
            const corpus::FamilyTraits t = corpus::traits(family);
            for (const int offset : snippet.sink_line_offsets)
                c.sinks.push_back({"main.php",
                                   static_cast<int>(lines.size()) + offset + 2,
                                   t.kind, t.vector});
            lines.insert(lines.end(), snippet.lines.begin(),
                         snippet.lines.end());
            has_decls = has_decls || !snippet.declared_functions.empty();
        }
        c.files.push_back({"main.php", assemble(lines)});
        c.monotonic_eligible = true;
        (void)has_decls;
    } else {
        c = structure_case_for(rng_.pick(agreement_families()), index, variant);
        c.name = "case-" + std::to_string(index);
    }
    apply_structure_mutations(c);
    return c;
}

void Mutator::apply_structure_mutations(FuzzCase& c) {
    if (rng_.chance(25)) splice_sanitizer(c);
    if (rng_.chance(30))
        rename_tag(c, "fz", "zz" + std::to_string(tag_counter_++) + "t");
    const bool has_decls = declares_function(c.files.front().text);
    switch (rng_.below(5)) {
        case 0:
            if (!has_decls) wrap_in_function(c);
            break;
        case 1:
            if (!has_decls) wrap_in_method(c);
            break;
        case 2:
            if (!has_decls) wrap_in_closure(c);
            break;
        default: break;  // no wrap
    }
    if (c.files.size() == 1 && rng_.chance(20)) split_include(c);
    if (c.files.size() > 1 && rng_.chance(50))
        std::swap(c.files.front(), c.files.back());
}

void Mutator::splice_sanitizer(FuzzCase& c) {
    FuzzFile& file = c.files[rng_.below(c.files.size())];
    std::string& text = file.text;
    // Collect every superglobal element read: "$_NAME['key']".
    std::vector<std::pair<size_t, size_t>> reads;  // [begin, end)
    for (size_t p = text.find("$_"); p != std::string::npos;
         p = text.find("$_", p + 1)) {
        size_t q = p + 2;
        while (q < text.size() &&
               (std::isupper(static_cast<unsigned char>(text[q])) ||
                text[q] == '_'))
            ++q;
        if (q >= text.size() || text[q] != '[' || q == p + 2) continue;
        const size_t close = text.find(']', q);
        if (close == std::string::npos || text.find('\n', q) < close) continue;
        reads.emplace_back(p, close + 1);
    }
    if (reads.empty()) return;
    const auto [begin, end] = reads[rng_.below(reads.size())];
    const std::string& fn = rng_.pick(splice_sanitizers());
    // Single-line rewrite, so no sink line shifts.
    text = text.substr(0, begin) + fn + "(" + text.substr(begin, end - begin) +
           ")" + text.substr(end);
}

void Mutator::rename_tag(FuzzCase& c, const std::string& from,
                         const std::string& to) {
    for (FuzzFile& file : c.files) file.text = replace_all(file.text, from, to);
}

void Mutator::wrap_in_function(FuzzCase& c) {
    FuzzFile& file = c.files.front();
    std::vector<std::string> lines = split_lines(file.text);
    if (lines.empty() || lines.front() != "<?php") return;
    const std::string fn = "fuzz_entry_" + std::to_string(tag_counter_++);
    std::vector<std::string> wrapped = {"<?php", "function " + fn + "() {"};
    for (size_t i = 1; i < lines.size(); ++i)
        wrapped.push_back("    " + lines[i]);
    wrapped.push_back("}");
    wrapped.push_back(fn + "();");
    file.text = join_lines(wrapped);
    for (SinkSite& site : c.sinks)
        if (site.file == file.name) site.line += 1;
}

void Mutator::wrap_in_method(FuzzCase& c) {
    FuzzFile& file = c.files.front();
    std::vector<std::string> lines = split_lines(file.text);
    if (lines.empty() || lines.front() != "<?php") return;
    const std::string cls = "FuzzCase" + std::to_string(tag_counter_++);
    std::vector<std::string> wrapped = {"<?php", "class " + cls + " {",
                                        "    public function run() {"};
    for (size_t i = 1; i < lines.size(); ++i)
        wrapped.push_back("        " + lines[i]);
    wrapped.push_back("    }");
    wrapped.push_back("}");
    wrapped.push_back("$case = new " + cls + "();");
    wrapped.push_back("$case->run();");
    file.text = join_lines(wrapped);
    for (SinkSite& site : c.sinks)
        if (site.file == file.name) site.line += 2;
    // The rips preset has no OOP member resolution; the subset relation no
    // longer holds by construction.
    c.monotonic_eligible = false;
}

void Mutator::wrap_in_closure(FuzzCase& c) {
    FuzzFile& file = c.files.front();
    std::vector<std::string> lines = split_lines(file.text);
    if (lines.empty() || lines.front() != "<?php") return;
    const std::string var = "$fuzz_cl_" + std::to_string(tag_counter_++);
    std::vector<std::string> wrapped = {"<?php", var + " = function () {"};
    for (size_t i = 1; i < lines.size(); ++i)
        wrapped.push_back("    " + lines[i]);
    wrapped.push_back("};");
    wrapped.push_back(var + "();");
    file.text = join_lines(wrapped);
    for (SinkSite& site : c.sinks)
        if (site.file == file.name) site.line += 1;
    // Calls through closure-valued variables are opaque to the static
    // engine and the presets differ on closure bodies: only the no-crash
    // and determinism oracles stay sound.
    c.agreement_eligible = false;
    c.monotonic_eligible = false;
}

void Mutator::split_include(FuzzCase& c) {
    const std::string inc = "inc_" + std::to_string(tag_counter_++) + ".php";
    FuzzFile body = c.files.front();
    const std::string main_name = body.name;
    body.name = inc;
    FuzzFile main{main_name, "<?php\ninclude '" + inc + "';\n"};
    c.files.clear();
    c.files.push_back(main);
    c.files.push_back(body);
    // The moved file keeps its line numbers; candidate sinks now live (and
    // are validated) in the include target, which stays self-contained.
    for (SinkSite& site : c.sinks)
        if (site.file == main_name) site.file = inc;
}

FuzzCase Mutator::byte_case(const FuzzCase& base, int index) {
    static const std::vector<std::string> dictionary = {
        "<?php", "?>",   "'",         "\"",       "<<<EOT", "EOT;",
        "/*",    "*/",   "${",        "}",        "((((",   "))))",
        "\\",    "echo", "$_GET['x']", "function", "include 'main.php';",
        std::string(1, '\0'), "\xff", "\xc3\xa9"};

    FuzzCase c;
    c.name = "byte-" + std::to_string(index);
    c.files = base.files;
    c.byte_level = true;

    std::string& text = c.files[rng_.below(c.files.size())].text;
    const size_t ops = 1 + rng_.below(8);
    for (size_t i = 0; i < ops && !text.empty(); ++i) {
        const size_t pos = rng_.below(text.size());
        switch (rng_.below(6)) {
            case 0:  // flip one bit
                text[pos] = static_cast<char>(
                    static_cast<unsigned char>(text[pos]) ^
                    (1u << rng_.below(8)));
                break;
            case 1:  // insert a random byte
                text.insert(pos, 1, static_cast<char>(rng_.below(256)));
                break;
            case 2: {  // delete a short span
                const size_t len =
                    std::min<size_t>(1 + rng_.below(16), text.size() - pos);
                text.erase(pos, len);
                break;
            }
            case 3: {  // duplicate a short span
                const size_t len =
                    std::min<size_t>(1 + rng_.below(16), text.size() - pos);
                text.insert(pos, text.substr(pos, len));
                break;
            }
            case 4:  // truncate
                text.erase(pos);
                break;
            default:  // splice a dictionary token
                text.insert(pos, rng_.pick(dictionary));
                break;
        }
    }
    if (text.empty()) text = "<?";
    return c;
}

}  // namespace phpsafe::fuzz
