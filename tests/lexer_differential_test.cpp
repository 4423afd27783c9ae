// Differential tests for the first-byte-dispatch lexer: on every input the
// token stream (kind, text, value, parts, line), the diagnostics and the
// lexer's two counters must equal those of the substring-probing lexer it
// replaced, frozen under tests/support/. Inputs: both corpus versions, the
// scale-1 monorepo, the fuzz regression cases, 2,000 byte-mutated cases and
// every prefix of a hand-written file that exercises each construct — so
// truncation inside any construct is covered.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "fuzz/fuzzer.h"
#include "fuzz/mutator.h"
#include "obs/counters.h"
#include "php/lexer.h"
#include "support/reference_lexer.h"

#ifndef PHPSAFE_FUZZ_CORPUS_DIR
#define PHPSAFE_FUZZ_CORPUS_DIR "tests/fuzz_corpus/regressions"
#endif

namespace phpsafe::php {
namespace {

struct LexedCounters {
    uint64_t tokens = 0;
    uint64_t bytes_saved = 0;
};

template <typename LexerType>
auto lex_with(const SourceFile& file, Arena& arena, DiagnosticSink& sink,
              bool keep_comments, LexedCounters& counters) {
    typename LexerType::Options options;
    options.keep_comments = keep_comments;
    const obs::CounterDelta delta;
    auto tokens = LexerType(file, arena, sink, options).tokenize();
    const obs::Counters used = delta.take();
    counters.tokens = used.tokens_lexed;
    counters.bytes_saved = used.alloc_string_bytes_saved;
    return tokens;
}

/// Lexes `text` with both lexers; returns a description of the first
/// difference, or "" when they agree on everything.
std::string difference(const std::string& name, const std::string& text,
                       bool keep_comments) {
    const SourceFile file(name, text);
    Arena arena, ref_arena;
    DiagnosticSink sink, ref_sink;
    LexedCounters counters, ref_counters;
    const auto tokens = lex_with<Lexer>(file, arena, sink, keep_comments, counters);
    const auto ref = lex_with<reference::Lexer>(file, ref_arena, ref_sink,
                                                keep_comments, ref_counters);
    std::ostringstream diff;
    if (tokens.size() != ref.size())
        diff << "token count " << tokens.size() << " vs " << ref.size();
    const size_t common = std::min(tokens.size(), ref.size());
    for (size_t i = 0; diff.str().empty() && i < common; ++i) {
        const Token& t = tokens[i];
        const reference::Token& r = ref[i];
        bool parts_equal = t.parts.size() == r.parts.size();
        for (size_t p = 0; parts_equal && p < r.parts.size(); ++p)
            parts_equal = static_cast<int>(t.parts[p].kind) ==
                              static_cast<int>(r.parts[p].kind) &&
                          t.parts[p].text == r.parts[p].text;
        if (static_cast<int>(t.kind) != static_cast<int>(r.kind) ||
            t.text != r.text || t.value != r.value || t.line != r.line ||
            !parts_equal)
            diff << "token " << i << ": " << to_string(t.kind) << " '" << t.text
                 << "' line " << t.line << " vs " << reference::to_string(r.kind)
                 << " '" << r.text << "' line " << r.line
                 << (parts_equal ? "" : " (parts differ)");
    }
    const auto& diags = sink.diagnostics();
    const auto& ref_diags = ref_sink.diagnostics();
    if (diff.str().empty() && diags.size() != ref_diags.size())
        diff << "diagnostic count " << diags.size() << " vs " << ref_diags.size();
    for (size_t i = 0; diff.str().empty() && i < diags.size(); ++i)
        if (diags[i].severity != ref_diags[i].severity ||
            !(diags[i].location == ref_diags[i].location) ||
            diags[i].message != ref_diags[i].message)
            diff << "diagnostic " << i << ": " << diags[i].message << " vs "
                 << ref_diags[i].message;
    if (diff.str().empty() && (counters.tokens != ref_counters.tokens ||
                               counters.bytes_saved != ref_counters.bytes_saved))
        diff << "counters " << counters.tokens << "/" << counters.bytes_saved
             << " vs " << ref_counters.tokens << "/" << ref_counters.bytes_saved;
    if (diff.str().empty()) return "";
    return name + (keep_comments ? " (keep_comments): " : ": ") + diff.str();
}

/// The first difference in either comment mode, or "".
std::string first_difference(const std::string& name, const std::string& text) {
    std::string diff = difference(name, text, false);
    return diff.empty() ? difference(name, text, true) : diff;
}

/// A file that exercises every construct the lexer knows, including the
/// malformed ones once truncated: each of its prefixes is an input.
std::string construct_file() {
    std::string text = R"(<html><?= $title ?>
<? echo 1; ?>
<?php
// line comment ?> html after a close tag in a comment
<?php # hash comment
#[Attribute(Attribute::TARGET_CLASS), Other([1, [2]])]
#* hash comment that starts like a block
/* block
   comment */ /** doc */
$a = $b ?? $c; $d ??= $e; $f?->g; $h->i; A::B; $j => $k;
$l++; $m--; $n ** 2; $o **= 3; $p == $q; $r != $s; $t <> $u;
$v === $w; $x !== $y; $z <=> 1; 1 <= 2; 3 >= 4; $a && $b; $a || $b;
1 << 2; 3 >> 4; $a += 1; $a -= 1; $a *= 1; $a /= 1; $a .= 'x';
$a %= 1; $a &= 1; $a |= 1; $a ^= 1; $a <<= 1; $a >>= 1; f(...$args);
+ - * / % . = < > ! ? : ; , ( ) { } [ ] & | ^ ~ @ $ ` \ .. ?- <? <=
$$name; $ 1; \Foo\Bar; -> ->x
ABSTRACT And ARRAY as Break CALLABLE case CATCH class CLONE const
continue DECLARE default DIE do ECHO else ELSEIF empty ENDDECLARE endfor
ENDFOREACH eval EXIT endif ENDSWITCH endwhile EXTENDS final FINALLY fn
FOR foreach FUNCTION global GOTO if IMPLEMENTS include INCLUDE_ONCE
instanceof INSTEADOF interface ISSET list MATCH namespace NEW or PRINT
private PROTECTED public READONLY require REQUIRE_ONCE return STATIC
switch THROW trait TRY unset USE var WHILE xor YIELD
Abstracts echoes include_once_ require_onceX integer boolean _if if_ fn2
(int) (INTEGER) ( bool ) (Boolean) (float) (double)(real) (string)
(array) (object) (unset) (binary) (Int )(	string	) (intx) () (in t)
0 7 1_000 0x1F 0XaB_c 0b101 0B1_1 1.5 .5 1. 1e3 1E+3 2e-7 3e 4e+ 0x 0b 1..2
'single' 'it\'s' 'back\\slash' 'other \n escape' '' 'multi
line'
"plain" "esc \n\t\r\v\f\e\\\$\" \x41\x4 \xZ \101\7\08 \q"
"Hello $name!" "$obj->prop" "$obj->" "$row['name']" "$a[0]" "$a[$i]"
"$a[ 'k' ]" "$a[key]" "$a[ 12 ]" "$a[unterminated" "${var}" "${}" "{$a->b['c']}"
"{$a{$b}}" "$" "$1" "\$escaped" "\{$x}" "{$unterminated" "${unterminated"
`ls $dir`
$h = <<<EOT
heredoc $name {$obj->p} ${x}
  EOT indented but not a terminator: EOTX
EOT;
$n = <<<'NOW'
nowdoc $name \n
NOW;
$q = <<< "QUOTED"
quoted $x
  QUOTED;
$e = <<<
empty label
;
)";
    // More interpolation parts than the lexer keeps on its stack.
    text += "$many = \"";
    for (int i = 0; i < 40; ++i) text += "$v" + std::to_string(i) + " ";
    text += "\";\n";
    text += "$nul = \"a";
    text.push_back('\0');
    text += "b\"; ";
    text.push_back('\0');
    text += " \x01 \x7f \x80\xff $\xc3\xa9t\xc3\xa9 = '\xe2\x82\xac'; caf\xc3\xa9();\r\n";
    text += "$crlf = 1;\r\n// crlf comment\r\n/* crlf\r\nblock */\r\n";
    text += "$h2 = <<<CR\r\nline\r\nCR;\r\n";
    text += "?>\ntrailing html <?php ?>";
    text += "\n<?php $t = <<<EOT\nunterminated heredoc";
    return text;
}

TEST(LexerDifferentialTest, EveryPrefixOfTheConstructFile) {
    const std::string text = construct_file();
    for (size_t n = 0; n <= text.size(); ++n)
        ASSERT_EQ(first_difference("prefix-" + std::to_string(n) + ".php",
                                   text.substr(0, n)),
                  "");
    // Unterminated constructs at EOF, each on its own.
    for (const char* tail :
         {"'open", "\"open $x", "/* open", "<<<EOT\nbody", "(int", "(int ",
          "#[open", "$", "?", "<<", "1e", "0x", "\"\\", "'\\"})
        ASSERT_EQ(first_difference("tail.php", std::string("<?php ") + tail), "");
}

TEST(LexerDifferentialTest, CorpusFilesOfBothVersions) {
    const corpus::Corpus corpus = corpus::generate_corpus(corpus::CorpusOptions{});
    size_t files = 0;
    for (const corpus::GeneratedPlugin& plugin : corpus.plugins)
        for (const corpus::PluginVersionSource* version :
             {&plugin.v2012, &plugin.v2014})
            for (const auto& [name, text] : version->files) {
                ASSERT_EQ(first_difference(
                              plugin.name + "/" + version->version + "/" + name, text),
                          "");
                ++files;
            }
    EXPECT_GE(files, 500u);
}

TEST(LexerDifferentialTest, MonorepoFiles) {
    const corpus::MonorepoSource repo = corpus::generate_monorepo({});
    for (const auto& [name, text] : repo.files) ASSERT_EQ(first_difference(name, text), "");
    EXPECT_GE(repo.files.size(), 1000u);
}

TEST(LexerDifferentialTest, FuzzRegressionCases) {
    size_t cases = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(PHPSAFE_FUZZ_CORPUS_DIR)) {
        if (entry.path().extension() != ".case") continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::stringstream buffer;
        buffer << in.rdbuf();
        fuzz::FuzzCase c;
        fuzz::Oracle oracle;
        ASSERT_TRUE(fuzz::parse_case(buffer.str(), c, oracle)) << entry.path();
        for (const fuzz::FuzzFile& f : c.files)
            ASSERT_EQ(first_difference(f.name, f.text), "");
        ++cases;
    }
    EXPECT_GE(cases, 3u);
}

TEST(LexerDifferentialTest, ByteMutatedCases) {
    fuzz::Mutator mutator(1);
    std::vector<fuzz::FuzzCase> bases = {fuzz::Mutator::seed_case()};
    for (int i = 0; i < 16; ++i) bases.push_back(mutator.structure_case(i));
    fuzz::FuzzCase constructs;
    constructs.files.push_back({"constructs.php", construct_file()});
    bases.push_back(constructs);
    for (int i = 0; i < 2000; ++i) {
        const fuzz::FuzzCase c = mutator.byte_case(bases[i % bases.size()], i);
        for (const fuzz::FuzzFile& f : c.files)
            ASSERT_EQ(first_difference(c.name + "/" + f.name, f.text), "");
    }
}

}  // namespace
}  // namespace phpsafe::php
