// Dynamic-validator tests: static findings replayed with attack payloads.
// True vulnerabilities must be confirmed; runtime-guarded false alarms
// (is_numeric + exit, whitelists, casts) must be rejected — static analysis
// proposes, dynamic execution disposes.
#include <gtest/gtest.h>

#include "baselines/analyzers.h"
#include "core/analyzer.h"
#include "corpus/patterns.h"
#include "dynamic/validator.h"
#include "php/project.h"

namespace phpsafe::dynamic {
namespace {

struct Pipeline {
    php::Project project{"v"};
    AnalysisResult analysis;
};

Pipeline analyze(const std::string& code) {
    Pipeline p;
    p.project.add_file("main.php", code);
    DiagnosticSink sink;
    p.project.parse_all(sink);
    const Tool tool = make_phpsafe_tool();
    p.analysis =
        Analyzer::borrowing(tool.kb, tool.options).scan(p.project).result;
    return p;
}

TEST(ValidatorTest, ReflectedXssConfirmed) {
    Pipeline p = analyze("<?php echo '<p>' . $_GET['msg'] . '</p>';");
    ASSERT_EQ(p.analysis.findings.size(), 1u);
    Validator validator(p.project);
    const ValidationResult v = validator.validate(p.analysis.findings[0]);
    EXPECT_TRUE(v.confirmed);
    EXPECT_NE(v.evidence.find("<script>"), std::string::npos);
}

TEST(ValidatorTest, SanitizedEchoNotConfirmed) {
    // Force a fake finding on properly sanitized code: the validator must
    // reject it (the payload arrives escaped).
    Pipeline p = analyze("<?php echo htmlspecialchars($_GET['msg']);");
    EXPECT_TRUE(p.analysis.findings.empty());
    Finding fake;
    fake.kind = VulnKind::kXss;
    fake.location = {"main.php", 1};
    fake.vector = InputVector::kGet;
    Validator validator(p.project);
    EXPECT_FALSE(validator.validate(fake).confirmed);
}

TEST(ValidatorTest, StoredXssThroughWpdbConfirmed) {
    Pipeline p = analyze(
        "<?php global $wpdb;\n"
        "$rows = $wpdb->get_results(\"SELECT * FROM t\");\n"
        "foreach ($rows as $row) { echo '<li>' . $row->name . '</li>'; }");
    ASSERT_EQ(p.analysis.findings.size(), 1u);
    EXPECT_EQ(p.analysis.findings[0].vector, InputVector::kDatabase);
    Validator validator(p.project);
    EXPECT_TRUE(validator.validate(p.analysis.findings[0]).confirmed);
}

TEST(ValidatorTest, SqliThroughWpdbConfirmed) {
    Pipeline p = analyze(
        "<?php global $wpdb;\n"
        "$id = $_GET['id'];\n"
        "$wpdb->query(\"DELETE FROM t WHERE id = '$id'\");");
    ASSERT_EQ(p.analysis.findings.size(), 1u);
    Validator validator(p.project);
    const ValidationResult v = validator.validate(p.analysis.findings[0]);
    EXPECT_TRUE(v.confirmed);
    EXPECT_NE(v.evidence.find("OR '1337'"), std::string::npos);
}

TEST(ValidatorTest, PreparedQueryNotConfirmed) {
    Pipeline p = analyze(
        "<?php global $wpdb;\n"
        "$id = $_POST['id'];\n"
        "$wpdb->query($wpdb->prepare(\"DELETE FROM t WHERE name = %s\", $id));");
    EXPECT_TRUE(p.analysis.findings.empty());
    Finding fake;
    fake.kind = VulnKind::kSqli;
    fake.location = {"main.php", 1};
    fake.vector = InputVector::kPost;
    Validator validator(p.project);
    EXPECT_FALSE(validator.validate(fake).confirmed);
}

TEST(ValidatorTest, GuardExitFalseAlarmRejected) {
    // The static engine flags this (exit is not modeled); dynamically the
    // guard stops the payload — the FP is correctly rejected.
    Pipeline p = analyze(
        "<?php $n = $_GET['n'];\n"
        "if (!is_numeric($n)) { exit; }\n"
        "echo '<p>' . $n . '</p>';");
    ASSERT_EQ(p.analysis.findings.size(), 1u);  // static FP
    Validator validator(p.project);
    EXPECT_FALSE(validator.validate(p.analysis.findings[0]).confirmed);
}

TEST(ValidatorTest, WhitelistFalseAlarmRejected) {
    Pipeline p = analyze(
        "<?php $t = in_array($_GET['tab'], array('a', 'b')) ? $_GET['tab'] : 'a';\n"
        "echo $t;");
    ASSERT_EQ(p.analysis.findings.size(), 1u);  // static FP (merged ternary)
    Validator validator(p.project);
    EXPECT_FALSE(validator.validate(p.analysis.findings[0]).confirmed);
}

TEST(ValidatorTest, SprintfDigitFalseAlarmRejected) {
    Pipeline p = analyze("<?php echo sprintf('%d items', $_GET['n']);");
    ASSERT_EQ(p.analysis.findings.size(), 1u);  // static FP (propagation)
    Validator validator(p.project);
    EXPECT_FALSE(validator.validate(p.analysis.findings[0]).confirmed);
}

TEST(ValidatorTest, SqliGuardFalseAlarmRejected) {
    Pipeline p = analyze(
        "<?php global $wpdb;\n"
        "$id = $_POST['id'];\n"
        "if (!ctype_digit($id)) { die('bad'); }\n"
        "$wpdb->query(\"DELETE FROM t WHERE id = $id\");");
    ASSERT_EQ(p.analysis.findings.size(), 1u);  // static SQLi FP
    Validator validator(p.project);
    EXPECT_FALSE(validator.validate(p.analysis.findings[0]).confirmed);
}

TEST(ValidatorTest, RevertedSanitizationConfirmed) {
    // The paper's wp-photo-album-plus pattern: stored value echoed through
    // stripslashes — the payload survives.
    Pipeline p = analyze(
        "<?php global $wpdb;\n"
        "$image = $wpdb->get_var($wpdb->prepare(\"SELECT %s FROM t\", 'x'));\n"
        "echo stripslashes($image);");
    ASSERT_EQ(p.analysis.findings.size(), 1u);
    Validator validator(p.project);
    EXPECT_TRUE(validator.validate(p.analysis.findings[0]).confirmed);
}

TEST(ValidatorTest, FileSourceConfirmed) {
    Pipeline p = analyze(
        "<?php $fp = fopen('x.txt', 'r'); $res = fgets($fp, 128); echo $res;");
    ASSERT_EQ(p.analysis.findings.size(), 1u);
    Validator validator(p.project);
    EXPECT_TRUE(validator.validate(p.analysis.findings[0]).confirmed);
}

TEST(ValidatorTest, CookieVectorConfirmed) {
    Pipeline p = analyze("<?php echo $_COOKIE['session_note'];");
    ASSERT_EQ(p.analysis.findings.size(), 1u);
    Validator validator(p.project);
    EXPECT_TRUE(validator.validate(p.analysis.findings[0]).confirmed);
}

TEST(ValidatorTest, OopPropertyFlowConfirmed) {
    Pipeline p = analyze(
        "<?php class W {\n"
        "  public $c = '';\n"
        "  public function set() { $this->c = $_POST['c']; }\n"
        "  public function render() { echo $this->c; }\n"
        "}\n"
        "$w = new W(); $w->set(); $w->render();");
    ASSERT_EQ(p.analysis.findings.size(), 1u);
    Validator validator(p.project);
    EXPECT_TRUE(validator.validate(p.analysis.findings[0]).confirmed);
}

TEST(ValidatorTest, HookClosureConfirmed) {
    Pipeline p = analyze(
        "<?php add_action('init', function () { echo $_GET['q']; });");
    ASSERT_EQ(p.analysis.findings.size(), 1u);
    Validator validator(p.project);
    EXPECT_TRUE(validator.validate(p.analysis.findings[0]).confirmed);
}

// Sweep: every vulnerable corpus family whose flow executes from the main
// file must be dynamically confirmable; every safe family must be rejected.
struct FamilyExpectation {
    corpus::Family family;
    bool confirmable;
};

// Names the ctest case after the family. Without it gtest prints the raw
// bytes of the struct, padding included, which differ between builds.
void PrintTo(const FamilyExpectation& e, std::ostream* os) {
    *os << to_string(e.family);
}

class DynamicFamilySweep : public ::testing::TestWithParam<FamilyExpectation> {};

TEST_P(DynamicFamilySweep, MatchesExpectation) {
    const FamilyExpectation param = GetParam();
    const corpus::Snippet snippet = corpus::emit(param.family, "dv0", 1);
    std::string code = "<?php\n";
    for (const std::string& line : snippet.lines) code += line + "\n";

    php::Project project("sweep");
    project.add_file("main.php", code);
    DiagnosticSink sink;
    project.parse_all(sink);
    const Tool tool = make_phpsafe_tool();
    const AnalysisResult analysis =
        Analyzer::borrowing(tool.kb, tool.options).scan(project).result;

    Validator validator(project);
    bool any_confirmed = false;
    for (const Finding& finding : analysis.findings)
        if (validator.validate(finding).confirmed) any_confirmed = true;

    if (param.confirmable) {
        ASSERT_FALSE(analysis.findings.empty()) << to_string(param.family);
        EXPECT_TRUE(any_confirmed) << to_string(param.family);
    } else {
        EXPECT_FALSE(any_confirmed) << to_string(param.family);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Families, DynamicFamilySweep,
    ::testing::Values(FamilyExpectation{corpus::Family::kXssGetEcho, true},
                      FamilyExpectation{corpus::Family::kXssPostEcho, true},
                      FamilyExpectation{corpus::Family::kXssCookieEcho, true},
                      FamilyExpectation{corpus::Family::kXssDbProcedural, true},
                      FamilyExpectation{corpus::Family::kXssFileSource, true},
                      FamilyExpectation{corpus::Family::kXssWpdbRows, true},
                      FamilyExpectation{corpus::Family::kXssWpdbVar, true},
                      FamilyExpectation{corpus::Family::kXssWpdbRevert, true},
                      FamilyExpectation{corpus::Family::kXssOopProperty, true},
                      FamilyExpectation{corpus::Family::kXssWpOption, true},
                      FamilyExpectation{corpus::Family::kSqliWpdbQuery, true},
                      FamilyExpectation{corpus::Family::kSqliMysqliOop, true},
                      FamilyExpectation{corpus::Family::kXssPrintfGet, true},
                      FamilyExpectation{corpus::Family::kXssExitMessage, true},
                      FamilyExpectation{corpus::Family::kXssPregMatchFlow, true},
                      FamilyExpectation{corpus::Family::kSafeGuardExit, false},
                      FamilyExpectation{corpus::Family::kSafeWhitelistTernary, false},
                      FamilyExpectation{corpus::Family::kSafeSprintfD, false},
                      FamilyExpectation{corpus::Family::kSafeSqliGuard, false},
                      FamilyExpectation{corpus::Family::kSafePrepare, false},
                      FamilyExpectation{corpus::Family::kSafeSanitizedEcho, false},
                      FamilyExpectation{corpus::Family::kSafeJsonEncode, false},
                      FamilyExpectation{corpus::Family::kSafeIntval, false},
                      FamilyExpectation{corpus::Family::kSafeCast, false}));

// Differential property across structural variants: whenever the static
// engine reports a finding for a *vulnerable* family instance, the dynamic
// replay must confirm at least one report — and for *safe* families it
// must confirm none — regardless of the cosmetic shape the generator
// chose. This cross-checks the two independently-implemented semantics
// (abstract taint vs concrete execution) against each other.
class DifferentialVariantSweep : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialVariantSweep, StaticAndDynamicAgree) {
    const int variant = GetParam();
    const struct {
        corpus::Family family;
        bool vulnerable;
    } cases[] = {
        {corpus::Family::kXssGetEcho, true},
        {corpus::Family::kXssPostEcho, true},
        {corpus::Family::kXssCookieEcho, true},
        {corpus::Family::kXssDbProcedural, true},
        {corpus::Family::kXssWpdbRows, true},
        {corpus::Family::kSqliWpdbQuery, true},
        {corpus::Family::kSafeGuardExit, false},
        {corpus::Family::kSafeSanitizedEcho, false},
        {corpus::Family::kSafeIntval, false},
        {corpus::Family::kSafePrepare, false},
    };
    for (const auto& c : cases) {
        const corpus::Snippet snippet = corpus::emit(c.family, "dd0", variant);
        std::string code = "<?php\n";
        for (const std::string& line : snippet.lines) code += line + "\n";

        php::Project project("diff");
        project.add_file("main.php", code);
        DiagnosticSink sink;
        project.parse_all(sink);
        const Tool tool = make_phpsafe_tool();
        const AnalysisResult analysis =
            Analyzer::borrowing(tool.kb, tool.options).scan(project).result;

        Validator validator(project);
        bool any_confirmed = false;
        for (const Finding& finding : analysis.findings)
            if (validator.validate(finding).confirmed) any_confirmed = true;

        EXPECT_EQ(any_confirmed, c.vulnerable)
            << to_string(c.family) << " variant " << variant << "\n" << code;
    }
}

INSTANTIATE_TEST_SUITE_P(Variants, DifferentialVariantSweep,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace phpsafe::dynamic
