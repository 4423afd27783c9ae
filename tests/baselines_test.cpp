// Tests for the tool factories (baselines/analyzers.h): each baseline's
// capability envelope must match what the paper attributes to the tool —
// the envelope, not special-cased behaviour, is what produces Table I.
#include <gtest/gtest.h>

#include "baselines/analyzers.h"
#include "core/analyzer.h"

namespace phpsafe {
namespace {

TEST(ToolFactoryTest, PhpSafeConfiguration) {
    const Tool tool = make_phpsafe_tool();
    EXPECT_EQ(tool.name, "phpSAFE");
    EXPECT_TRUE(tool.options.oop_support);
    EXPECT_TRUE(tool.options.analyze_uncalled_functions);
    EXPECT_FALSE(tool.options.fail_on_oop_file);
    EXPECT_EQ(tool.options.max_include_depth, 8);  // paper §V.E failures
    // WordPress profile loaded out of the box (paper §III.A).
    EXPECT_NE(tool.kb.function("esc_html"), nullptr);
    EXPECT_NE(tool.kb.method("wpdb", "get_results"), nullptr);
    EXPECT_NE(tool.kb.known_global_class("$wpdb"), nullptr);
    EXPECT_FALSE(tool.kb.model_register_globals);
}

TEST(ToolFactoryTest, RipsLikeConfiguration) {
    const Tool tool = make_rips_like_tool();
    EXPECT_EQ(tool.name, "RIPS");
    EXPECT_FALSE(tool.options.oop_support);
    EXPECT_TRUE(tool.options.analyze_uncalled_functions);
    EXPECT_FALSE(tool.options.fail_on_oop_file);
    EXPECT_GT(tool.options.max_include_depth, 8);  // completed every file
    // Generic PHP knowledge only: no WordPress entries.
    EXPECT_EQ(tool.kb.function("esc_html"), nullptr);
    EXPECT_EQ(tool.kb.function("get_option"), nullptr);
    EXPECT_NE(tool.kb.function("htmlspecialchars"), nullptr);
    EXPECT_NE(tool.kb.function("mysql_query"), nullptr);
    EXPECT_FALSE(tool.kb.model_register_globals);
}

TEST(ToolFactoryTest, PixyLikeConfiguration) {
    const Tool tool = make_pixy_like_tool();
    EXPECT_EQ(tool.name, "Pixy");
    EXPECT_FALSE(tool.options.oop_support);
    EXPECT_TRUE(tool.options.fail_on_oop_file);       // predates PHP 5 OOP
    EXPECT_FALSE(tool.options.analyze_uncalled_functions);  // paper §V.A
    EXPECT_FALSE(tool.options.analyze_closures);      // closures are PHP 5.3
    EXPECT_TRUE(tool.kb.model_register_globals);      // 2007-era default
    // 2007-era tables: no mysqli, no WordPress.
    EXPECT_EQ(tool.kb.function("mysqli_real_escape_string"), nullptr);
    EXPECT_EQ(tool.kb.function("esc_html"), nullptr);
    EXPECT_NE(tool.kb.function("htmlentities"), nullptr);
}

TEST(ToolFactoryTest, FactoriesAreIndependent) {
    // Mutating one tool's options must not leak into another instance.
    Tool a = make_phpsafe_tool();
    a.options.oop_support = false;
    const Tool b = make_phpsafe_tool();
    EXPECT_TRUE(b.options.oop_support);
}

TEST(RunToolTest, FillsTimingAndIdentity) {
    php::Project project("timing");
    project.add_file("main.php", "<?php echo $_GET['x'];");
    DiagnosticSink sink;
    project.parse_all(sink);
    const AnalysisResult result = run_tool(make_phpsafe_tool(), project);
    EXPECT_EQ(result.tool, "phpSAFE");
    EXPECT_EQ(result.plugin, "timing");
    EXPECT_GE(result.cpu_seconds, 0.0);
    EXPECT_EQ(result.files_total, 1);
    EXPECT_EQ(result.findings.size(), 1u);
}

TEST(RunToolTest, SameProjectAcrossAllTools) {
    // One parsed project can be analyzed by every tool (analysis is const
    // with respect to the project).
    php::Project project("shared");
    project.add_file("main.php",
                     "<?php echo $_GET['a']; $o = new C(); echo $_POST['b'];");
    DiagnosticSink sink;
    project.parse_all(sink);
    const AnalysisResult phpsafe_r = run_tool(make_phpsafe_tool(), project);
    const AnalysisResult rips_r = run_tool(make_rips_like_tool(), project);
    const AnalysisResult pixy_r = run_tool(make_pixy_like_tool(), project);
    EXPECT_EQ(phpsafe_r.findings.size(), 2u);
    EXPECT_EQ(rips_r.findings.size(), 2u);
    EXPECT_TRUE(pixy_r.findings.empty());  // OOP construct fails the file
    // And phpSAFE again, to confirm no cross-tool state leaked.
    EXPECT_EQ(run_tool(make_phpsafe_tool(), project).findings.size(), 2u);
}

TEST(EngineOptionsTest, MaxCallDepthGuards) {
    Tool tool = make_phpsafe_tool();
    tool.options.max_call_depth = 2;
    php::Project project("depth");
    project.add_file("main.php",
                     "<?php function a($x) { return b($x); }\n"
                     "function b($x) { return c($x); }\n"
                     "function c($x) { return $x; }\n"
                     "echo a($_GET['q']);");
    DiagnosticSink sink;
    project.parse_all(sink);
    // Must terminate; detection may degrade to conservative propagation.
    const AnalysisResult r =
        Analyzer::borrowing(tool.kb, tool.options).scan(project).result;
    EXPECT_GE(r.findings.size(), 1u);
}

}  // namespace
}  // namespace phpsafe
