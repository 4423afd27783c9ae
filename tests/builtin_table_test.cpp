// The interpreter's built-in table against the knowledge base. The two lists
// stay separate on purpose — the KB's roles differ per profile and the
// seeded-fault fuzz tests remove rules from one KB instance — so these
// checks are what keeps them from drifting: every KB sanitizer, revert and
// sink has a row (implemented, or opaque with a reason), and every sanitizer
// the quickfix engine or the fuzz mutator writes into code is implemented.
// The lookup-order tests pin how rows interact with plugin definitions.
#include <gtest/gtest.h>

#include <cctype>
#include <utility>
#include <vector>

#include "config/knowledge.h"
#include "dynamic/interpreter.h"
#include "fuzz/mutator.h"
#include "php/project.h"
#include "validate/quickfix.h"

namespace phpsafe::dynamic {
namespace {

std::vector<std::pair<std::string, KnowledgeBase>> all_profiles() {
    std::vector<std::pair<std::string, KnowledgeBase>> profiles;
    profiles.emplace_back("generic", make_generic_php_kb());
    profiles.emplace_back("wordpress", make_generic_php_kb());
    add_wordpress_profile(profiles.back().second);
    profiles.emplace_back("drupal", make_generic_php_kb());
    add_drupal_profile(profiles.back().second);
    profiles.emplace_back("joomla", make_generic_php_kb());
    add_joomla_profile(profiles.back().second);
    profiles.emplace_back("pixy-era", make_pixy_era_kb());
    return profiles;
}

const Interpreter::Builtin* row(std::string_view key) {
    const auto it = Interpreter::builtins().find(key);
    return it == Interpreter::builtins().end() ? nullptr : &it->second;
}

TEST(BuiltinTableTest, EveryKbSanitizerRevertAndSinkHasARow) {
    for (const auto& [profile, kb] : all_profiles()) {
        for (const KnowledgeBase::FunctionMap* entries : {&kb.functions(), &kb.methods()}) {
            for (const auto& [key, info] : *entries) {
                if (!info.is_sanitizer() && !info.is_revert() && !info.is_sink()) continue;
                EXPECT_NE(row(key), nullptr)
                    << profile << " profile: '" << key
                    << "' has a sanitizer, revert or sink role but no built-in row; "
                       "implement it or add an opaque row with a reason";
            }
        }
    }
}

TEST(BuiltinTableTest, EveryEmittedSanitizerIsImplemented) {
    for (VulnKind kind : {VulnKind::kXss, VulnKind::kSqli})
        for (const std::string& name : validate::sanitizer_preference(kind)) {
            const Interpreter::Builtin* b = row(name);
            ASSERT_NE(b, nullptr) << "quickfix sanitizer " << name;
            EXPECT_FALSE(b->opaque()) << "quickfix sanitizer " << name;
        }
    const KnowledgeBase generic = make_generic_php_kb();
    for (const std::string& name : fuzz::splice_sanitizers()) {
        const Interpreter::Builtin* b = row(name);
        ASSERT_NE(b, nullptr) << "spliced sanitizer " << name;
        EXPECT_FALSE(b->opaque()) << "spliced sanitizer " << name;
        const FunctionInfo* info = generic.function(name);
        ASSERT_NE(info, nullptr) << "spliced sanitizer " << name;
        EXPECT_TRUE(info->sanitizes.contains(VulnKind::kXss)) << "spliced sanitizer " << name;
    }
}

TEST(BuiltinTableTest, KeysAreLowercaseAndOpaqueRowsSayWhy) {
    for (const auto& [key, b] : Interpreter::builtins()) {
        for (char c : key)
            EXPECT_FALSE(std::isupper(static_cast<unsigned char>(c))) << key;
        EXPECT_EQ(b.opaque(), !b.opaque_reason.empty()) << key;
    }
}

ExecResult run(const std::string& code) {
    php::Project project("builtins");
    project.add_file("main.php", code);
    DiagnosticSink sink;
    project.parse_all(sink);
    Interpreter interpreter(project);
    return interpreter.run_file("main.php");
}

TEST(BuiltinTableTest, ImplementedRowTakesPrecedenceOverPluginFunction) {
    const ExecResult r = run(
        "<?php function htmlspecialchars($s) { return 'plugin'; }\n"
        "echo htmlspecialchars('<b>');");
    EXPECT_EQ(r.output, "&lt;b&gt;");
}

TEST(BuiltinTableTest, OpaqueRowFallsThroughToPluginFunctionOrNull) {
    ASSERT_TRUE(row("esc_url") && row("esc_url")->opaque());
    EXPECT_EQ(run("<?php function esc_url($u) { return 'plugin:' . $u; }\n"
                  "echo esc_url('x');")
                  .output,
              "plugin:x");
    EXPECT_EQ(run("<?php echo 'a', esc_url('x'), 'b';").output, "ab");
}

TEST(BuiltinTableTest, WpdbReceiverNeverReachesPluginMethods) {
    const ExecResult r = run(
        "<?php class wpdb {\n"
        "  function get_var($q) { return 'plugin'; }\n"
        "  function custom() { return 'plugin'; }\n"
        "}\n"
        "echo $wpdb->get_var('q'), '|', $wpdb->custom(), '|';");
    EXPECT_EQ(r.output, "db-value||");
}

}  // namespace
}  // namespace phpsafe::dynamic
