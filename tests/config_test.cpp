// Knowledge-base tests: VulnSet algebra, lookup semantics (case folding,
// method wildcards), and the content of the three shipped profiles.
#include <gtest/gtest.h>

#include "config/knowledge.h"

namespace phpsafe {
namespace {

TEST(VulnSetTest, BasicAlgebra) {
    VulnSet s = kXssOnly;
    EXPECT_TRUE(s.contains(VulnKind::kXss));
    EXPECT_FALSE(s.contains(VulnKind::kSqli));
    s |= kSqliOnly;
    EXPECT_EQ(s, kBothVulns);
    s -= kXssOnly;
    EXPECT_EQ(s, kSqliOnly);
    EXPECT_TRUE((kXssOnly & kSqliOnly).empty());
    EXPECT_EQ(kXssOnly | kSqliOnly, VulnSet::all());
}

TEST(VulnSetTest, ToString) {
    EXPECT_EQ(to_string(kXssOnly), "XSS");
    EXPECT_EQ(to_string(kSqliOnly), "SQLi");
    EXPECT_EQ(to_string(kBothVulns), "XSS+SQLi");
    EXPECT_EQ(to_string(VulnSet::none()), "none");
}

TEST(KnowledgeBaseTest, FunctionLookupIsCaseInsensitive) {
    const KnowledgeBase kb = make_generic_php_kb();
    EXPECT_NE(kb.function("HTMLSpecialChars"), nullptr);
    EXPECT_NE(kb.function("MYSQL_QUERY"), nullptr);
    EXPECT_EQ(kb.function("no_such_function"), nullptr);
}

TEST(KnowledgeBaseTest, SuperglobalsRegistered) {
    const KnowledgeBase kb = make_generic_php_kb();
    const SuperglobalInfo* get = kb.superglobal("$_GET");
    ASSERT_NE(get, nullptr);
    EXPECT_EQ(get->vector, InputVector::kGet);
    EXPECT_EQ(get->taint, kBothVulns);
    ASSERT_NE(kb.superglobal("$_POST"), nullptr);
    ASSERT_NE(kb.superglobal("$_COOKIE"), nullptr);
    ASSERT_NE(kb.superglobal("$_REQUEST"), nullptr);
    ASSERT_NE(kb.superglobal("$_SERVER"), nullptr);
    // Variables are case-sensitive in PHP; $_get is not a superglobal.
    EXPECT_EQ(kb.superglobal("$_get"), nullptr);
}

TEST(KnowledgeBaseTest, SanitizerKindsAreSpecific) {
    const KnowledgeBase kb = make_generic_php_kb();
    const FunctionInfo* html = kb.function("htmlspecialchars");
    ASSERT_NE(html, nullptr);
    EXPECT_EQ(html->sanitizes, kXssOnly);
    const FunctionInfo* sql = kb.function("mysql_real_escape_string");
    ASSERT_NE(sql, nullptr);
    EXPECT_EQ(sql->sanitizes, kSqliOnly);
    const FunctionInfo* intval = kb.function("intval");
    ASSERT_NE(intval, nullptr);
    EXPECT_EQ(intval->sanitizes, kBothVulns);
}

TEST(KnowledgeBaseTest, RevertsRegistered) {
    const KnowledgeBase kb = make_generic_php_kb();
    const FunctionInfo* strip = kb.function("stripslashes");
    ASSERT_NE(strip, nullptr);
    EXPECT_EQ(strip->reverts, kSqliOnly);
    const FunctionInfo* decode = kb.function("html_entity_decode");
    ASSERT_NE(decode, nullptr);
    EXPECT_EQ(decode->reverts, kXssOnly);
}

TEST(KnowledgeBaseTest, QuerySinksAreAlsoSources) {
    // mysql_query: SQLi sink on the query argument, DB source on the result.
    const KnowledgeBase kb = make_generic_php_kb();
    const FunctionInfo* q = kb.function("mysql_query");
    ASSERT_NE(q, nullptr);
    EXPECT_TRUE(q->is_sink());
    EXPECT_EQ(q->sink_kinds, kSqliOnly);
    EXPECT_TRUE(q->is_source);
    EXPECT_EQ(q->source_vector, InputVector::kDatabase);
}

TEST(KnowledgeBaseTest, MethodWildcardFallback) {
    KnowledgeBase kb;
    FunctionInfo info;
    info.name = "get_results";
    info.is_source = true;
    kb.add_any_method(info);
    EXPECT_NE(kb.method("", "get_results"), nullptr);
    EXPECT_NE(kb.method("unknownclass", "get_results"), nullptr);
}

TEST(KnowledgeBaseTest, ClassSpecificMethodPreferred) {
    KnowledgeBase kb;
    FunctionInfo specific;
    specific.name = "query";
    specific.sink_kinds = kSqliOnly;
    kb.add_method("wpdb", specific);
    FunctionInfo generic;
    generic.name = "query";
    kb.add_any_method(generic);
    const FunctionInfo* found = kb.method("wpdb", "query");
    ASSERT_NE(found, nullptr);
    EXPECT_TRUE(found->is_sink());
    const FunctionInfo* fallback = kb.method("other", "query");
    ASSERT_NE(fallback, nullptr);
    EXPECT_FALSE(fallback->is_sink());
}

TEST(WordPressProfileTest, WpdbMethodsConfigured) {
    KnowledgeBase kb = make_generic_php_kb();
    add_wordpress_profile(kb);
    const FunctionInfo* gr = kb.method("wpdb", "get_results");
    ASSERT_NE(gr, nullptr);
    EXPECT_TRUE(gr->is_source);
    EXPECT_EQ(gr->source_vector, InputVector::kDatabase);
    EXPECT_TRUE(gr->is_sink());
    EXPECT_EQ(gr->sink_kinds, kSqliOnly);

    const FunctionInfo* prepare = kb.method("wpdb", "prepare");
    ASSERT_NE(prepare, nullptr);
    EXPECT_EQ(prepare->sanitizes, kSqliOnly);

    const std::string* cls = kb.known_global_class("$wpdb");
    ASSERT_NE(cls, nullptr);
    EXPECT_EQ(*cls, "wpdb");
}

TEST(WordPressProfileTest, EscapingApiConfigured) {
    KnowledgeBase kb = make_generic_php_kb();
    add_wordpress_profile(kb);
    for (const char* fn : {"esc_html", "esc_attr", "esc_js", "wp_kses_post"}) {
        const FunctionInfo* info = kb.function(fn);
        ASSERT_NE(info, nullptr) << fn;
        EXPECT_EQ(info->sanitizes, kXssOnly) << fn;
    }
    const FunctionInfo* stf = kb.function("sanitize_text_field");
    ASSERT_NE(stf, nullptr);
    EXPECT_EQ(stf->sanitizes, kBothVulns);
    const FunctionInfo* sql = kb.function("esc_sql");
    ASSERT_NE(sql, nullptr);
    EXPECT_EQ(sql->sanitizes, kSqliOnly);
}

TEST(WordPressProfileTest, OptionAccessorsAreDbSources) {
    KnowledgeBase kb = make_generic_php_kb();
    add_wordpress_profile(kb);
    for (const char* fn : {"get_option", "get_post_meta", "get_user_meta"}) {
        const FunctionInfo* info = kb.function(fn);
        ASSERT_NE(info, nullptr) << fn;
        EXPECT_TRUE(info->is_source) << fn;
        EXPECT_EQ(info->source_vector, InputVector::kDatabase) << fn;
    }
}

TEST(WordPressProfileTest, WpUnslashIsRevert) {
    KnowledgeBase kb = make_generic_php_kb();
    add_wordpress_profile(kb);
    const FunctionInfo* unslash = kb.function("wp_unslash");
    ASSERT_NE(unslash, nullptr);
    EXPECT_EQ(unslash->reverts, kSqliOnly);
}

TEST(PixyEraProfileTest, LacksModernKnowledge) {
    const KnowledgeBase kb = make_pixy_era_kb();
    EXPECT_EQ(kb.function("mysqli_real_escape_string"), nullptr);
    EXPECT_EQ(kb.function("esc_html"), nullptr);
    EXPECT_EQ(kb.function("get_option"), nullptr);
    EXPECT_TRUE(kb.model_register_globals);
    // 2007-era basics are present.
    EXPECT_NE(kb.function("htmlentities"), nullptr);
    EXPECT_NE(kb.function("mysql_query"), nullptr);
}

TEST(PixyEraProfileTest, GenericProfileHasNoRegisterGlobals) {
    const KnowledgeBase kb = make_generic_php_kb();
    EXPECT_FALSE(kb.model_register_globals);
}

TEST(KnowledgeBaseTest, ProfileSizes) {
    const KnowledgeBase generic = make_generic_php_kb();
    KnowledgeBase wp = make_generic_php_kb();
    add_wordpress_profile(wp);
    const KnowledgeBase pixy = make_pixy_era_kb();
    EXPECT_GT(wp.functions().size(), generic.functions().size());
    EXPECT_GT(wp.methods().size(), generic.methods().size());
    EXPECT_LT(pixy.functions().size(), generic.functions().size());
}

TEST(KnowledgeBaseTest, RefFlowsForPregMatch) {
    const KnowledgeBase kb = make_generic_php_kb();
    const FunctionInfo* pm = kb.function("preg_match");
    ASSERT_NE(pm, nullptr);
    ASSERT_EQ(pm->ref_flows.size(), 1u);
    EXPECT_EQ(pm->ref_flows[0].first, 1);
    EXPECT_EQ(pm->ref_flows[0].second, 2);
    EXPECT_EQ(pm->ret, FunctionInfo::Return::kSafe);
}

TEST(InputVectorTest, ToStringCoversAll) {
    EXPECT_EQ(to_string(InputVector::kGet), "GET");
    EXPECT_EQ(to_string(InputVector::kDatabase), "DB");
    EXPECT_EQ(to_string(VectorGroup::kPostGetCookie), "POST/GET/COOKIE");
    EXPECT_EQ(to_string(VectorGroup::kFileFunctionArray), "File/Function/Array");
}

}  // namespace
}  // namespace phpsafe
