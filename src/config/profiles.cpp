// Profile data for the knowledge base: generic PHP (modeled on the default
// RIPS configuration, as the paper does), the WordPress plugin profile
// (class-vulnerable-input/filter/output.php in the original tool), and a
// 2007-era profile for the Pixy baseline.
#include "config/knowledge.h"
#include "config/rules.h"

namespace phpsafe {

namespace rules {

FunctionInfo source(std::string name, InputVector vector, VulnSet taint) {
    FunctionInfo f;
    f.name = std::move(name);
    f.is_source = true;
    f.source_vector = vector;
    f.source_taint = taint;
    f.ret = FunctionInfo::Return::kTainted;
    return f;
}

FunctionInfo sanitizer(std::string name, VulnSet cleanses) {
    FunctionInfo f;
    f.name = std::move(name);
    f.sanitizes = cleanses;
    return f;
}

FunctionInfo revert(std::string name, VulnSet revived) {
    FunctionInfo f;
    f.name = std::move(name);
    f.reverts = revived;
    return f;
}

FunctionInfo sink(std::string name, VulnSet kinds, std::vector<int> args) {
    FunctionInfo f;
    f.name = std::move(name);
    f.sink_kinds = kinds;
    f.sink_args = std::move(args);
    return f;
}

FunctionInfo safe(std::string name) {
    FunctionInfo f;
    f.name = std::move(name);
    f.ret = FunctionInfo::Return::kSafe;
    return f;
}

FunctionInfo query_sink(std::string name, std::vector<int> args) {
    FunctionInfo f = sink(std::move(name), kSqliOnly, std::move(args));
    f.is_source = true;
    f.source_vector = InputVector::kDatabase;
    f.ret = FunctionInfo::Return::kTainted;
    return f;
}

}  // namespace rules

using namespace rules;

namespace {

void add_superglobals(KnowledgeBase& kb) {
    kb.add_superglobal({"$_GET", InputVector::kGet, kBothVulns});
    kb.add_superglobal({"$_POST", InputVector::kPost, kBothVulns});
    kb.add_superglobal({"$_COOKIE", InputVector::kCookie, kBothVulns});
    kb.add_superglobal({"$_REQUEST", InputVector::kRequest, kBothVulns});
    kb.add_superglobal({"$_SERVER", InputVector::kServer, kBothVulns});
    kb.add_superglobal({"$_FILES", InputVector::kFiles, kBothVulns});
    kb.add_superglobal({"$HTTP_GET_VARS", InputVector::kGet, kBothVulns});
    kb.add_superglobal({"$HTTP_POST_VARS", InputVector::kPost, kBothVulns});
    kb.add_superglobal({"$HTTP_COOKIE_VARS", InputVector::kCookie, kBothVulns});
}

void add_php_sources(KnowledgeBase& kb) {
    // File-content sources (paper root-cause class 3: File/Function/Array).
    kb.add_function(source("file_get_contents", InputVector::kFile));
    kb.add_function(source("fgets", InputVector::kFile));
    kb.add_function(source("fgetc", InputVector::kFile));
    kb.add_function(source("fread", InputVector::kFile));
    kb.add_function(source("file", InputVector::kFile));
    kb.add_function(source("fscanf", InputVector::kFile));
    kb.add_function(source("readdir", InputVector::kFile));
    kb.add_function(source("glob", InputVector::kFile));
    kb.add_function(source("getenv", InputVector::kServer));
    kb.add_function(source("gzread", InputVector::kFile));
    kb.add_function(source("gzgets", InputVector::kFile));

    // Database-read sources (class 2: indirectly attacker controlled).
    kb.add_function(source("mysql_fetch_array", InputVector::kDatabase));
    kb.add_function(source("mysql_fetch_assoc", InputVector::kDatabase));
    kb.add_function(source("mysql_fetch_row", InputVector::kDatabase));
    kb.add_function(source("mysql_fetch_object", InputVector::kDatabase));
    kb.add_function(source("mysql_result", InputVector::kDatabase));
    kb.add_function(source("mysqli_fetch_array", InputVector::kDatabase));
    kb.add_function(source("mysqli_fetch_assoc", InputVector::kDatabase));
    kb.add_function(source("mysqli_fetch_row", InputVector::kDatabase));
    kb.add_function(source("mysqli_fetch_object", InputVector::kDatabase));
    kb.add_function(source("pg_fetch_array", InputVector::kDatabase));
    kb.add_function(source("pg_fetch_assoc", InputVector::kDatabase));
    kb.add_function(source("pg_fetch_row", InputVector::kDatabase));
}

void add_php_sanitizers(KnowledgeBase& kb) {
    // XSS encoders.
    kb.add_function(sanitizer("htmlentities", kXssOnly));
    kb.add_function(sanitizer("htmlspecialchars", kXssOnly));
    kb.add_function(sanitizer("strip_tags", kXssOnly));
    kb.add_function(sanitizer("urlencode", kXssOnly));
    kb.add_function(sanitizer("rawurlencode", kXssOnly));

    // SQL escapers.
    kb.add_function(sanitizer("mysql_escape_string", kSqliOnly));
    kb.add_function(sanitizer("mysql_real_escape_string", kSqliOnly));
    kb.add_function(sanitizer("mysqli_real_escape_string", kSqliOnly));
    kb.add_function(sanitizer("mysqli_escape_string", kSqliOnly));
    kb.add_function(sanitizer("pg_escape_string", kSqliOnly));
    kb.add_function(sanitizer("sqlite_escape_string", kSqliOnly));
    kb.add_function(sanitizer("addslashes", kSqliOnly));

    // Type coercions neutralize both classes.
    kb.add_function(sanitizer("intval", kBothVulns));
    kb.add_function(sanitizer("floatval", kBothVulns));
    kb.add_function(sanitizer("doubleval", kBothVulns));
    kb.add_function(sanitizer("boolval", kBothVulns));

    // Hashes/encodings whose output alphabet is harmless in both contexts.
    kb.add_function(sanitizer("md5", kBothVulns));
    kb.add_function(sanitizer("sha1", kBothVulns));
    kb.add_function(sanitizer("crc32", kBothVulns));
    kb.add_function(sanitizer("hash", kBothVulns));
    kb.add_function(sanitizer("base64_encode", kBothVulns));
    kb.add_function(sanitizer("bin2hex", kBothVulns));
    kb.add_function(sanitizer("dechex", kBothVulns));
    kb.add_function(sanitizer("decoct", kBothVulns));
    kb.add_function(sanitizer("decbin", kBothVulns));
    kb.add_function(sanitizer("number_format", kBothVulns));
    kb.add_function(sanitizer("uuencode", kBothVulns));
    kb.add_function(sanitizer("soundex", kBothVulns));
    kb.add_function(sanitizer("metaphone", kBothVulns));

    // filter_var with a validation filter; treated as sanitizing (the
    // common FILTER_VALIDATE_INT/EMAIL/URL uses).
    kb.add_function(sanitizer("filter_var", kBothVulns));
    kb.add_function(sanitizer("filter_input", kBothVulns));
    kb.add_function(sanitizer("escapeshellarg", kBothVulns));
    kb.add_function(sanitizer("escapeshellcmd", kBothVulns));
}

void add_php_reverts(KnowledgeBase& kb) {
    kb.add_function(revert("stripslashes", kSqliOnly));
    kb.add_function(revert("stripcslashes", kSqliOnly));
    kb.add_function(revert("html_entity_decode", kXssOnly));
    kb.add_function(revert("htmlspecialchars_decode", kXssOnly));
    kb.add_function(revert("urldecode", kXssOnly));
    kb.add_function(revert("rawurldecode", kXssOnly));
    kb.add_function(revert("base64_decode", kBothVulns));
}

void add_php_sinks(KnowledgeBase& kb) {
    // XSS output functions (echo/print/exit are language constructs the
    // engine handles; these are the callable ones).
    kb.add_function(sink("printf", kXssOnly));
    kb.add_function(sink("vprintf", kXssOnly));
    kb.add_function(sink("print_r", kXssOnly, {0}));
    kb.add_function(sink("var_dump", kXssOnly));
    kb.add_function(sink("trigger_error", kXssOnly, {0}));

    // SQLi query executors: the query argument is the sensitive one, and
    // the call result is database data — i.e. also a source.
    kb.add_function(query_sink("mysql_query"));
    kb.add_function(query_sink("mysql_unbuffered_query"));
    kb.add_function(query_sink("sqlite_query"));
    // The procedural mysqli/pg APIs take the connection first; the query is
    // the second argument (pg_query also has a single-argument form).
    kb.add_function(query_sink("mysql_db_query", {1}));
    kb.add_function(query_sink("mysqli_query", {1}));
    kb.add_function(query_sink("mysqli_multi_query", {1}));
    kb.add_function(query_sink("mysqli_real_query", {1}));
    kb.add_function(query_sink("pg_query", {0, 1}));
    // mysqli OOP interface.
    kb.add_method("mysqli", query_sink("query"));
    kb.add_method("mysqli", sanitizer("real_escape_string", kSqliOnly));
    kb.add_method("mysqli_result", source("fetch_assoc", InputVector::kDatabase));
}

void add_php_neutral(KnowledgeBase& kb) {
    // Safe-return built-ins (no taint in the result).
    for (const char* name :
         {"count", "sizeof", "strlen", "abs", "rand", "mt_rand", "random_int",
          "time", "mktime", "strtotime", "is_array", "is_string", "is_numeric",
          "is_int", "is_null", "isset", "func_num_args", "array_key_exists",
          "in_array", "strcmp", "strcasecmp", "strpos", "stripos", "strrpos",
          "ord", "filemtime", "filesize", "uniqid",
          "ctype_digit", "ctype_alpha", "ctype_alnum", "checkdate", "version_compare",
          "is_float", "is_bool", "is_object", "is_callable", "is_dir", "is_file",
          "file_exists", "function_exists", "class_exists", "method_exists",
          "defined", "similar_text", "levenshtein", "array_sum", "array_product",
          "min", "max", "floor", "ceil", "round", "intdiv", "pow", "sqrt",
          "microtime", "memory_get_usage", "connection_aborted", "headers_sent",
          "substr_count", "str_word_count", "mb_strlen", "strnatcmp", "fileatime",
          "is_readable", "is_writable", "is_uploaded_file", "extension_loaded"})
        kb.add_function(safe(name));

    // json_encode escapes quotes/antislashes: safe for SQL string context,
    // still exploitable in HTML context? Encoded output cannot close a tag
    // attribute without quotes; model as XSS-sanitizing (common practice).
    kb.add_function(sanitizer("json_encode", kXssOnly));

    // preg_match copies taint of the subject (arg 1) into the by-ref match
    // array (arg 2); its own return is a safe int.
    {
        FunctionInfo f = safe("preg_match");
        f.ref_flows.push_back({1, 2});
        kb.add_function(f);
    }
    {
        FunctionInfo f = safe("preg_match_all");
        f.ref_flows.push_back({1, 2});
        kb.add_function(f);
    }
    // parse_str writes request-style data into its out-argument.
    {
        FunctionInfo f = safe("parse_str");
        f.ref_flows.push_back({0, 1});
        kb.add_function(f);
    }
}

}  // namespace

KnowledgeBase make_generic_php_kb() {
    KnowledgeBase kb;
    add_superglobals(kb);
    add_php_sources(kb);
    add_php_sanitizers(kb);
    add_php_reverts(kb);
    add_php_sinks(kb);
    add_php_neutral(kb);
    return kb;
}

void add_wordpress_profile(KnowledgeBase& kb) {
    // The $wpdb global is a wpdb instance; plugins use it for all DB access.
    kb.add_known_global_object("$wpdb", "wpdb");

    // wpdb read methods: SQLi sink on the query argument, DB source on the
    // return (the paper's mail-subscribe-list example relies on exactly
    // this: `$wpdb->get_results(...)` rows echoed without sanitization).
    // Registered both class-exact and by method name alone: the original
    // tool matches the configured method names without type inference, so
    // `$wpdb->get_results` is recognized even where the analysis lost track
    // of the receiver's class.
    for (const char* m : {"get_results", "get_var", "get_row", "get_col"}) {
        kb.add_method("wpdb", query_sink(m));
        kb.add_any_method(query_sink(m));
    }
    kb.add_method("wpdb", sink("query", kSqliOnly, {0}));
    kb.add_method("wpdb", sanitizer("prepare", kSqliOnly));
    kb.add_any_method(sanitizer("prepare", kSqliOnly));
    kb.add_method("wpdb", sanitizer("_real_escape", kSqliOnly));
    kb.add_method("wpdb", sanitizer("esc_like", kSqliOnly));
    // insert/update/delete build parameterized queries internally.
    kb.add_method("wpdb", safe("insert"));
    kb.add_method("wpdb", safe("update"));
    kb.add_method("wpdb", safe("delete"));

    // Option/meta accessors read the database.
    for (const char* name :
         {"get_option", "get_site_option", "get_post_meta", "get_user_meta",
          "get_comment_meta", "get_term_meta", "get_transient", "get_post_field",
          "get_query_var", "get_search_query", "wp_get_referer"})
        kb.add_function(source(name, InputVector::kDatabase));

    // Escaping / sanitization API.
    for (const char* name : {"esc_html", "esc_attr", "esc_js", "esc_textarea",
                             "esc_url", "esc_url_raw", "tag_escape", "wp_kses",
                             "wp_kses_post", "wp_kses_data"})
        kb.add_function(sanitizer(name, kXssOnly));
    for (const char* name :
         {"sanitize_text_field", "sanitize_title", "sanitize_email", "sanitize_key",
          "sanitize_file_name", "sanitize_html_class", "sanitize_user", "sanitize_mime_type"})
        kb.add_function(sanitizer(name, kBothVulns));
    kb.add_function(sanitizer("absint", kBothVulns));
    kb.add_function(sanitizer("esc_sql", kSqliOnly));
    kb.add_function(sanitizer("like_escape", kSqliOnly));

    // wp_unslash/wp_slash are stripslashes/addslashes wrappers.
    kb.add_function(revert("wp_unslash", kSqliOnly));
    kb.add_function(sanitizer("wp_slash", kSqliOnly));

    // Output helpers that print their argument. Passthroughs (__, _x,
    // apply_filters, do_shortcode) need no entry: an unknown call already
    // carries its arguments' taint.
    kb.add_function(sink("_e", kXssOnly, {0}));
    kb.add_function(sink("wp_die", kXssOnly, {0}));

    // Misc WP getters considered attacker-influenced (stored data).
    kb.add_function(source("get_bloginfo", InputVector::kDatabase, kXssOnly));
    kb.add_function(source("get_the_title", InputVector::kDatabase, kXssOnly));
    kb.add_function(source("get_comment_text", InputVector::kDatabase));
}

KnowledgeBase make_pixy_era_kb() {
    // A 2007-era subset of the generic rules, copied so the two profiles
    // cannot disagree on a shared entry: file and mysql_* sources (no mysqli
    // in Pixy's tables), the classic escapers and their reverts, printf,
    // print_r and mysql_query.
    const KnowledgeBase generic = make_generic_php_kb();
    KnowledgeBase kb;
    add_superglobals(kb);
    for (const char* name :
         {"file_get_contents", "fgets", "fread", "file", "mysql_fetch_array",
          "mysql_fetch_assoc", "mysql_fetch_row", "mysql_result", "htmlentities",
          "htmlspecialchars", "mysql_escape_string", "mysql_real_escape_string",
          "addslashes", "intval", "stripslashes", "html_entity_decode", "printf",
          "print_r", "mysql_query", "count", "strlen"})
        kb.add_function(*generic.function(name));
    kb.model_register_globals = true;
    return kb;
}

}  // namespace phpsafe
