// Additional CMS profiles — the paper's future work ("the analysis of
// other CMS applications like Drupal or Joomla... this is what it takes
// for phpSAFE to be able to analyze plugins from other CMSs", §III.A/VI).
// Each profile adds the CMS's input vectors, filtering functions and sinks
// to the knowledge base; the engine is unchanged.
#include "config/knowledge.h"
#include "config/rules.h"

namespace phpsafe {

using namespace rules;

void add_drupal_profile(KnowledgeBase& kb) {
    // Database layer (Drupal 6/7 era, matching the paper's timeframe).
    kb.add_function(query_sink("db_query"));
    kb.add_function(sink("db_query_range", kSqliOnly, {0}));
    kb.add_function(source("db_fetch_object", InputVector::kDatabase));
    kb.add_function(source("db_fetch_array", InputVector::kDatabase));
    kb.add_function(source("db_result", InputVector::kDatabase));
    kb.add_function(source("variable_get", InputVector::kDatabase));

    // Output filtering API.
    kb.add_function(sanitizer("check_plain", kXssOnly));
    kb.add_function(sanitizer("check_markup", kXssOnly));
    kb.add_function(sanitizer("filter_xss", kXssOnly));
    kb.add_function(sanitizer("filter_xss_admin", kXssOnly));
    kb.add_function(sanitizer("check_url", kXssOnly));
    kb.add_function(sanitizer("db_escape_string", kSqliOnly));

    // Output sinks.
    kb.add_function(sink("drupal_set_message", kXssOnly, {0}));
    kb.add_function(sink("drupal_set_title", kXssOnly, {0}));
    // t() and l() pass their text through; an unknown call already carries
    // its arguments' taint, so they need no entry.
}

void add_joomla_profile(KnowledgeBase& kb) {
    // JRequest (Joomla 1.5/2.5): request accessors are attack entry points.
    // getVar/getString return raw request data; getInt/getUInt coerce.
    kb.add_method("jrequest", source("getvar", InputVector::kRequest));
    kb.add_method("jrequest", source("getstring", InputVector::kRequest));
    kb.add_method("jrequest", source("getword", InputVector::kRequest));
    kb.add_method("jrequest", source("getcmd", InputVector::kRequest));
    kb.add_method("jrequest", safe("getint"));  // integer-coerced
    // JInput (Joomla 3): $app->input->get(...)
    kb.add_method("jinput", source("get", InputVector::kRequest));
    kb.add_method("jinput", source("getstring", InputVector::kRequest));

    // Database object: $db->setQuery($sql) is the SQLi sink; loadObjectList
    // and friends return stored data.
    kb.add_method("jdatabase", sink("setquery", kSqliOnly, {0}));
    kb.add_method("jdatabasedriver", sink("setquery", kSqliOnly, {0}));
    for (const char* m : {"loadobjectlist", "loadobject", "loadresult",
                          "loadassoclist", "loadrowlist"}) {
        FunctionInfo f = source(m, InputVector::kDatabase);
        kb.add_method("jdatabase", f);
        kb.add_method("jdatabasedriver", f);
    }
    kb.add_method("jdatabase", sanitizer("escape", kSqliOnly));
    kb.add_method("jdatabase", sanitizer("quote", kSqliOnly));
    kb.add_method("jdatabasedriver", sanitizer("escape", kSqliOnly));
    kb.add_method("jdatabasedriver", sanitizer("quote", kSqliOnly));

    // Output filtering.
    kb.add_method("jfilteroutput", sanitizer("cleantext", kXssOnly));

    // JFactory::getDBO() returns the database object, so methods invoked on
    // the result resolve against the jdatabase configuration.
    FunctionInfo getdbo = safe("getdbo");
    getdbo.returns_class = "jdatabase";
    kb.add_method("jfactory", getdbo);
}

}  // namespace phpsafe
