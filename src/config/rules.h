// Rule constructors shared by the profile builders (config/profiles.cpp,
// config/cms_profiles.cpp): each returns one FunctionInfo with one role.
#pragma once

#include <string>
#include <vector>

#include "config/knowledge.h"

namespace phpsafe::rules {

/// Return value is freshly tainted with `taint`, entering through `vector`.
FunctionInfo source(std::string name, InputVector vector, VulnSet taint = kBothVulns);
/// Return value is the first argument with `cleanses` removed.
FunctionInfo sanitizer(std::string name, VulnSet cleanses);
/// Return value is the first argument with earlier `revived` sanitization undone.
FunctionInfo revert(std::string name, VulnSet revived);
/// The arguments at `args` (all arguments when empty) are `kinds` sinks.
FunctionInfo sink(std::string name, VulnSet kinds, std::vector<int> args = {});
/// Return value is never tainted.
FunctionInfo safe(std::string name);
/// A query executor: an SQLi sink on the query argument(s) whose result is
/// database rows, so it is also a database source.
FunctionInfo query_sink(std::string name, std::vector<int> args = {0});

}  // namespace phpsafe::rules
