#include "core/summaries.h"

#include "obs/counters.h"
#include "php/project.h"

namespace phpsafe {

FunctionSummary& SummaryStore::slot(const std::string& qualified_lower) {
    return summaries_[qualified_lower];
}

const FunctionSummary* SummaryStore::find(const std::string& qualified_lower) const {
    const auto it = summaries_.find(qualified_lower);
    return it == summaries_.end() ? nullptr : &it->second;
}

void SummaryStore::clear() { summaries_.clear(); }

std::vector<std::string> SummaryStore::analyzed_names() const {
    std::vector<std::string> names;
    names.reserve(summaries_.size());
    for (const auto& [name, summary] : summaries_)
        if (summary.analyzed) names.push_back(name);
    return names;
}

bool DepCheckMemo::validate(const SummaryArtifact& artifact) {
    ++obs::tls().cache_dep_walks;
    for (const SummaryDep& dep : artifact.deps) {
        if (dep.kind == SummaryDep::Kind::kFile) {
            // The project's file index is the memo for file deps.
            ++obs::tls().cache_dep_walk_memo_hits;
            const php::ParsedFile* file = project_.file_named(dep.name);
            if (!file || file->content_hash != dep.hash) return false;
            continue;
        }
        auto key = std::make_pair(static_cast<int>(dep.kind), dep.name);
        auto memo = resolutions_.find(key);
        if (memo == resolutions_.end()) {
            ++obs::tls().cache_dep_walk_steps;
            std::string resolved;
            switch (dep.kind) {
                case SummaryDep::Kind::kFunction: {
                    const php::FunctionRef* ref =
                        project_.find_function(dep.name);
                    if (ref) resolved.assign(ref->file);
                    break;
                }
                case SummaryDep::Kind::kMethod: {
                    const size_t sep = dep.name.find("::");
                    if (sep == std::string::npos) {
                        // A malformed record never validates; the sentinel
                        // cannot be a file.
                        resolved = "\x1f<malformed>";
                        break;
                    }
                    const php::FunctionRef* ref = project_.find_method(
                        std::string_view(dep.name).substr(0, sep),
                        std::string_view(dep.name).substr(sep + 2));
                    if (ref) resolved.assign(ref->file);
                    break;
                }
                case SummaryDep::Kind::kMethodAny: {
                    const php::FunctionRef* ref =
                        project_.find_method_any(dep.name);
                    if (ref) resolved.assign(ref->file);
                    break;
                }
                case SummaryDep::Kind::kClass: {
                    if (project_.find_class(dep.name))
                        resolved = project_.file_of_class(dep.name);
                    break;
                }
                case SummaryDep::Kind::kInclude: {
                    const php::ParsedFile* file =
                        project_.resolve_include(dep.name);
                    if (file) resolved = file->source->name();
                    break;
                }
                case SummaryDep::Kind::kFile:
                    break;  // handled above
            }
            memo = resolutions_.emplace(std::move(key), std::move(resolved))
                       .first;
        } else {
            ++obs::tls().cache_dep_walk_memo_hits;
        }
        if (memo->second != dep.file) return false;
    }
    return true;
}

}  // namespace phpsafe
