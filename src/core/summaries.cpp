#include "core/summaries.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>

#include "obs/counters.h"
#include "php/project.h"
#include "util/strings.h"

namespace phpsafe {

FunctionSummary& SummaryStore::slot(const std::string& qualified_lower) {
    return summaries_[qualified_lower];
}

const FunctionSummary* SummaryStore::find(const std::string& qualified_lower) const {
    const auto it = summaries_.find(qualified_lower);
    return it == summaries_.end() ? nullptr : &it->second;
}

void SummaryStore::clear() { summaries_.clear(); }

size_t SummaryStore::analyzed_count() const {
    size_t count = 0;
    for (const auto& [name, summary] : summaries_) count += summary.analyzed;
    return count;
}

std::string summary_key(const php::FunctionRef& ref) {
    // One allocation: stage 1' computes this for every declared function on
    // every scan.
    if (!ref.decl) return "<null>";
    std::string key;
    if (ref.owner) {
        key.reserve(ref.owner->name.size() + ref.decl->name.size() + 2);
        append_folded(key, ref.owner->name);
        key += "::";
    } else {
        key.reserve(ref.decl->name.size());
    }
    append_folded(key, ref.decl->name);
    return key;
}

const php::FunctionRef* declaration_of(const php::Project& project,
                                       std::string_view key) {
    const size_t sep = key.find("::");
    if (sep == std::string_view::npos) return project.find_function(key);
    const std::string_view cls = key.substr(0, sep);
    const php::FunctionRef* ref =
        project.find_method(cls, key.substr(sep + 2));
    return ref && ref->owner && folded_compare(ref->owner->name, cls) == 0
               ? ref
               : nullptr;
}

namespace {

constexpr std::string_view kEntryPrefix = "file:";

void sort_unique(std::vector<std::string>& names) {
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
}

/// What one file declares, folded: every input of the name resolutions
/// SeedSet::rebase reasons about.
struct Decls {
    std::vector<std::string> functions;  ///< free functions, sorted, unique
    /// class → parent, of the class's first declaration in the file;
    /// sorted by class.
    std::vector<std::pair<std::string, std::string>> classes;
    std::vector<std::string> methods;  ///< "class::method", sorted, unique
};

Decls decls_of(const php::ParsedFile* file) {
    Decls decls;
    if (!file) return decls;
    for (const php::FunctionRef& ref : file->facts.functions)
        (ref.owner ? decls.methods : decls.functions)
            .push_back(summary_key(ref));
    for (const php::ClassDecl* cls : file->facts.classes)
        decls.classes.emplace_back(ascii_lower(cls->name),
                                   ascii_lower(cls->parent));
    sort_unique(decls.functions);
    sort_unique(decls.methods);
    const auto by_name = [](const auto& a, const auto& b) {
        return a.first < b.first;
    };
    std::stable_sort(decls.classes.begin(), decls.classes.end(), by_name);
    const auto same_name = [](const auto& a, const auto& b) {
        return a.first == b.first;
    };
    decls.classes.erase(std::unique(decls.classes.begin(),
                                    decls.classes.end(), same_name),
                        decls.classes.end());
    return decls;
}

/// Names whose resolution an edit can move, per dependency kind.
struct Moved {
    std::set<std::string> files;      ///< kFile, and "file:<name>" keys
    std::set<std::string> functions;  ///< kFunction, and function keys
    std::set<std::string> classes;    ///< kClass: declared or undeclared
    /// Classes whose existence, parent or method list moved: kMethod
    /// lookups walking through them, and "class::method" keys.
    std::set<std::string> chains;
    std::set<std::string> methods;    ///< kMethodAny: method names
    std::set<std::string> basenames;  ///< kInclude: added/removed files

    void note(const php::ParsedFile* before, const php::ParsedFile* after) {
        const php::ParsedFile* file = after ? after : before;
        const std::string& name = file->source->name();
        files.insert(name);
        if (!before || !after)
            basenames.insert(std::string(php::basename_of(name)));
        const Decls old = decls_of(before);
        const Decls now = decls_of(after);
        std::set_symmetric_difference(
            old.functions.begin(), old.functions.end(), now.functions.begin(),
            now.functions.end(), std::inserter(functions, functions.end()));
        std::vector<std::string> moved_methods;
        std::set_symmetric_difference(
            old.methods.begin(), old.methods.end(), now.methods.begin(),
            now.methods.end(), std::back_inserter(moved_methods));
        for (const std::string& method : moved_methods) {
            const size_t sep = method.find("::");
            chains.insert(method.substr(0, sep));
            methods.insert(method.substr(sep + 2));
        }
        auto a = old.classes.begin();
        auto b = now.classes.begin();
        while (a != old.classes.end() || b != now.classes.end()) {
            if (b == now.classes.end() ||
                (a != old.classes.end() && a->first < b->first)) {
                classes.insert(a->first);
                chains.insert(a->first);
                ++a;
            } else if (a == old.classes.end() || b->first < a->first) {
                classes.insert(b->first);
                chains.insert(b->first);
                ++b;
            } else {
                if (a->second != b->second) chains.insert(a->first);
                ++a;
                ++b;
            }
        }
    }
};

/// True when Project::find_method(cls, ...) walks through a moved class:
/// the same chain of at most 16 classes, starting at `cls`.
bool chain_moved(const php::Project& project, std::string cls,
                 const std::set<std::string>& chains) {
    for (int depth = 0; depth < 16; ++depth) {
        if (chains.count(cls)) return true;
        const php::ClassDecl* decl = project.find_class(cls);
        if (!decl || decl->parent.empty()) return false;
        cls = ascii_lower(decl->parent);
    }
    return false;
}

/// The index bucket a dependency is filed under (see SeedSet::Index).
std::string bucket_of(const SummaryDep& dep) {
    switch (dep.kind) {
        case SummaryDep::Kind::kFile:
            return dep.name;
        case SummaryDep::Kind::kInclude:
            return std::string(php::basename_of(dep.name));
        case SummaryDep::Kind::kMethod:
            return ascii_lower(
                std::string_view(dep.name).substr(0, dep.name.find("::")));
        default:
            return ascii_lower(dep.name);
    }
}

/// One file that differs between the snapshot and the next project; a
/// null side means the file was added or removed.
struct FileChange {
    const php::ParsedFile* before = nullptr;
    const php::ParsedFile* after = nullptr;
};

/// Diffs `before` and `next` by name. False when the two cannot be
/// compared that way: a name repeats, or surviving files changed their
/// relative order (first-declaration-wins lookups would move).
bool diff_by_name(
    const std::vector<std::shared_ptr<const php::ParsedFile>>& before,
    const php::Project& next, std::vector<FileChange>& changes) {
    std::unordered_map<std::string_view, size_t> position;
    position.reserve(before.size());
    for (size_t i = 0; i < before.size(); ++i)
        if (!position.emplace(before[i]->source->name(), i).second)
            return false;
    std::vector<bool> kept(before.size(), false);
    size_t last = 0;
    bool any = false;
    for (const auto& file : next.files()) {
        const std::string& name = file->source->name();
        if (next.file_named(name) != file.get()) return false;  // repeated
        const auto it = position.find(name);
        if (it == position.end()) {
            changes.push_back({nullptr, file.get()});
            continue;
        }
        if (any && it->second < last) return false;
        any = true;
        last = it->second;
        kept[it->second] = true;
        if (before[it->second]->content_hash != file->content_hash)
            changes.push_back({before[it->second].get(), file.get()});
    }
    for (size_t i = 0; i < before.size(); ++i)
        if (!kept[i]) changes.push_back({before[i].get(), nullptr});
    return true;
}

}  // namespace

SeedSet::SeedSet(const php::Project& project,
                 std::map<std::string, SummaryArtifact> capture)
    : snapshot_(project.files()), has_snapshot_(true) {
    for (auto& [key, artifact] : capture)
        if (artifact.reusable)
            put(key,
                std::make_shared<const SummaryArtifact>(std::move(artifact)),
                true);
    rebuild_index();
}

const SummaryArtifact* SeedSet::find(std::string_view key) const {
    const auto it = entries_.find(key);
    return it != entries_.end() && it->second.seed ? it->second.artifact.get()
                                                   : nullptr;
}

std::vector<std::string> SeedSet::keys() const {
    std::vector<std::string> out;
    out.reserve(seeds_);
    for (const auto& [key, entry] : entries_)
        if (entry.seed) out.push_back(key);
    std::sort(out.begin(), out.end());
    return out;
}

void SeedSet::admit(std::string_view key,
                    std::shared_ptr<const SummaryArtifact> artifact) {
    put(key, std::move(artifact), true);
}

void SeedSet::reject(std::string_view key,
                     std::shared_ptr<const SummaryArtifact> artifact) {
    put(key, std::move(artifact), false);
}

void SeedSet::put(std::string_view key,
                  std::shared_ptr<const SummaryArtifact> artifact, bool seed) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        it = entries_.emplace(std::string(key), Entry{}).first;
    } else {
        seeds_ -= it->second.seed;
        if (it->second.artifact == artifact) {
            // Same artifact, same refs: only its standing changes.
            it->second.seed = seed;
            seeds_ += seed;
            return;
        }
        live_refs_ -= it->second.artifact->deps.size();
    }
    it->second.artifact = std::move(artifact);
    it->second.seed = seed;
    seeds_ += seed;
    live_refs_ += it->second.artifact->deps.size();
    if (index_) index_entry(it->first, *it->second.artifact);
}

void SeedSet::index_entry(const std::string& key,
                          const SummaryArtifact& artifact) {
    if (index_.use_count() > 1) index_ = std::make_shared<Index>(*index_);
    for (const SummaryDep& dep : artifact.deps)
        index_->buckets[static_cast<int>(dep.kind)][bucket_of(dep)].push_back(
            Ref{key, &artifact});
    index_->refs += artifact.deps.size();
}

void SeedSet::rebuild_index() {
    index_ = std::make_shared<Index>();
    for (const auto& [key, entry] : entries_) index_entry(key, *entry.artifact);
}

bool SeedSet::holds(const Ref& ref) const {
    const auto it = entries_.find(ref.key);
    return it != entries_.end() && it->second.artifact.get() == ref.artifact;
}

void SeedSet::collect(int kind, const std::string& bucket_key,
                      std::set<std::string>& out) {
    auto& table = index_->buckets[kind];
    const auto it = table.find(bucket_key);
    if (it == table.end()) return;
    std::vector<Ref>& refs = it->second;
    const bool owned = index_.use_count() == 1;
    size_t kept = 0;
    for (size_t i = 0; i < refs.size(); ++i) {
        if (!holds(refs[i])) continue;
        out.insert(refs[i].key);
        if (owned && kept != i) refs[kept] = std::move(refs[i]);
        ++kept;
    }
    if (!owned) return;
    index_->refs -= refs.size() - kept;
    if (kept == 0)
        table.erase(it);
    else
        refs.resize(kept);
}

std::vector<SeedSet::Probe> SeedSet::rebase(const php::Project& next) {
    const auto& files = next.files();
    std::vector<FileChange> changes;
    bool comparable = has_snapshot_;
    bool in_place = comparable && files.size() == snapshot_.size();
    for (size_t i = 0; in_place && i < files.size(); ++i) {
        if (files[i] == snapshot_[i]) continue;
        if (files[i]->source->name() != snapshot_[i]->source->name())
            in_place = false;
        else if (files[i]->content_hash != snapshot_[i]->content_hash)
            changes.push_back({snapshot_[i].get(), files[i].get()});
    }
    if (comparable && !in_place) {
        changes.clear();
        comparable = diff_by_name(snapshot_, next, changes);
    }

    std::vector<Probe> probes;
    if (!comparable) {
        // Nothing to diff against: every entry goes, and every declared
        // key is looked up (the full pass).
        std::set<std::string> dropped;
        for (auto& [key, entry] : entries_) {
            dropped.insert(key);
            probes.push_back({key, nullptr, std::move(entry.artifact)});
        }
        entries_.clear();
        seeds_ = 0;
        live_refs_ = 0;
        index_.reset();
        // Keys are views of the probes' own strings: reserve first, so no
        // reallocation moves them.
        probes.reserve(probes.size() + next.all_functions().size());
        std::unordered_set<std::string_view> seen(dropped.begin(),
                                                  dropped.end());
        for (const php::FunctionRef& ref : next.all_functions()) {
            if (!ref.decl) continue;
            probes.push_back({summary_key(ref), &ref, nullptr});
            if (!seen.insert(probes.back().key).second) probes.pop_back();
        }
        snapshot_ = files;
        has_snapshot_ = true;
        return probes;
    }

    // Stale refs are dropped when a lookup meets them; a full rebuild
    // bounds the ones no lookup reaches.
    if (!index_ || (index_.use_count() == 1 &&
                    index_->refs > 2 * live_refs_ + 4096))
        rebuild_index();

    Moved moved;
    for (const FileChange& change : changes)
        moved.note(change.before, change.after);

    std::set<std::string> dropped;
    const auto own_key = [&](const std::string& key) {
        if (entries_.count(key)) dropped.insert(key);
    };
    using Kind = SummaryDep::Kind;
    for (const std::string& name : moved.files) {
        collect(static_cast<int>(Kind::kFile), name, dropped);
        own_key(std::string(kEntryPrefix) + name);
    }
    for (const std::string& name : moved.functions) {
        collect(static_cast<int>(Kind::kFunction), name, dropped);
        own_key(name);
    }
    for (const std::string& name : moved.classes)
        collect(static_cast<int>(Kind::kClass), name, dropped);
    for (const std::string& name : moved.methods)
        collect(static_cast<int>(Kind::kMethodAny), name, dropped);
    for (const std::string& name : moved.basenames)
        collect(static_cast<int>(Kind::kInclude), name, dropped);
    if (!moved.chains.empty()) {
        std::vector<std::string> walked;
        for (const auto& [cls, refs] :
             index_->buckets[static_cast<int>(Kind::kMethod)])
            if (chain_moved(next, cls, moved.chains)) walked.push_back(cls);
        for (const std::string& cls : walked)
            collect(static_cast<int>(Kind::kMethod), cls, dropped);
        for (const auto& [key, entry] : entries_) {
            const size_t sep = key.find("::");
            if (sep != std::string::npos &&
                moved.chains.count(key.substr(0, sep)))
                dropped.insert(key);
        }
    }

    for (const std::string& key : dropped) {
        const auto it = entries_.find(key);
        seeds_ -= it->second.seed;
        live_refs_ -= it->second.artifact->deps.size();
        probes.push_back({key, nullptr, std::move(it->second.artifact)});
        entries_.erase(it);
    }
    // Keys a changed file declares and nothing holds: their owner's
    // content moved, so the pool may hold a seed for the new content.
    std::set<std::string> seen;
    for (const FileChange& change : changes) {
        if (!change.after) continue;
        for (const php::FunctionRef& ref : change.after->facts.functions) {
            std::string key = summary_key(ref);
            if (entries_.count(key) || dropped.count(key) ||
                !seen.insert(key).second)
                continue;
            if (const php::FunctionRef* owner = declaration_of(next, key))
                probes.push_back({std::move(key), owner, nullptr});
        }
    }

    if (in_place) {
        for (size_t i = 0; i < files.size(); ++i)
            if (files[i] != snapshot_[i]) snapshot_[i] = files[i];
    } else {
        snapshot_ = files;
    }
    return probes;
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
