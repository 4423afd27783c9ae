#include "php/file_index.h"

#include <algorithm>
#include <utility>

#include "util/strings.h"

namespace phpsafe::php {

namespace {

/// lower_bound comparator of the sorted (key, id) entry lists.
const auto key_below = [](const auto& entry, std::string_view key) {
    return entry.key < key;
};

}  // namespace

std::string_view basename_of(std::string_view path) {
    const size_t slash = path.rfind('/');
    return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

FileIndex::FileIndex(std::vector<std::string_view> names)
    : names_(std::move(names)) {
    by_name_.reserve(names_.size());
    by_basename_.reserve(names_.size());
    for (Id id = 0; id < static_cast<Id>(names_.size()); ++id) {
        by_name_.push_back({names_[id], id});
        by_basename_.push_back({basename_of(names_[id]), id});
    }
    // Ids ascend within equal keys, so the first entry of a run is the
    // earliest file — the "first duplicate wins" rule.
    const auto order = [](const Entry& a, const Entry& b) {
        return a.key != b.key ? a.key < b.key : a.id < b.id;
    };
    // A name-sorted file set (a directory load, a watch session) is
    // already in order.
    if (!std::is_sorted(by_name_.begin(), by_name_.end(), order))
        std::sort(by_name_.begin(), by_name_.end(), order);
    std::sort(by_basename_.begin(), by_basename_.end(), order);
}

FileIndex::Id FileIndex::find(std::string_view name) const {
    const auto it =
        std::lower_bound(by_name_.begin(), by_name_.end(), name, key_below);
    return it != by_name_.end() && it->key == name ? it->id : kNone;
}

FileIndex::Id FileIndex::resolve(std::string_view path) const {
    while (starts_with(path, "./")) path.remove_prefix(2);
    if (path.empty()) return kNone;
    if (const Id exact = find(path); exact != kNone) return exact;

    // Every suffix match shares the path's basename, so only those files
    // are candidates. None equals the path (the exact lookup missed), so a
    // matching name is strictly longer and has a character before the
    // suffix to check for the segment boundary.
    const std::string_view base = basename_of(path);
    const auto first = std::lower_bound(by_basename_.begin(),
                                        by_basename_.end(), base, key_below);
    for (auto it = first; it != by_basename_.end() && it->key == base; ++it) {
        const std::string_view name = names_[it->id];
        if (ends_with(name, path) &&
            (path.front() == '/' || name[name.size() - path.size() - 1] == '/'))
            return it->id;
    }
    return first != by_basename_.end() && first->key == base ? first->id
                                                             : kNone;
}

}  // namespace phpsafe::php
