// FileIndex: the one answer to "which file does this name mean" for an
// ordered set of files — exact-name lookup and include resolution for
// php::Project (engine, interpreter, dependency validation, quickfix) and
// graph::ProjectGraph alike, so analysis and graph never disagree about an
// include. It holds views of the names, not copies: the owner keeps them
// alive and in place, and rebuilds the index when its file set changes.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace phpsafe::php {

/// The last path segment of `path` (all of it when there is no '/').
std::string_view basename_of(std::string_view path);

class FileIndex {
public:
    /// A file's id is its position in the name list; kNone means no file.
    using Id = int32_t;
    static constexpr Id kNone = -1;

    FileIndex() = default;
    explicit FileIndex(std::vector<std::string_view> names);

    /// The file named exactly `name` (the first one when duplicated).
    Id find(std::string_view name) const;

    /// Resolves an include path literal: after stripping leading "./",
    /// (1) the exact name, else (2) a file whose name ends with the path on
    /// a path-segment boundary — "lib/b.php" matches "x/lib/b.php", not
    /// "xlib/b.php", and a leading '/' (`dirname(__FILE__) . '/x.php'`) is
    /// its own boundary — else (3) the first file with the same basename.
    /// File order breaks ties; kNone for a path naming no file.
    Id resolve(std::string_view path) const;

private:
    struct Entry {
        std::string_view key;
        Id id;
    };

    std::vector<std::string_view> names_;
    std::vector<Entry> by_name_;      ///< (name, id), sorted
    std::vector<Entry> by_basename_;  ///< (basename, id), sorted
};

}  // namespace phpsafe::php
