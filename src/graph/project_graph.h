// ProjectGraph: an explicit, queryable program graph for one scan request.
// The include/call relationships phpSAFE relies on exist implicitly — as
// resolution tables inside php::Project and as dependency records checked
// by DepCheckMemo::validate (core/summaries.h). This subsystem materializes
// them once per scan into a dense graph artifact:
//
//   nodes  - files (every source file of the request) and functions (every
//            declared free function and method, linked to its declaring
//            file). Node names are interned into an arena; all public
//            surfaces traffic in dense integer ids (FileId / FuncId).
//   edges  - include edges (a file's include/require literals, resolved
//            by the same php::FileIndex as php::Project::resolve_include)
//            and use edges (a file calling a function, using a class, or
//            extending a parent declared in another file). Both directions
//            are stored, so reverse reachability is one adjacency walk.
//
// The graph is built from each file's php::FileFacts — what the file
// declares, calls and includes, computed once at parse time by the same
// AST walk that feeds php::Project's tables, so "calls" means the same
// thing to the graph as to the engine (callback registrations included).
// Facts live on the immutable ParsedFile and are shared through the file
// pool like the AST, which is what makes the watch mode's incremental
// rebuild cheap: an edit parses the changed files only and re-links the
// graph (linking is O(V+E) string-map work, orders of magnitude below
// re-analysis).
//
// On top of the structure sit the analytics the paper's plugin-review
// workflow wants answered before reading any finding (docs/graph.md):
// include hubs, orphan files, include cycles (iterative Tarjan SCC),
// dead/backup files and vendor directories. And the watch scheduler's core
// query: dependency_cone() — every file whose analysis could observe a
// change to the given files, i.e. the reverse closure over include and use
// edges. The cone is reported only; the watch mode's byte-identity
// guarantee never depends on it (service/watch.h).
//
// Serialization round-trips through util/json_writer + util/json_reader so
// a front-end can persist or diff graphs across scans.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "php/file_index.h"
#include "php/project.h"
#include "util/arena.h"

namespace phpsafe::graph {

/// True when two parses of a file would produce the same graph nodes and
/// edges: same name, parse state and facts (names compared folded). An
/// edit that only touches comments, whitespace or statement bodies keeps
/// the structure, so a linked graph stays valid and only the node hash
/// needs refreshing (set_file_hash).
bool structure_equals(const php::ParsedFile& a, const php::ParsedFile& b);

class ProjectGraph {
public:
    using FileId = php::FileIndex::Id;  ///< ids are FileIndex ids
    using FuncId = int32_t;
    static constexpr FileId kNoFile = php::FileIndex::kNone;

    /// Ranked include hub: a file and how many distinct files include it.
    struct Hub {
        FileId file = kNoFile;
        int fan_in = 0;
    };

    /// Whole-graph analytics, computed by analyze().
    struct Analytics {
        std::vector<Hub> hubs;                 ///< top-N include fan-in
        std::vector<FileId> orphans;           ///< see analyze() docs
        std::vector<std::vector<FileId>> cycles;  ///< include SCCs, sorted
        std::vector<FileId> dead_files;        ///< backup/leftover names
        std::vector<std::string> vendor_dirs;  ///< shared-library directories
    };

    ProjectGraph() = default;
    ProjectGraph(ProjectGraph&&) = default;
    ProjectGraph& operator=(ProjectGraph&&) = default;

    /// Links a graph from the files' facts, one file node per file in
    /// order. Function nodes are each file's free functions, then its
    /// "class::method"s, each sorted by folded name. Name resolution mirrors
    /// php::Project: first declaration wins for functions and classes, a
    /// "::method" call links to every class declaring the method (a
    /// conservative superset — the receiver class is not re-inferred here),
    /// a "class::method" call and an `extends` use the class, and include
    /// paths resolve like php::Project::resolve_include (php::FileIndex).
    static ProjectGraph build(
        const std::vector<std::shared_ptr<const php::ParsedFile>>& files);

    // -- nodes ---------------------------------------------------------------
    int file_count() const noexcept { return static_cast<int>(files_.size()); }
    std::string_view file_name(FileId id) const { return files_[static_cast<size_t>(id)].name; }
    uint64_t file_hash(FileId id) const { return files_[static_cast<size_t>(id)].hash; }
    bool file_parse_failed(FileId id) const { return files_[static_cast<size_t>(id)].parse_failed; }
    /// Refreshes a node's content hash in place — the structure-preserving
    /// edit fast path (see structure_equals): edges stay valid, only the
    /// recorded content moved.
    void set_file_hash(FileId id, uint64_t hash) {
        files_[static_cast<size_t>(id)].hash = hash;
    }
    /// Id of the exactly-named file (the first of duplicates), or kNoFile.
    FileId file_id(std::string_view name) const { return file_index_.find(name); }

    int function_count() const noexcept { return static_cast<int>(functions_.size()); }
    std::string_view function_name(FuncId id) const { return functions_[static_cast<size_t>(id)].name; }
    /// The declaring-file link of a function node.
    FileId declaring_file(FuncId id) const { return functions_[static_cast<size_t>(id)].file; }
    /// Function nodes declared by `file`, in declaration order.
    const std::vector<FuncId>& functions_of(FileId file) const {
        return files_[static_cast<size_t>(file)].functions;
    }

    // -- edges (sorted, deduplicated, self-edges kept only for includes) -----
    const std::vector<FileId>& includes_of(FileId id) const { return files_[static_cast<size_t>(id)].includes; }
    const std::vector<FileId>& included_by(FileId id) const { return files_[static_cast<size_t>(id)].included_by; }
    const std::vector<FileId>& uses_of(FileId id) const { return files_[static_cast<size_t>(id)].uses; }
    const std::vector<FileId>& used_by(FileId id) const { return files_[static_cast<size_t>(id)].used_by; }
    int include_edge_count() const noexcept { return include_edges_; }
    int use_edge_count() const noexcept { return use_edges_; }

    // -- queries -------------------------------------------------------------
    /// The invalidated cone of an edit: every file that can transitively
    /// reach a changed file through include or use edges (i.e. whose
    /// analysis could observe the change), plus the changed files
    /// themselves. Result is sorted by id. Unknown ids are ignored.
    std::vector<FileId> dependency_cone(const std::vector<FileId>& changed) const;

    /// Analytics over the whole graph:
    ///   hubs      - the `hub_limit` most-included files (fan-in > 0),
    ///               ties broken by name.
    ///   orphans   - subdirectory files nothing includes and nothing uses:
    ///               candidates for deletion or for files the CMS reaches
    ///               directly. Top-level files and well-known entry
    ///               basenames (index.php, main.php) are assumed to be
    ///               entry points; dead/backup files are reported
    ///               separately.
    ///   cycles    - include-edge SCCs of size > 1 plus self-includes
    ///               (iterative Tarjan — deep include chains must not
    ///               recurse), each cycle and the list sorted by name.
    ///   dead      - backup/leftover names: *.bak, *~, *.old, *.orig and
    ///               "copy of" prefixes. Shipped backups of PHP files are
    ///               a real plugin-audit finding — servers execute them.
    ///   vendor    - top-level directories that look like shared
    ///               libraries: a known-name set (vendor/, framework/,
    ///               lib/, ...) plus any directory included from three or
    ///               more other top-level directories.
    Analytics analyze(int hub_limit = 5) const;

    // -- serialization -------------------------------------------------------
    /// Compact JSON: nodes with names/hashes, edges as [from,to] id pairs.
    std::string to_json() const;
    /// Rebuilds a graph from to_json() output. Round-trip is exact:
    /// to_json(parse(j)) == j. Returns false (with `error`) on malformed
    /// or out-of-range input.
    static bool from_json(std::string_view text, ProjectGraph& out,
                          std::string* error = nullptr);

private:
    struct FileNode {
        std::string_view name;  ///< interned in names_
        uint64_t hash = 0;
        bool parse_failed = false;
        std::vector<FuncId> functions;
        std::vector<FileId> includes;
        std::vector<FileId> included_by;
        std::vector<FileId> uses;
        std::vector<FileId> used_by;
    };
    struct FuncNode {
        std::string_view name;  ///< interned in names_
        FileId file = kNoFile;
    };

    std::string_view intern(std::string_view s);
    void finish_edges();
    /// Rebuilds file_index_ over the file nodes' names.
    void index_files();

    Arena names_;  ///< backs every node name; nodes hold views
    std::vector<FileNode> files_;
    std::vector<FuncNode> functions_;
    php::FileIndex file_index_;  ///< views of the interned node names
    int include_edges_ = 0;
    int use_edges_ = 0;
};

/// Links the graph of a parsed project's files.
ProjectGraph build_project_graph(const php::Project& project);

/// Renders analyze() output as one compact JSON object (the payload of the
/// NDJSON "graph" response). Ids are rendered as
/// file names so the output is stable across id assignment.
std::string render_graph_analytics(const ProjectGraph& g,
                                   const ProjectGraph::Analytics& a);

}  // namespace phpsafe::graph
