// Project model: a plugin is a set of PHP files analyzed together. The
// model-construction stage (paper §III.B) parses every file, collects all
// user-defined functions/classes — wherever they are declared, including
// inside conditional blocks (`if (!function_exists(...))` guards are common
// in WordPress plugins) — and records which functions are called from
// plugin code so the engine can analyze the never-called ones too.
//
// Those declaration, call and include facts are computed once per file, by
// the one AST walk in parse_file(), and stored on the immutable ParsedFile
// (FileFacts). Building the project tables — for a fresh parse, for a file
// set injected pre-parsed from a cache, or for a single-file fork — only
// appends each file's facts in registration order; no AST is walked twice.
// The project graph (graph/project_graph.h) and the watch mode read the
// same facts.
//
// Incremental-analysis hooks (service/): every file carries a stable
// content hash (fnv1a64 of its text), parsed files are held by shared
// pointer so an immutable AST can be shared between the project that parsed
// it, the service's content-addressed cache, and any later project built
// for a new version of the plugin, and `add_parsed()` lets a builder inject
// an already-parsed file instead of re-lexing identical content.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "php/ast.h"
#include "php/file_index.h"
#include "util/arena.h"
#include "util/diagnostics.h"
#include "util/source.h"
#include "util/strings.h"

namespace phpsafe::php {

/// Where a function/method declaration lives. `file` is a view of the
/// declaring ParsedFile's unit.file_name — valid as long as the Project
/// (which pins every ParsedFile by shared_ptr) is alive, and copying a
/// FunctionRef never touches the heap.
struct FunctionRef {
    const FunctionDecl* decl = nullptr;
    const ClassDecl* owner = nullptr;  ///< null for free functions
    std::string_view file;

    /// "name" for free functions, "Class::name" for methods.
    std::string qualified_name() const;
};

/// What one file declares, calls and includes: the per-file input of model
/// construction and of the project graph. Filled by the single AST walk in
/// Project::parse_file() and immutable afterwards, like the AST it views;
/// every buffer and folded key lives in the owning ParsedFile's arena.
struct FileFacts {
    /// Declarations in declaration order: the methods of each class (classes
    /// in walk order), then the free functions wherever declared (top level,
    /// inside conditional guards, nested in other functions).
    ArenaVector<FunctionRef> functions;
    ArenaVector<const ClassDecl*> classes;  ///< walk order
    /// Called free functions, ASCII-folded, sorted, de-duplicated. A
    /// callback registration (add_action('init', 'h'), call_user_func, ...)
    /// calls its literal target.
    ArenaVector<std::string_view> called_functions;
    /// Called methods as folded "class::method" keys, "::method" when the
    /// receiver class is unknown; `new C` calls "c::__construct". Sorted,
    /// de-duplicated.
    ArenaVector<std::string_view> called_methods;
    /// Include/require path literals, sorted and de-duplicated. A path built
    /// by concatenation keeps its trailing literal, so the
    /// `dirname(__FILE__) . '/x.php'` idiom resolves by suffix.
    ArenaVector<std::string_view> includes;
};

/// One immutable parsed file. The AST's nodes and every string_view hanging
/// off them point into `arena` or `source`; member order matters — `facts`
/// and `unit` are destroyed first, then the arena, then the source text, so
/// nothing dangles during teardown. Holders of node pointers (engine scopes,
/// summaries, findings) must either keep the owning shared_ptr alive or
/// copy/intern the strings they retain (see docs/performance.md).
struct ParsedFile {
    std::unique_ptr<SourceFile> source;
    Arena arena;  ///< backs all AST nodes, facts and decoded/synthesized strings
    FileUnit unit;
    FileFacts facts;  ///< filled with the AST, never later
    bool parse_failed = false;  ///< a kFatal diagnostic was recorded
    uint64_t content_hash = 0;  ///< fnv1a64 of the source text
    uint64_t text_bytes = 0;    ///< source text size
    uint64_t ast_nodes = 0;     ///< AST nodes built for this file
};

/// Stable content hash of one file's text; the key of every file-level
/// entry in the incremental service's cache.
uint64_t content_hash(std::string_view text) noexcept;

class Project {
public:
    /// CPU cost of model construction, split by stage. parse_all() adds to
    /// these; lex covers tokenization, parse covers tree building, the facts
    /// walk and building the tables. Files injected via add_parsed() cost
    /// neither.
    struct BuildStats {
        double lex_cpu_seconds = 0;
        double parse_cpu_seconds = 0;
        int files_reused = 0;  ///< files injected pre-parsed (cache hits)
    };

    explicit Project(std::string name) : name_(std::move(name)) {}

    Project(Project&&) = default;
    Project& operator=(Project&&) = default;

    const std::string& name() const noexcept { return name_; }

    /// Registers a file; call parse_all() afterwards.
    void add_file(std::string file_name, std::string text);

    /// Injects an already-parsed, immutable file (shared with whoever parsed
    /// it — typically the service's AST cache). Keeps registration order
    /// relative to add_file() calls; call parse_all() afterwards to index it.
    void add_parsed(std::shared_ptr<const ParsedFile> file);

    /// Parses every pending file, then builds the declaration tables from
    /// every file's facts in registration order.
    void parse_all(DiagnosticSink& sink);

    /// Parses `text` as a replacement for the existing file `file_name` and
    /// returns a project equal to the one add_file()+parse_all() would build
    /// over the patched file set: the same files with one slot swapped, the
    /// tables rebuilt from the files' facts. No unchanged file is re-lexed
    /// or re-walked. Every other ParsedFile is shared with this project
    /// (both pin them by shared_ptr, so neither project's lifetime depends
    /// on the other's). This is the model-construction fast path of batch
    /// quickfix verification (validate/). Returns nullopt when `file_name`
    /// names no file of this project, or the project has unparsed files.
    std::optional<Project> fork_with_replacement(std::string_view file_name,
                                                 std::string text,
                                                 DiagnosticSink& sink) const;

    const BuildStats& build_stats() const noexcept { return build_stats_; }

    const std::vector<std::shared_ptr<const ParsedFile>>& files() const noexcept {
        return files_;
    }

    /// Total lines across all files (the paper reports corpus KLOC).
    int total_lines() const noexcept;

    /// Exact-name file lookup (the first file when a name is duplicated).
    const ParsedFile* file_named(std::string_view name) const {
        return at(file_index_.find(name));
    }

    /// Free function lookup (case-insensitive, as in PHP).
    const FunctionRef* find_function(std::string_view name) const;

    /// Class lookup (case-insensitive).
    const ClassDecl* find_class(std::string_view name) const;

    /// File declaring `class_name` (case-insensitive); empty when unknown.
    const std::string& file_of_class(std::string_view class_name) const;

    /// Method lookup honoring single inheritance.
    const FunctionRef* find_method(std::string_view class_name,
                                   std::string_view method_name) const;

    /// Resolves a method by name alone when exactly one class declares it
    /// (used when the receiver's class cannot be inferred; mirrors the
    /// paper's backward name search over the token stream).
    const FunctionRef* find_method_any(std::string_view method_name) const;

    /// All declared functions and methods, in declaration order.
    const std::vector<FunctionRef>& all_functions() const noexcept {
        return function_list_;
    }

    /// Names of free functions called anywhere in plugin code (folded,
    /// sorted, de-duplicated; views into the files' arenas).
    const std::vector<std::string_view>& called_function_names() const noexcept {
        return called_functions_;
    }

    /// "class::method" / "::method" keys called anywhere in plugin code
    /// (folded, sorted, de-duplicated).
    const std::vector<std::string_view>& called_method_names() const noexcept {
        return called_methods_;
    }

    /// Functions and methods never called from plugin code (paper §III.C:
    /// these must still be analyzed — the CMS may call them directly), in
    /// declaration order. Computed once per table build.
    const std::vector<FunctionRef>& uncalled_functions() const noexcept {
        return uncalled_;
    }

    /// Resolves an include path literal (FileIndex::resolve, the rules the
    /// project graph's include edges use too): exact name, then a suffix on
    /// a path-segment boundary ("b.php" claims "lib/b.php", never "ab.php"),
    /// then basename. Null for external (CMS / PHP library) includes.
    const ParsedFile* resolve_include(std::string_view path) const {
        return at(file_index_.resolve(path));
    }

private:
    /// Lexes + parses one file into an immutable ParsedFile and walks its
    /// AST once for the FileFacts (the body of the parse_all() pending
    /// loop, shared with fork_with_replacement()).
    static std::shared_ptr<const ParsedFile> parse_file(std::string name,
                                                        std::string text,
                                                        DiagnosticSink& sink,
                                                        double& lex_seconds);
    /// Rebuilds every table over files_ by appending each file's facts in
    /// registration order (first declaration wins), plus the file index and
    /// the uncalled list — eagerly, because worker threads read one Project
    /// concurrently.
    void index();
    const ParsedFile* at(FileIndex::Id id) const {
        return id == FileIndex::kNone ? nullptr : files_[id].get();
    }

    std::string name_;
    /// Files in registration order. Slots for add_file() entries stay null
    /// until parse_all() fills them; add_parsed() entries are set eagerly.
    std::vector<std::shared_ptr<const ParsedFile>> files_;
    struct PendingFile {
        size_t slot = 0;  ///< index into files_
        std::string name;
        std::string text;
    };
    std::vector<PendingFile> pending_;
    FileIndex file_index_;  ///< views of each file's unit.file_name
    /// Declaration tables. Keys are views of the declaration names, which
    /// live in the owning file's arena (pinned by files_), under the
    /// transparent FoldedLess comparator — so indexing a declaration costs
    /// one tree-node allocation and lookups pass mixed-case string_views
    /// straight from AST nodes without allocating a folded temporary.
    std::map<std::string_view, FunctionRef, FoldedLess> functions_;
    std::map<std::string_view, const ClassDecl*, FoldedLess> classes_;
    /// Values point at the declaring file's unit.file_name (stable).
    std::map<std::string_view, const std::string*, FoldedLess> class_files_;
    /// Methods are keyed (class, method) — both views — folded per part.
    struct MethodKey {
        std::string_view class_name;
        std::string_view method;
    };
    struct MethodKeyLess {
        using is_transparent = void;
        constexpr bool operator()(const MethodKey& a,
                                  const MethodKey& b) const noexcept {
            const int c = folded_compare(a.class_name, b.class_name);
            if (c != 0) return c < 0;
            return folded_compare(a.method, b.method) < 0;
        }
    };
    std::map<MethodKey, FunctionRef, MethodKeyLess> methods_;
    std::vector<FunctionRef> function_list_;
    std::vector<std::string_view> called_functions_;
    std::vector<std::string_view> called_methods_;
    std::vector<FunctionRef> uncalled_;
    BuildStats build_stats_;
};

}  // namespace phpsafe::php
