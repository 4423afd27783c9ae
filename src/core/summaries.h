// Function summaries (paper §III.C: "every function is analyzed only the
// first time it is called; the data flow of this analysis is used to
// process future calls"). A summary records, per parameter, which
// vulnerability kinds pass unsanitized to the return value and to each
// sensitive sink inside the function, plus any taint the function produces
// on its own (internal sources). Recursive calls are cut by the
// `in_progress` marker, matching the paper's endless-loop guard.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "config/knowledge.h"
#include "core/finding.h"
#include "core/taint.h"
#include "util/diagnostics.h"
#include "util/source.h"

namespace phpsafe {

namespace php {
class Project;
struct FunctionRef;
struct ParsedFile;
}

/// A sink inside a summarized function reachable from a parameter.
struct ParamSinkFlow {
    int param = 0;
    VulnSet kinds;              ///< kinds that reach the sink unsanitized
    VulnKind vuln = VulnKind::kXss;
    SourceLocation location;    ///< sink location inside the callee
    std::string sink_name;
    std::string variable;       ///< vulnerable expression at the sink
    bool via_oop = false;
};

struct FunctionSummary {
    bool analyzed = false;
    bool in_progress = false;   ///< recursion guard

    /// Return-value taint independent of arguments (internal sources).
    TaintValue return_base;

    /// Per-parameter kinds that flow into the return value unsanitized.
    std::vector<ParamFlow> param_to_return;

    /// Kinds the function sanitizes on flows from parameter to return (the
    /// paper's inter-procedural check "if the function is able to sanitize
    /// the tainted data"). Derived: a kind missing from param_to_return for
    /// a parameter that does reach the return was sanitized en route.
    std::vector<ParamSinkFlow> param_sinks;

    /// True when the summarized body writes taint into globals/properties;
    /// those writes happen against the live stores during summarization.
    bool has_side_effects = false;

    /// Final taint of by-reference parameters (PHP `function f(&$x)`): the
    /// callee's writes flow back into the caller's argument variable.
    struct ParamOut {
        int param = 0;
        TaintValue value;
    };
    std::vector<ParamOut> param_outputs;
};

// ---------------------------------------------------------------------------
// Cross-run summary reuse (the incremental analysis service)
// ---------------------------------------------------------------------------

/// One thing a summary's computation observed about the project. Reusing the
/// summary in a later run is sound only while every observation still holds;
/// DepCheckMemo re-checks them against the new project before seeding.
struct SummaryDep {
    enum class Kind {
        kFile,       ///< read this file's content (body, callee, include,
                     ///< constructed class)
        kFunction,   ///< resolved a free-function name (file empty: unresolved)
        kMethod,     ///< resolved "class::method" (file empty: unresolved)
        kMethodAny,  ///< resolved a method by unique name across classes
        kClass,      ///< resolved a class name (file empty: unresolved)
        kInclude,    ///< resolved an include path hint (file empty: external)
    };
    Kind kind = Kind::kFile;
    std::string name;  ///< lowercased symbol / path / file name
    std::string file;  ///< file the name resolved to; empty when unresolved
    /// For kFile deps: content hash of the file at capture time, written by
    /// the engine from the project's file index (0 for a name the project
    /// does not hold, which never validates).
    uint64_t hash = 0;

    friend bool operator<(const SummaryDep& a, const SummaryDep& b) {
        if (a.kind != b.kind) return a.kind < b.kind;
        if (a.name != b.name) return a.name < b.name;
        return a.file < b.file;
    }
    friend bool operator==(const SummaryDep& a, const SummaryDep& b) {
        return a.kind == b.kind && a.name == b.name && a.file == b.file;
    }
};

/// A function summary packaged for reuse across engine runs: the summary
/// itself, the findings that were reported while its body was analyzed
/// (replayed verbatim on reuse, so a warm run reports exactly what a cold
/// run would), and the dependency record that gates reuse. `reusable` is
/// false when the computation touched state a replay cannot reproduce —
/// globals, the property store, or an executed include — or ran under an
/// abnormal engine state; such artifacts are recomputed every run.
struct SummaryArtifact {
    FunctionSummary summary;
    std::vector<Finding> findings;
    std::vector<SummaryDep> deps;
    /// Entry-file artifacts only (AnalysisOptions::capture_entry_files):
    /// the final value of every shared slot — plain global ("$x"),
    /// class-level property ("Cls->prop") or static property ("Cls::prop")
    /// — the entry's top-level walk wrote, name-sorted. Replayed on seeding
    /// so later entry files observe the same shared state a fresh walk
    /// would have left behind.
    std::vector<std::pair<std::string, TaintValue>> shared_writes;
    /// Entry-file artifacts only: shared slots this walk read (or
    /// weak-merged) before writing them, paired with the value_fingerprint
    /// of the value observed (0 marks an absent slot), name-sorted. A seed
    /// applies only while every slot still holds a value with the same
    /// fingerprint, checked against the live stores at seed time — so
    /// cross-entry state flows need no writer analysis: when any input
    /// changed, the check fails and the walk re-runs.
    std::vector<std::pair<std::string, uint64_t>> foreign_reads;
    /// Entry-file artifacts only: diagnostics the walk emitted, replayed on
    /// seeding (a warm run's diagnostic stream must match a cold run's),
    /// and whether the walk aborted the file (the include-depth failure of
    /// paper §V.E). A deterministic abort is as replayable as a clean walk:
    /// the dependency record covers everything read up to the abort point.
    std::vector<Diagnostic> diagnostics;
    bool file_failed = false;
    bool reusable = false;
};

class SeedSet;

/// Seeds and captures for one engine run. `seeds` supplies artifacts
/// installed instead of analyzing the body, keyed by lowercased qualified
/// name; callers admit only artifacts a DepCheckMemo over the run's project
/// accepts (SeedSet). `capture` (when set) receives an artifact, with a
/// complete dependency record, for every summary the run computes
/// context-free. Both require AnalysisOptions::hermetic_summaries.
struct SummaryExchange {
    const SeedSet* seeds = nullptr;
    std::map<std::string, SummaryArtifact>* capture = nullptr;
};

/// The one summary-reuse gate, for the service's cross-scan seeding and
/// quickfix verification alike: checks a SummaryArtifact's recorded
/// dependencies against the project a seeded run would analyze. kFile deps
/// compare their recorded content hash, resolution deps re-resolve to the
/// same file; a false result means seeding the artifact would be unsound.
/// SeedSet decides which artifacts need the check. File deps are answered
/// by the project's file index. Every other distinct (kind, name) is resolved
/// against the project once per memo, and every later artifact whose
/// dependency list mentions the same name is answered from the memo — the
/// cache_dep_walk_* obs counters record this (cache_dep_walks lists
/// walked, cache_dep_walk_steps project lookups performed,
/// cache_dep_walk_memo_hits records answered without one). Not
/// thread-safe; one memo per project and thread.
class DepCheckMemo {
public:
    explicit DepCheckMemo(const php::Project& project) : project_(project) {}

    /// True when every dependency recorded by `artifact` still holds.
    bool validate(const SummaryArtifact& artifact);

private:
    const php::Project& project_;
    /// (dep kind, name) → the file the name currently resolves to; ""
    /// when unresolved, so a dependency that was unresolved when recorded
    /// and still is validates.
    std::map<std::pair<int, std::string>, std::string> resolutions_;
};

/// The summary key of a declaration: its lowercased qualified name,
/// "function" or "class::method" ("<null>" without a declaration).
std::string summary_key(const php::FunctionRef& ref);

/// The declaration a summary key ("function" or "class::method",
/// lowercased) stands for in `project`: the first declaration of the free
/// function, or of the method on that class itself (an inherited method is
/// another key). Null when the project declares none — entry-file keys
/// ("file:<name>") included.
const php::FunctionRef* declaration_of(const php::Project& project,
                                       std::string_view key);

/// The summary seeds of one evolving project (paper §III.C's analyze-once
/// rule carried across edits). The set holds, per key, the artifact that
/// last passed DepCheckMemo — or that a run over the project captured —
/// together with the file snapshot (names, content hashes, FileFacts) it
/// holds for, and a reverse index from each recorded dependency to the
/// artifacts that record it.
///
/// rebase() moves the set onto the next version of the project by diffing
/// that version against the snapshot, never against whatever was scanned
/// last, so a scan that skipped the set in between (a result-pool hit)
/// costs nothing but a wider diff. An artifact leaves the set when the diff
/// can change a dependency it records or the declaration its key names:
///   - kFile: a changed, added or removed file name;
///   - kFunction, kClass, kMethodAny: a name whose declarations moved — a
///     changed file declares it before or after the edit but not both, or
///     an added or removed file declares it; an earlier duplicate
///     declaration changes a key's owner, so keys are checked the same way;
///   - kMethod "c::m": a class on c's inheritance chain whose parent or
///     method list moved, since those are all the lookup reads;
///   - kInclude: a path hint whose basename is an added or removed file's
///     basename — include resolution only ever considers such files.
/// Every other resolution reads only declarations that did not move, so
/// every remaining artifact still passes DepCheckMemo on the new version
/// without being walked. The caller looks the returned keys up again and
/// admits what DepCheckMemo accepts, which keeps the set equal to a full
/// DepCheckMemo pass over the same candidates. When files are added or
/// removed the diff goes by name, so the surviving files must keep their
/// relative order and every name must be unique; otherwise the rebase
/// drops everything (first-declaration-wins lookups would move).
///
/// A candidate that failed DepCheckMemo stays in the set as a rejected
/// entry (never seeded) with its dependencies indexed, so it is looked up
/// again once an edit touches what made it fail — a reverted edit revives
/// it. Copies share the index until one of them admits a new artifact.
class SeedSet {
public:
    /// A key to look up again after rebase().
    struct Probe {
        std::string key;
        /// The key's declaration in the new project when rebase() knows it
        /// (a key it found by walking declarations); else null.
        const php::FunctionRef* owner = nullptr;
        /// The artifact the key held before the rebase — a seed or a
        /// rejected candidate; null for a key that held none.
        std::shared_ptr<const SummaryArtifact> held;
    };

    /// An empty set without a snapshot: its first rebase() returns every
    /// declared key.
    SeedSet() = default;

    /// The set of one run's reusable captures over `project` (valid for it
    /// by construction), indexed for rebase().
    SeedSet(const php::Project& project,
            std::map<std::string, SummaryArtifact> capture);

    /// The seed for `key`, or null.
    const SummaryArtifact* find(std::string_view key) const;
    /// Seeded keys.
    size_t size() const noexcept { return seeds_; }
    std::vector<std::string> keys() const;

    /// Moves the set onto `next` (see the class comment) and returns the
    /// keys to look up again: everything dropped, with the artifact it
    /// held, and every key a changed or added file declares that holds
    /// nothing. Without a snapshot: every declared key, in declaration
    /// order.
    std::vector<Probe> rebase(const php::Project& next);

    /// Seeds `artifact` under `key`. It must hold for the project of the
    /// last rebase(): DepCheckMemo accepted it, or a run captured it.
    void admit(std::string_view key,
               std::shared_ptr<const SummaryArtifact> artifact);
    /// Records a candidate for `key` that DepCheckMemo refused; `key` is
    /// no longer seeded.
    void reject(std::string_view key,
                std::shared_ptr<const SummaryArtifact> artifact);

private:
    struct Entry {
        std::shared_ptr<const SummaryArtifact> artifact;
        bool seed = false;
    };
    /// One indexed dependency: the key whose artifact records it. Stale
    /// once the key holds another artifact; lookups check.
    struct Ref {
        std::string key;
        const SummaryArtifact* artifact = nullptr;
    };
    /// Dependency → refs, one table per SummaryDep::Kind. kMethod deps are
    /// filed under their class, kInclude deps under the hint's basename.
    static constexpr size_t kDepKinds =
        static_cast<size_t>(SummaryDep::Kind::kInclude) + 1;
    struct Index {
        std::array<std::unordered_map<std::string, std::vector<Ref>>,
                   kDepKinds>
            buckets;
        size_t refs = 0;
    };

    void put(std::string_view key,
             std::shared_ptr<const SummaryArtifact> artifact, bool seed);
    void index_entry(const std::string& key, const SummaryArtifact& artifact);
    /// Builds the index over every entry (first use, or when stale refs
    /// outnumber live ones).
    void rebuild_index();
    /// Adds the live refs of `bucket` to `out` (and drops stale ones when
    /// this set owns the index).
    void collect(int kind, const std::string& bucket_key,
                 std::set<std::string>& out);
    bool holds(const Ref& ref) const;

    struct KeyHash {
        using is_transparent = void;
        size_t operator()(std::string_view key) const noexcept {
            return std::hash<std::string_view>{}(key);
        }
    };
    std::unordered_map<std::string, Entry, KeyHash, std::equal_to<>> entries_;
    size_t seeds_ = 0;
    /// Dependencies recorded by the entries' artifacts (the index's live
    /// refs).
    size_t live_refs_ = 0;
    std::shared_ptr<Index> index_;
    /// The files of the last rebase(), in project order.
    std::vector<std::shared_ptr<const php::ParsedFile>> snapshot_;
    bool has_snapshot_ = false;
};

/// Keyed map of summaries ("function" or "class::method", lowercased).
class SummaryStore {
public:
    FunctionSummary& slot(const std::string& qualified_lower);
    const FunctionSummary* find(const std::string& qualified_lower) const;
    void clear();
    size_t size() const noexcept { return summaries_.size(); }

    /// Number of keys with a computed summary (for engine statistics).
    size_t analyzed_count() const;

private:
    std::unordered_map<std::string, FunctionSummary> summaries_;
};

}  // namespace phpsafe
