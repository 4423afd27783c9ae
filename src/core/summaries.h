// Function summaries (paper §III.C: "every function is analyzed only the
// first time it is called; the data flow of this analysis is used to
// process future calls"). A summary records, per parameter, which
// vulnerability kinds pass unsanitized to the return value and to each
// sensitive sink inside the function, plus any taint the function produces
// on its own (internal sources). Recursive calls are cut by the
// `in_progress` marker, matching the paper's endless-loop guard.
#pragma once

#include <cstdint>
#include <map>
#include <string>
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

/// Seeds and captures for one engine run. `seeds` maps lowercased qualified
/// names to artifacts installed instead of analyzing the body; callers admit
/// only artifacts a DepCheckMemo over the run's project accepts. `capture`
/// (when set) receives an artifact, with a complete dependency record, for
/// every summary the run computes context-free. Both require
/// AnalysisOptions::hermetic_summaries.
struct SummaryExchange {
    const std::map<std::string, const SummaryArtifact*>* seeds = nullptr;
    std::map<std::string, SummaryArtifact>* capture = nullptr;
};

/// The one summary-reuse gate, for the service's cross-scan seeding and
/// quickfix verification alike: checks a SummaryArtifact's recorded
/// dependencies against the project a seeded run would analyze. kFile deps
/// compare their recorded content hash, resolution deps re-resolve to the
/// same file; a false result means seeding the artifact would be unsound. File deps are answered by the
/// project's file index. Every other distinct (kind, name) is resolved
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

/// Keyed map of summaries ("function" or "class::method", lowercased).
class SummaryStore {
public:
    FunctionSummary& slot(const std::string& qualified_lower);
    const FunctionSummary* find(const std::string& qualified_lower) const;
    void clear();
    size_t size() const noexcept { return summaries_.size(); }

    /// All qualified names with a computed summary (for engine statistics).
    std::vector<std::string> analyzed_names() const;

private:
    std::map<std::string, FunctionSummary> summaries_;
};

}  // namespace phpsafe
