// WatchSession: the incremental scheduler behind the NDJSON "watch"/"edit"
// ops. A client opens a session with a full scan request, then streams
// file-change events; each edit batch answers with *delta findings* — what
// the change added and removed relative to the previous scan — instead of
// the whole report.
//
// State kept per session (this is what the whole-request warm path pays
// for on every scan and a watch session pays for once):
//   - every file's content hash and a pinned shared_ptr to its immutable
//     parsed AST (pinned from the service's file pool after the scan that
//     parsed it, or re-parsed locally when the pool evicted it),
//   - the summary seeds of the last scan (SeedSet, core/summaries.h),
//   - the previous scan's findings, diffed against each new scan.
//
// An edit therefore submits a request whose unchanged files are pinned
// ASTs: the service skips re-hashing, re-parsing and the per-file cache
// probes for everything outside the edit, and the request fingerprint is
// computed from content hashes alone.
//
// Soundness: the re-scan always covers the full updated file set through
// the same AnalysisService::perform_scan path as a cold scan, so delta
// findings are byte-identical to the diff of two full cold re-scans by the
// service's standing warm==cold invariant — at any PHPSAFE_JOBS, any cache
// state, any preset. What follows the edit is cost: the session's SeedSet
// rides along with every scan it submits. SeedSet::rebase diffs the new
// project against the set's own snapshot and hands back only the summaries
// whose recorded dependencies — file contents, name resolutions, include
// hints — the edit can change, so DepCheckMemo (the one summary-reuse
// gate) re-checks those and nothing else, and every other summary is
// seeded without a walk. That re-check set is the edit's cone, and the
// delta reports it (cone_functions/cone_files). A scan answered from the
// result pool runs no rebase, reports an empty cone and leaves the set
// untouched; the next rebase diffs from the older snapshot. A scan that
// skipped out-of-cone files outright would be unsound: a changed file can
// shadow a declaration an out-of-cone summary resolved, which the rebase
// catches by name.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/finding.h"
#include "graph/project_graph.h"
#include "service/service.h"

namespace phpsafe::service {

/// One batch of file-change events (the "edit" op). Upserts create or
/// replace files; removals delete them. A name in both lists is an error.
struct WatchEditBatch {
    std::vector<SourceFileSpec> upserts;  ///< name + text
    std::vector<std::string> removals;
};

/// Answer to one edit batch.
struct WatchDelta {
    bool ok = false;
    std::string error;          ///< set when !ok (nothing was applied)
    int changed_files = 0;      ///< upserts + removals applied
    /// The re-scan's ScanResponse::recheck_files and summaries_rechecked:
    /// the files declaring the summaries the edit sent back through
    /// DepCheckMemo, and those summaries. 0/0 for a result-pool hit.
    int cone_files = 0;
    int cone_functions = 0;
    /// Findings present after the edit but not before / before but not
    /// after, diffed by canonical serialization (report/export.h
    /// finding_json) honoring multiplicity, in result order.
    std::vector<Finding> added;
    std::vector<Finding> removed;
    ScanResponse response;      ///< the underlying full re-scan
};

class WatchSession {
public:
    /// The service is shared (it outlives the session); scans submitted by
    /// the session go through its normal queue and caches.
    explicit WatchSession(AnalysisService& service) : service_(service) {}

    bool active() const noexcept { return active_; }
    int file_count() const noexcept { return static_cast<int>(files_.size()); }

    /// Opens (or re-opens, replacing all state) the session: runs a full
    /// scan of `request` and captures the baseline. The response is the
    /// ordinary scan response for the request.
    ScanResponse open(ScanRequest request);

    /// Applies one edit batch and re-scans. The batch must change at least
    /// one file; removals must name files the session holds.
    WatchDelta edit(const WatchEditBatch& batch);

    /// The summary seeds the next edit starts from.
    const SeedSet& seeds() const noexcept { return seeds_; }

    /// Findings of the most recent scan.
    const std::vector<Finding>& baseline_findings() const noexcept {
        return baseline_;
    }

    /// Snapshot of the session's current full request — plugin, preset
    /// and the complete file set with pinned ASTs. The session-
    /// aware "validate" op replays this through AnalysisService::validate,
    /// fingerprint-compatible with the session's own scans. Empty (no
    /// files) before open().
    ScanRequest request() const {
        return active_ ? assemble_request() : ScanRequest{};
    }

private:
    struct FileState {
        uint64_t hash = 0;
        std::shared_ptr<const php::ParsedFile> parsed;  ///< pinned AST
        std::string text;  ///< kept only while `parsed` is null
    };

    /// The session's full file set as a scan request (files in name
    /// order — deterministic like load_directory's path sort).
    ScanRequest assemble_request() const;
    /// Pins the AST of a file the last scan parsed from text.
    void pin(const std::string& name, FileState& state);

    AnalysisService& service_;
    ScanRequest base_;  ///< plugin/preset/priority (files unused)
    std::map<std::string, FileState> files_;
    std::vector<Finding> baseline_;
    std::vector<std::string> baseline_keys_;  ///< finding_json of each
    /// Summary seeds carried from scan to scan (see the header).
    SeedSet seeds_;
    bool active_ = false;
};

/// Builds the project graph of a request, reusing the service's file pool
/// for parsed files — the "graph" op, over an explicit "path"/"files"
/// payload or over a watch session's request(), whose pinned ASTs make no
/// cache probes.
graph::ProjectGraph build_request_graph(AnalysisService& service,
                                        const ScanRequest& request);

}  // namespace phpsafe::service
