#include "service/watch.h"

#include <algorithm>
#include <set>
#include <utility>

#include "obs/counters.h"
#include "report/export.h"
#include "util/diagnostics.h"

namespace phpsafe::service {

namespace {

/// Parses one file outside any project — the fallback when the service's
/// file pool evicted a parse between the scan and the state refresh.
std::shared_ptr<const php::ParsedFile> parse_standalone(
    const std::string& name, const std::string& text) {
    php::Project project("watch-refresh");
    project.add_file(name, text);
    DiagnosticSink sink;
    project.parse_all(sink);
    return project.files().empty() ? nullptr : project.files().front();
}

/// Canonical serialization of each finding (report/export.h), in order.
std::vector<std::string> finding_keys(const std::vector<Finding>& findings) {
    std::vector<std::string> keys;
    keys.reserve(findings.size());
    for (const Finding& f : findings) keys.push_back(finding_json(f));
    return keys;
}

}  // namespace

ScanRequest WatchSession::assemble_request() const {
    ScanRequest request = base_;
    request.files.reserve(files_.size());
    for (const auto& [name, state] : files_) {
        SourceFileSpec spec;
        spec.name = name;
        if (state.parsed) {
            spec.parsed = state.parsed;
        } else {
            spec.text = state.text;
            spec.known_hash = state.hash;
        }
        request.files.push_back(std::move(spec));
    }
    return request;
}

void WatchSession::refresh_state() {
    // After open() every file is new to the graph; after an edit only the
    // batch's upserts are (removals already left files_).
    bool relink = !graph_ || graph_stale_;
    const auto refresh = [&](const std::string& name, FileState& state) {
        if (!state.parsed) {
            state.parsed = service_.cache().find_file(name, state.hash);
            if (!state.parsed) state.parsed = parse_standalone(name, state.text);
            state.text.clear();  // the pinned AST retains the source
        }
        if (state.linked != state.parsed) {
            if (!relink && !(state.linked && graph::structure_equals(
                                                 *state.parsed, *state.linked)))
                relink = true;
            state.linked = state.parsed;
        }
    };
    if (!graph_) {
        for (auto& [name, state] : files_) refresh(name, state);
    } else {
        for (const std::string& name : edited_) refresh(name, files_.at(name));
    }
    if (relink) {
        std::vector<std::shared_ptr<const php::ParsedFile>> parsed;
        parsed.reserve(files_.size());
        for (const auto& [name, state] : files_) parsed.push_back(state.parsed);
        graph_ = std::make_unique<graph::ProjectGraph>(
            graph::ProjectGraph::build(parsed));
        ++obs::tls().graph_builds;
    } else {
        // Structure-preserving edit (comments, whitespace, bodies): every
        // node and edge stays valid, only the edited files' hashes moved.
        for (const std::string& name : edited_) {
            const auto id = graph_->file_id(name);
            if (id != graph::ProjectGraph::kNoFile)
                graph_->set_file_hash(id, files_.at(name).parsed->content_hash);
        }
    }
    edited_.clear();
    graph_stale_ = false;
}

ScanResponse WatchSession::open(ScanRequest request) {
    files_.clear();
    edited_.clear();
    graph_.reset();
    baseline_.clear();
    baseline_keys_.clear();
    seeds_ = SeedSet{};
    active_ = false;
    graph_stale_ = true;

    base_ = request;
    base_.files.clear();
    for (SourceFileSpec& spec : request.files) {
        FileState state;
        state.hash = AnalysisService::spec_content_hash(spec);
        state.parsed = std::move(spec.parsed);
        state.text = std::move(spec.text);
        files_.insert_or_assign(std::move(spec.name), std::move(state));
    }

    ScanRequest scan = assemble_request();
    scan.seeds = &seeds_;
    ScanResponse response = service_.scan(std::move(scan));
    if (response.rejected || response.cancelled) {
        files_.clear();
        return response;
    }
    baseline_ = response.result.findings;
    baseline_keys_ = finding_keys(baseline_);
    refresh_state();
    active_ = true;
    return response;
}

WatchDelta WatchSession::edit(const WatchEditBatch& batch) {
    WatchDelta delta;
    if (!active_) {
        delta.error = "no watch session open (send {\"op\":\"watch\"} first)";
        return delta;
    }
    if (batch.upserts.empty() && batch.removals.empty()) {
        delta.error = "edit changes no files";
        return delta;
    }
    std::set<std::string> touched;
    for (const SourceFileSpec& spec : batch.upserts) {
        if (spec.name.empty()) {
            delta.error = "edit file needs a non-empty name";
            return delta;
        }
        if (!touched.insert(spec.name).second) {
            delta.error = "edit touches \"" + spec.name + "\" twice";
            return delta;
        }
    }
    for (const std::string& name : batch.removals) {
        if (!touched.insert(name).second) {
            delta.error = "edit touches \"" + name + "\" twice";
            return delta;
        }
        if (!files_.count(name)) {
            delta.error = "cannot remove unknown file \"" + name + "\"";
            return delta;
        }
    }

    // The invalidated cone, on the pre-edit graph: everything that could
    // observe the changed files. Reported only — see the header.
    std::vector<graph::ProjectGraph::FileId> changed_ids;
    int new_files = 0;
    for (const std::string& name : touched) {
        const auto id = graph_->file_id(name);
        if (id == graph::ProjectGraph::kNoFile)
            ++new_files;  // brand-new file: in the cone by itself
        else
            changed_ids.push_back(id);
    }
    const std::vector<graph::ProjectGraph::FileId> cone =
        graph_->dependency_cone(changed_ids);
    delta.changed_files = static_cast<int>(touched.size());
    delta.cone_files = static_cast<int>(cone.size()) + new_files;
    for (const auto id : cone)
        delta.cone_functions +=
            static_cast<int>(graph_->functions_of(id).size());
    obs::tls().watch_edits += static_cast<uint64_t>(touched.size());
    obs::tls().watch_cone_files += static_cast<uint64_t>(delta.cone_files);

    // Apply the batch.
    for (const SourceFileSpec& spec : batch.upserts) {
        FileState& state = files_[spec.name];  // keeps `linked`
        state.hash = AnalysisService::spec_content_hash(spec);
        state.parsed = spec.parsed;
        state.text = spec.text;
        edited_.push_back(spec.name);
    }
    for (const std::string& name : batch.removals) files_.erase(name);
    if (new_files > 0 || !batch.removals.empty()) graph_stale_ = true;

    // Full re-scan: unchanged files ride as pinned ASTs, and the session's
    // seed set re-checks only the summaries the batch can invalidate.
    // Identical findings to a cold scan of the same content.
    ScanRequest scan = assemble_request();
    scan.seeds = &seeds_;
    delta.response = service_.scan(std::move(scan));
    if (delta.response.rejected || delta.response.cancelled) {
        delta.error = delta.response.rejected
                          ? "re-scan rejected by admission control"
                          : "re-scan cancelled";
        // Without a fresh baseline later deltas would be wrong; force the
        // client to re-open.
        active_ = false;
        baseline_.clear();
        baseline_keys_.clear();
        return delta;
    }

    // Delta findings: canonical-serialization multiset diff, both sides in
    // their result order. Byte-identical to diffing two full cold scans.
    // Each finding is serialized once: the baseline's keys are kept.
    const std::vector<Finding>& now = delta.response.result.findings;
    std::vector<std::string> now_keys = finding_keys(now);
    std::multiset<std::string_view> before_keys(baseline_keys_.begin(),
                                                baseline_keys_.end());
    std::multiset<std::string_view> after_keys(now_keys.begin(),
                                               now_keys.end());
    for (size_t i = 0; i < now.size(); ++i) {
        const auto it = before_keys.find(now_keys[i]);
        if (it != before_keys.end())
            before_keys.erase(it);
        else
            delta.added.push_back(now[i]);
    }
    for (size_t i = 0; i < baseline_.size(); ++i) {
        const auto it = after_keys.find(baseline_keys_[i]);
        if (it != after_keys.end())
            after_keys.erase(it);
        else
            delta.removed.push_back(baseline_[i]);
    }

    baseline_ = now;
    baseline_keys_ = std::move(now_keys);
    refresh_state();
    delta.ok = true;
    return delta;
}

graph::ProjectGraph build_request_graph(AnalysisService& service,
                                        const ScanRequest& request) {
    const php::Project project = service.build_project(request);
    ++obs::tls().graph_builds;
    return graph::build_project_graph(project);
}

}  // namespace phpsafe::service
