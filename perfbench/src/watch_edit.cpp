// watch-edit: one editor session, closed loop, over the generated
// monorepo at scale 4 (5,148 files). The session opens with an NDJSON
// {"op":"watch"} line carrying the whole tree, then sends one "edit" line
// at a time and waits for each reply: parse_ndjson_request, then
// WatchSession::edit, then render_edit_line. The edit mix and each edit's
// expected delta come from edit_script.h; --seed picks the files and the
// order. After the last edit, the session's findings must equal a cold
// Analyzer::scan of the final tree.
#include <algorithm>
#include <map>
#include <memory>

#include "baselines/analyzers.h"
#include "core/analyzer.h"
#include "corpus/generator.h"
#include "edit_script.h"
#include "graph/project_graph.h"
#include "report/export.h"
#include "service/ndjson.h"
#include "service/service.h"
#include "service/watch.h"
#include "trace.h"
#include "util/json_reader.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace svc = phpsafe::service;

/// Edits per second of --seconds: 100 edits at --seconds 10, so tail_ms
/// is a p90 with 10 samples beyond it. An edit takes 0.1–0.2 s on 4 cores.
constexpr double kEditsPerSecond = 10.0;
constexpr double kMonorepoScale = 4.0;
/// Set-ups per run (setup_s is their median); one takes about 0.25 s.
constexpr int kSetupRepeats = 5;

/// The program's state between set-up and the edits.
struct Session {
    std::unique_ptr<svc::AnalysisService> service;
    std::unique_ptr<svc::WatchSession> watch;
    ~Session() {
        watch.reset();  // the session borrows the service
    }
};

/// Program set-up: service start plus the watch open (a cold scan of the
/// whole tree). Returns its wall seconds.
double open_session(Session& s, const std::string& watch_line, RunResult& result) {
    s.watch.reset();
    s.service.reset();
    const double t0 = now_s();
    s.service = std::make_unique<svc::AnalysisService>();
    s.watch = std::make_unique<svc::WatchSession>(*s.service);
    svc::NdjsonRequest request = svc::parse_ndjson_request(watch_line);
    const svc::ScanResponse response = s.watch->open(std::move(request.scan));
    const std::string line =
        svc::render_watch_line(response, s.watch->file_count(), false);
    const double dt = now_s() - t0;
    if (request.op != svc::NdjsonRequest::Op::kWatch || !s.watch->active() ||
        line.empty())
        result.mismatch("watch-edit: the watch open failed");
    return dt;
}

struct EditTally {
    double wall_s = 0;
    double cpu_s = 0;
    std::vector<double> latencies;
    std::vector<std::string> replies;
    uint64_t bytes_in = 0, bytes_out = 0;
    phpsafe::obs::Counters counters;
    uint64_t findings = 0, result_hits = 0, deduplicated = 0, rejected = 0;
    uint64_t cone_files = 0, cone_functions = 0, files_reused = 0;
    uint64_t seeded = 0, invalidated = 0;
    double scan_s = 0;
};

EditTally run_edits(Session& s, const std::vector<std::string>& lines,
                    ThreadTrace& tt) {
    EditTally tally;
    tally.replies.reserve(lines.size());
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    {
        auto root = tt.open("bench.loop");
        for (size_t i = 0; i < lines.size(); ++i) {
            const double e0 = now_s();
            auto edit_span = tt.open("bench.edit", i + 1);
            svc::NdjsonRequest request;
            {
                auto span = tt.open("ndjson.parse", i + 1);
                request = svc::parse_ndjson_request(lines[i]);
            }
            svc::WatchDelta delta;
            {
                auto span = tt.open("watch.edit", i + 1);
                delta = s.watch->edit(request.edit);
            }
            {
                auto span = tt.open("ndjson.render", i + 1);
                tally.replies.push_back(svc::render_edit_line(delta, false));
            }
            edit_span.close();
            tally.latencies.push_back(now_s() - e0);
            tally.bytes_in += lines[i].size();
            tally.bytes_out += tally.replies.back().size();
            const svc::ScanResponse& r = delta.response;
            tally.counters += r.counters;
            tally.findings += r.result.findings.size();
            tally.result_hits += r.from_result_cache;
            tally.deduplicated += r.deduplicated;
            tally.rejected += r.rejected;
            tally.cone_files += static_cast<uint64_t>(delta.cone_files);
            tally.cone_functions += static_cast<uint64_t>(delta.cone_functions);
            tally.files_reused += static_cast<uint64_t>(r.files_reused);
            tally.seeded += static_cast<uint64_t>(r.summaries_seeded);
            tally.invalidated += static_cast<uint64_t>(r.summaries_invalidated);
            tally.scan_s += r.wall_seconds;
        }
    }
    tally.wall_s = now_s() - t0;
    tally.cpu_s = process_cpu_s() - cpu0;
    return tally;
}

/// Checks each reply against the delta its edit planted; returns the
/// number of edits whose reply differs.
uint64_t check_replies(const EditScript& script, const EditTally& tally,
                       RunResult& result) {
    uint64_t failed = 0;
    for (size_t i = 0; i < script.edits.size(); ++i) {
        const Edit& e = script.edits[i];
        phpsafe::JsonValue reply;
        std::string why;
        if (i >= tally.replies.size() ||
            !phpsafe::JsonReader::parse(tally.replies[i], reply)) {
            why = "no parsable reply";
        } else if (const phpsafe::JsonValue* ok = reply.get("ok");
                   !ok || !ok->boolean) {
            why = "reply not ok: " + reply.string_or("error", "");
        } else {
            const phpsafe::JsonValue* added = reply.get("added");
            const phpsafe::JsonValue* removed = reply.get("removed");
            if (!added || !removed || !added->is_array() || !removed->is_array()) {
                why = "reply without added/removed";
            } else if (static_cast<int>(added->array.size()) != e.expect_added ||
                       static_cast<int>(removed->array.size()) != e.expect_removed) {
                why = "delta +" + std::to_string(added->array.size()) + " -" +
                      std::to_string(removed->array.size()) + ", expected +" +
                      std::to_string(e.expect_added) + " -" +
                      std::to_string(e.expect_removed);
            } else if (e.line) {
                const phpsafe::JsonValue& f =
                    e.expect_added ? added->array[0] : removed->array[0];
                if (f.string_or("file", "") != e.file ||
                    f.int_or("line", 0) != e.line || f.string_or("kind", "") != "XSS")
                    why = "finding not at the planted sink";
            }
        }
        if (why.empty()) continue;
        ++failed;
        result.mismatch("watch-edit: edit " + std::to_string(i + 1) + " (" +
                        to_string(e.kind) + " " + e.file + "): " + why);
    }
    return failed;
}

/// The final tree as a project (name order, as the session holds it).
phpsafe::php::Project final_project(const EditScript& script) {
    phpsafe::php::Project project("monorepo");
    for (const auto& [name, text] : script.final_files) project.add_file(name, text);
    phpsafe::DiagnosticSink sink;
    project.parse_all(sink);
    return project;
}

/// The session's findings after the last edit must equal a cold scan of
/// the final tree with the service's phpsafe preset (hermetic summaries).
bool check_final(const Session& s, const phpsafe::php::Project& project,
                 RunResult& result) {
    phpsafe::Tool tool = phpsafe::make_phpsafe_tool();
    tool.options.hermetic_summaries = true;
    const phpsafe::Analyzer analyzer(std::move(tool.kb), tool.options);
    const phpsafe::ScanResult cold = analyzer.scan(project);
    std::vector<std::string> expected, actual;
    for (const auto& f : cold.result.findings) expected.push_back(phpsafe::finding_json(f));
    for (const auto& f : s.watch->baseline_findings())
        actual.push_back(phpsafe::finding_json(f));
    if (expected == actual) return true;
    result.mismatch("watch-edit: session findings (" + std::to_string(actual.size()) +
                    ") differ from a cold scan of the final tree (" +
                    std::to_string(expected.size()) + ")");
    return false;
}

}  // namespace

RunResult run_watch_edit(const RunOptions& options) {
    RunResult result;
    phpsafe::corpus::MonorepoOptions mono;
    mono.scale = kMonorepoScale;
    const phpsafe::corpus::MonorepoSource repo = phpsafe::corpus::generate_monorepo(mono);
    std::vector<std::string> seeded;
    for (const auto& v : repo.seeded_vulns) seeded.push_back(v.file);
    const int edits =
        std::max(20, static_cast<int>(options.seconds * kEditsPerSecond + 0.5));
    const EditScript script = make_edit_script(repo.files, seeded, options.seed, edits);
    const std::string watch_line = files_request("watch", "monorepo", repo.files);
    std::vector<std::string> lines;
    for (const Edit& e : script.edits)
        lines.push_back(files_request("edit", "", {{e.file, e.text}}));

    Session session;
    std::vector<double> setups;
    for (int r = 0; r < kSetupRepeats; ++r)
        setups.push_back(open_session(session, watch_line, result));

    Trace untraced(false, 1);
    reset_peak_rss();
    const EditTally timed = run_edits(session, lines, untraced.thread(0));
    const double peak_mb = peak_rss_mb();  // before the checks add their own
    uint64_t failed = check_replies(script, timed, result);
    const phpsafe::php::Project project = final_project(script);
    if (!check_final(session, project, result)) ++failed;
    result.attempted = timed.latencies.size();

    if (!options.trace) {
        // Each edit re-scans the whole tree. One closed-loop client:
        // max_rps is its completion rate.
        const double ops = static_cast<double>(timed.latencies.size());
        add_end_to_end(result, {ops, timed.wall_s, timed.cpu_s,
                                ops * static_cast<double>(repo.total_lines) / 1e3,
                                timed.latencies, 0, setups, peak_mb});
        std::map<std::string, std::vector<double>> by_kind;
        for (size_t i = 0; i < script.edits.size(); ++i)
            by_kind[to_string(script.edits[i].kind)].push_back(timed.latencies[i]);
        result.note("edit_classes", json_class_p50s(by_kind));
    } else {
        open_session(session, watch_line, result);
        Trace trace(true, 1);
        const EditTally t = run_edits(session, lines, trace.thread(0));
        failed += check_replies(script, t, result);
        if (!check_final(session, project, result)) ++failed;
        const uint64_t resident = session.service->cache_stats().bytes_resident;
        open_session(session, watch_line, result);
        const EditTally after = run_edits(session, lines, untraced.thread(0));
        failed += check_replies(script, after, result);
        if (!check_final(session, project, result)) ++failed;
        result.attempted += t.latencies.size() + after.latencies.size();

        auto total = [&](const char* name) { return span_totals(trace, name); };
        const double n = static_cast<double>(t.latencies.size());
        const phpsafe::obs::Counters& c = t.counters;
        std::vector<std::pair<std::string, double>> v;
        add_blocking_path(result, trace.thread(0), t.wall_s,
                          trace.thread(0).spans().size(), v);
        add_overhead(result, v, t.wall_s, timed.wall_s, after.wall_s);
        v.emplace_back("php.tokens", static_cast<double>(c.tokens_lexed));
        v.emplace_back("php.ast_nodes", static_cast<double>(c.ast_nodes));
        v.emplace_back("php.files_parsed", static_cast<double>(c.files_parsed));
        v.emplace_back("core.taint_propagations", static_cast<double>(c.taint_propagations));
        v.emplace_back("core.summaries_computed", static_cast<double>(c.summaries_computed));
        v.emplace_back("core.summaries_reused", static_cast<double>(c.summaries_reused));
        v.emplace_back("core.sink_checks", static_cast<double>(c.sink_checks));
        v.emplace_back("core.findings", static_cast<double>(t.findings));
        v.emplace_back("service.scan_ms", t.scan_s * 1e3 / n);
        v.emplace_back("service.result_hit_ratio", static_cast<double>(t.result_hits) / n);
        const double file_probes =
            static_cast<double>(c.cache_file_hits + c.cache_file_misses);
        v.emplace_back("service.file_hit_ratio",
                       file_probes ? static_cast<double>(c.cache_file_hits) / file_probes : 0);
        const double summaries = static_cast<double>(t.seeded + c.summaries_computed);
        v.emplace_back("service.summary_seed_ratio",
                       summaries ? static_cast<double>(t.seeded) / summaries : 0);
        v.emplace_back("service.summaries_invalidated", static_cast<double>(t.invalidated));
        v.emplace_back("service.evictions", static_cast<double>(c.cache_evictions));
        v.emplace_back("service.bytes_resident",
                       static_cast<double>(resident));
        v.emplace_back("service.shard_contention",
                       static_cast<double>(c.cache_shard_contention));
        v.emplace_back("service.rejected", static_cast<double>(t.rejected));
        v.emplace_back("service.deduplicated", static_cast<double>(t.deduplicated));
        v.emplace_back("ndjson.parse_mb_per_s",
                       static_cast<double>(t.bytes_in) / 1e6 / total("ndjson.parse").wall_s);
        v.emplace_back("ndjson.render_mb_per_s",
                       static_cast<double>(t.bytes_out) / 1e6 / total("ndjson.render").wall_s);
        v.emplace_back("ndjson.bytes_in", static_cast<double>(t.bytes_in));
        v.emplace_back("ndjson.bytes_out", static_cast<double>(t.bytes_out));
        v.emplace_back("watch.edit_ms", total("watch.edit").wall_s * 1e3 / n);
        v.emplace_back("watch.cone_files", static_cast<double>(t.cone_files));
        v.emplace_back("watch.cone_functions", static_cast<double>(t.cone_functions));
        v.emplace_back("watch.files_reused", static_cast<double>(t.files_reused));

        // Layer probes from outside: model construction of each edited
        // file alone (the one file an edit lexes), then, on the final tree,
        // the project graph the session relinks and every include literal.
        double lex = 0, parse = 0;
        uint64_t edited_bytes = 0;
        for (const Edit& e : script.edits) {
            phpsafe::php::Project one("edit");
            one.add_file(e.file, e.text);
            phpsafe::DiagnosticSink sink;
            one.parse_all(sink);
            lex += one.build_stats().lex_cpu_seconds;
            parse += one.build_stats().parse_cpu_seconds;
            edited_bytes += e.text.size();
        }
        v.emplace_back("php.lex_cpu_s", lex);
        v.emplace_back("php.parse_cpu_s", parse);
        v.emplace_back("php.lex_mb_per_s", static_cast<double>(edited_bytes) / 1e6 / lex);
        constexpr int kGraphBuilds = 3;
        const double g0 = now_s();
        size_t graph_files = 0;
        for (int i = 0; i < kGraphBuilds; ++i)
            graph_files += phpsafe::graph::build_project_graph(project).file_count();
        v.emplace_back("graph.build_ms", (now_s() - g0) * 1e3 / kGraphBuilds);
        if (graph_files == 0) result.mismatch("watch-edit: empty project graph");
        double resolve_s = 0;
        std::vector<std::string> literals;
        for (const auto& [name, text] : script.final_files)
            for (std::string& l : include_literals(text)) literals.push_back(std::move(l));
        const uint64_t calls = time_resolve_includes(project, literals, resolve_s);
        v.emplace_back("php.resolve_include_calls", static_cast<double>(calls));
        v.emplace_back("php.resolve_include_us",
                       calls ? resolve_s * 1e6 / static_cast<double>(calls) : 0.0);

        // The validate layer: what the session-aware {"op":"validate"} runs
        // on the final tree, whose findings must all be tiered.
        const svc::ValidateResponse validated =
            session.service->validate(session.watch->request());
        const auto& report = validated.report;
        const double cases = report.validated + report.unvalidated + report.inconclusive;
        if (cases != static_cast<double>(session.watch->baseline_findings().size()))
            result.mismatch("watch-edit: validate tiered " + json_number(cases) +
                            " findings of " +
                            std::to_string(session.watch->baseline_findings().size()));
        v.emplace_back("validate.ms", validated.wall_seconds * 1e3);
        v.emplace_back("validate.cases", cases);
        v.emplace_back("validate.executions", report.executions);
        v.emplace_back("validate.dedup_ratio", ratio(cases, report.executions));
        v.emplace_back("validate.fix_verified_ratio",
                       ratio(report.fixes_verified, report.fixes_proposed));
        add_layer_metrics(result, v);
        if (!options.trace_path.empty() && !trace.write_json(options.trace_path))
            result.mismatch("trace: cannot write " + options.trace_path);
    }
    result.failed = std::min(failed, result.attempted);
    return result;
}

}  // namespace perfbench
