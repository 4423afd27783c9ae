// audit-cold: the paper's evaluation as a batch job. Both versions of the
// 35-plugin corpus (scale 1, the generator's default seed) are scanned by
// the three paper presets, pass after pass. Each (plugin, version) builds
// a fresh php::Project once (add_file + parse_all) and every preset scans
// it with Analyzer::scan, renders render_json_report and is matched
// against the generator's labels. Nothing is cached, so lexing, parsing
// and the taint engine do the work. --seed only orders the work.
//
// An operation is one (plugin, version, preset) scan. Its latency is the
// project build it needs plus its own scan, render and match. Every pass's
// TP/FP per preset and version must equal Table I of EXPERIMENTS.md.
#include <algorithm>
#include <array>
#include <atomic>
#include <thread>

#include "baselines/analyzers.h"
#include "core/analyzer.h"
#include "corpus/generator.h"
#include "obs/counters.h"
#include "report/export.h"
#include "report/matching.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using phpsafe::Analyzer;
using phpsafe::corpus::Corpus;
using phpsafe::corpus::PluginVersionSource;

/// Corpus passes per second of --seconds (a pass takes about 0.2 s on 4
/// cores). 40 passes give 8,400 latency samples, so tail_ms is a p99 with
/// 84 samples beyond it.
constexpr double kPassesPerSecond = 4.0;
/// Set-ups per run (setup_s is their median); one takes well under 1 ms.
constexpr int kSetupRepeats = 25;
constexpr int kThreads = 4;
constexpr int kTools = 3;

/// EXPERIMENTS.md Table I, global block, at corpus scale 1 and the
/// default seed: {TP, FP} per preset (phpSAFE, RIPS-like, Pixy-like) and
/// version (2012, 2014).
constexpr int kTableI[kTools][2][2] = {
    {{315, 63}, {387, 62}},
    {{134, 77}, {304, 79}},
    {{58, 177}, {26, 209}},
};

struct Unit {
    int pass = 0;
    int plugin = 0;
    int version = 0;  ///< 0 = 2012, 1 = 2014
};

std::vector<Analyzer> make_presets() {
    std::vector<phpsafe::Tool> tools = {phpsafe::make_phpsafe_tool(),
                                        phpsafe::make_rips_like_tool(),
                                        phpsafe::make_pixy_like_tool()};
    std::vector<Analyzer> presets;
    for (phpsafe::Tool& tool : tools)
        presets.emplace_back(std::move(tool.kb), tool.options);
    return presets;
}

/// One worker's tallies; merged after the threads join.
struct Tally {
    std::vector<double> latencies;
    uint64_t ops = 0;
    uint64_t lines = 0;
    double lex_cpu = 0;
    double parse_cpu = 0;
    uint64_t text_bytes = 0;
    phpsafe::obs::Counters build;  ///< model construction counters
    phpsafe::obs::Counters scan;   ///< ScanResult counters, all presets
    uint64_t findings = 0;
    uint64_t render_bytes = 0;

    void merge(const Tally& o) {
        latencies.insert(latencies.end(), o.latencies.begin(), o.latencies.end());
        ops += o.ops;
        lines += o.lines;
        lex_cpu += o.lex_cpu;
        parse_cpu += o.parse_cpu;
        text_bytes += o.text_bytes;
        build += o.build;
        scan += o.scan;
        findings += o.findings;
        render_bytes += o.render_bytes;
    }
};

struct Phase {
    double wall_s = 0;
    double cpu_s = 0;
    Tally tally;
};

const PluginVersionSource& source(const Corpus& corpus, const Unit& u) {
    const auto& plugin = corpus.plugins[static_cast<size_t>(u.plugin)];
    return u.version == 0 ? plugin.v2012 : plugin.v2014;
}

/// Runs every unit over kThreads workers pulling from one shared index.
/// `labels[((pass * kTools + tool) * 2 + version) * 2 + {0: TP, 1: FP}]`
/// accumulates the label match.
Phase run_phase(const Corpus& corpus, const std::vector<Analyzer>& presets,
                const std::vector<Unit>& work, Trace& trace,
                std::vector<std::atomic<int>>& labels) {
    std::atomic<size_t> next{0};
    std::array<Tally, kThreads> tallies;
    Phase phase;
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
        threads.emplace_back([&, w] {
            ThreadTrace& tt = trace.thread(w);
            Tally& tally = tallies[static_cast<size_t>(w)];
            auto root = tt.open("bench.worker");
            for (size_t i; (i = next.fetch_add(1)) < work.size();) {
                const Unit& u = work[i];
                const PluginVersionSource& version = source(corpus, u);
                const std::string& name =
                    corpus.plugins[static_cast<size_t>(u.plugin)].name;
                auto unit_span = tt.open("bench.unit", i + 1);
                const double b0 = now_s();
                phpsafe::obs::CounterDelta build_delta;
                phpsafe::php::Project project(name);
                {
                    auto s = tt.open("php.build", i + 1);
                    phpsafe::DiagnosticSink sink;
                    for (const auto& [file, text] : version.files)
                        project.add_file(file, text);
                    project.parse_all(sink);
                }
                const double build_s = now_s() - b0;
                tally.build += build_delta.take();
                tally.lex_cpu += project.build_stats().lex_cpu_seconds;
                tally.parse_cpu += project.build_stats().parse_cpu_seconds;
                for (const auto& [file, text] : version.files)
                    tally.text_bytes += text.size();

                for (int k = 0; k < kTools; ++k) {
                    const double s0 = now_s();
                    phpsafe::ScanResult scan;
                    {
                        auto s = tt.open("core.scan", i + 1);
                        scan = presets[static_cast<size_t>(k)].scan(project);
                    }
                    {
                        auto s = tt.open("report.render", i + 1);
                        tally.render_bytes +=
                            phpsafe::render_json_report(scan.result).size();
                    }
                    phpsafe::MatchResult match;
                    {
                        auto s = tt.open("report.match", i + 1);
                        match = phpsafe::match_findings(scan.result.findings,
                                                        version.truth);
                    }
                    tally.latencies.push_back(build_s + now_s() - s0);
                    ++tally.ops;
                    tally.lines += static_cast<uint64_t>(version.total_lines);
                    tally.scan += scan.result.counters;
                    tally.findings += scan.result.findings.size();
                    const size_t slot =
                        ((static_cast<size_t>(u.pass) * kTools + k) * 2 +
                         static_cast<size_t>(u.version)) * 2;
                    labels[slot] += match.tp();
                    labels[slot + 1] += match.fp();
                }
            }
        });
    }
    for (std::thread& t : threads) t.join();
    phase.wall_s = now_s() - t0;
    phase.cpu_s = process_cpu_s() - cpu0;
    for (const Tally& t : tallies) phase.tally.merge(t);
    return phase;
}

/// Compares every pass with Table I; a (pass, preset, version) that
/// differs fails its 35 operations.
uint64_t check_labels(const std::vector<std::atomic<int>>& labels, int passes,
                      size_t plugins, RunResult& result) {
    uint64_t failed = 0;
    static const char* kNames[kTools] = {"phpSAFE", "RIPS-like", "Pixy-like"};
    for (int p = 0; p < passes; ++p)
        for (int k = 0; k < kTools; ++k)
            for (int v = 0; v < 2; ++v) {
                const size_t slot =
                    ((static_cast<size_t>(p) * kTools + k) * 2 + v) * 2;
                const int tp = labels[slot], fp = labels[slot + 1];
                if (tp == kTableI[k][v][0] && fp == kTableI[k][v][1]) continue;
                failed += plugins;
                result.mismatch(std::string("audit-cold: ") + kNames[k] + " " +
                                (v ? "2014" : "2012") + " TP/FP " +
                                std::to_string(tp) + "/" + std::to_string(fp) +
                                ", Table I says " +
                                std::to_string(kTableI[k][v][0]) + "/" +
                                std::to_string(kTableI[k][v][1]));
            }
    return failed;
}

}  // namespace

RunResult run_audit_cold(const RunOptions& options) {
    RunResult result;
    const Corpus corpus = phpsafe::corpus::generate_corpus({});

    // Program set-up: knowledge bases and Analyzers of the three presets.
    std::vector<double> setups;
    std::vector<Analyzer> presets;
    for (int r = 0; r < kSetupRepeats; ++r) {
        presets.clear();  // the previous set-up's teardown is not timed
        const double t0 = now_s();
        presets = make_presets();
        setups.push_back(now_s() - t0);
    }

    const int passes =
        std::max(1, static_cast<int>(options.seconds * kPassesPerSecond + 0.5));
    Rng rng(options.seed);
    std::vector<Unit> work;
    for (int p = 0; p < passes; ++p) {
        std::vector<Unit> pass;
        for (int i = 0; i < static_cast<int>(corpus.plugins.size()); ++i)
            for (int v = 0; v < 2; ++v) pass.push_back({p, i, v});
        rng.shuffle(pass);
        work.insert(work.end(), pass.begin(), pass.end());
    }
    const size_t slots = static_cast<size_t>(passes) * kTools * 2 * 2;

    std::vector<std::atomic<int>> labels(slots);
    Trace untraced(false, kThreads);
    reset_peak_rss();
    const Phase timed = run_phase(corpus, presets, work, untraced, labels);
    const double peak_mb = peak_rss_mb();
    uint64_t failed = check_labels(labels, passes, corpus.plugins.size(), result);
    const Tally& t = timed.tally;
    result.attempted = t.ops;

    if (!options.trace) {
        // A batch has no arrival rate: max_rps is its completion rate.
        add_end_to_end(result, {static_cast<double>(t.ops), timed.wall_s, timed.cpu_s,
                                static_cast<double>(t.lines) / 1e3, t.latencies, 0, setups,
                                peak_mb});
        result.note("passes", std::to_string(passes));
        result.note("threads", std::to_string(kThreads));
    } else {
        std::vector<std::atomic<int>> traced_labels(slots), after_labels(slots);
        Trace trace(true, kThreads);
        const Phase traced = run_phase(corpus, presets, work, trace, traced_labels);
        const Phase after = run_phase(corpus, presets, work, untraced, after_labels);
        failed += check_labels(traced_labels, passes, corpus.plugins.size(), result);
        failed += check_labels(after_labels, passes, corpus.plugins.size(), result);
        const Tally& tt = traced.tally;
        result.attempted += tt.ops + after.tally.ops;

        // The blocking path is the worker that finished last.
        int last = 0;
        for (int w = 1; w < kThreads; ++w)
            if (trace.thread(w).spans().front().end >
                trace.thread(last).spans().front().end)
                last = w;
        auto total = [&](const char* name) { return span_totals(trace, name); };

        std::vector<std::pair<std::string, double>> v;
        add_blocking_path(result, trace.thread(last), traced.wall_s, trace.span_count(), v);
        add_overhead(result, v, traced.wall_s, timed.wall_s, after.wall_s);
        v.emplace_back("php.lex_cpu_s", tt.lex_cpu);
        v.emplace_back("php.parse_cpu_s", tt.parse_cpu);
        v.emplace_back("php.lex_mb_per_s",
                       static_cast<double>(tt.text_bytes) / 1e6 / tt.lex_cpu);
        v.emplace_back("php.tokens", static_cast<double>(tt.build.tokens_lexed));
        v.emplace_back("php.ast_nodes", static_cast<double>(tt.build.ast_nodes));
        v.emplace_back("php.files_parsed", static_cast<double>(tt.build.files_parsed));
        v.emplace_back("core.scan_cpu_s", total("core.scan").cpu_s);
        v.emplace_back("core.taint_propagations",
                       static_cast<double>(tt.scan.taint_propagations));
        v.emplace_back("core.summaries_computed",
                       static_cast<double>(tt.scan.summaries_computed));
        v.emplace_back("core.summaries_reused",
                       static_cast<double>(tt.scan.summaries_reused));
        v.emplace_back("core.sink_checks", static_cast<double>(tt.scan.sink_checks));
        v.emplace_back("core.findings", static_cast<double>(tt.findings));
        v.emplace_back("report.render_s", total("report.render").wall_s);
        v.emplace_back("report.render_bytes", static_cast<double>(tt.render_bytes));
        v.emplace_back("report.match_s", total("report.match").wall_s);

        // Include resolution, timed from outside on one project per
        // (plugin, version): every include literal of its files.
        double resolve_s = 0;
        uint64_t resolve_calls = 0;
        for (const auto& plugin : corpus.plugins)
            for (const PluginVersionSource* version : {&plugin.v2012, &plugin.v2014}) {
                phpsafe::php::Project project(plugin.name);
                phpsafe::DiagnosticSink sink;
                std::vector<std::string> literals;
                for (const auto& [file, text] : version->files) {
                    project.add_file(file, text);
                    for (std::string& l : include_literals(text))
                        literals.push_back(std::move(l));
                }
                project.parse_all(sink);
                resolve_calls += time_resolve_includes(project, literals, resolve_s);
            }
        v.emplace_back("php.resolve_include_calls", static_cast<double>(resolve_calls));
        v.emplace_back("php.resolve_include_us",
                       resolve_calls ? resolve_s * 1e6 / static_cast<double>(resolve_calls)
                                     : 0.0);
        add_layer_metrics(result, v);
        if (!options.trace_path.empty() && !trace.write_json(options.trace_path))
            result.mismatch("trace: cannot write " + options.trace_path);
    }
    result.failed = std::min(failed, result.attempted);
    return result;
}

}  // namespace perfbench
