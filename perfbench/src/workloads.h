// The three workloads of the repository benchmark (README.md explains why
// each exists) and the metric catalogue they report.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "php/project.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_path;  ///< where a traced run writes its spans
};

RunResult run_audit_cold(const RunOptions& options);
RunResult run_watch_edit(const RunOptions& options);
RunResult run_serve_mix(const RunOptions& options);

/// Largest allowed |sum of self times on the blocking path − wall time|,
/// as a share of the wall time, in a traced run.
inline constexpr double kSelfTimeTolerance = 0.02;

using FileList = std::vector<std::pair<std::string, std::string>>;

/// One NDJSON request line {"op":..,"plugin":..,"files":[{"name","text"}]}
/// without the newline; an empty `plugin` is left out.
std::string files_request(std::string_view op, std::string_view plugin,
                          const FileList& files);

/// What one measured phase yields for the end-to-end metrics.
struct EndToEnd {
    double ops = 0;     ///< operations completed
    double wall_s = 0;  ///< wall time of the measured phase
    double cpu_s = 0;   ///< process CPU over the phase
    double kloc = 0;    ///< thousands of source lines the operations covered
    std::vector<double> latencies_s;
    /// Highest sustained rate of an open loop; 0 for a closed loop, whose
    /// sustained rate is its completion rate.
    double max_rps = 0;
    std::vector<double> setups_s;  ///< setup_s is their median
    double peak_rss_mb = 0;
};

/// Adds every end-to-end metric but ok_frac (main adds it), and the
/// percentiles with their sample counts to the record.
void add_end_to_end(RunResult& result, const EndToEnd& e);

/// {"<class>":{"p50_ms":..,"samples":..},...} for the record.
std::string json_class_p50s(const std::map<std::string, std::vector<double>>& by_class);

/// Every per-layer metric, in report order, with its unit. A traced run
/// prints all of them; a layer the workload never calls reports 0.
struct LayerMetric {
    const char* name;
    const char* unit;
};
const std::vector<LayerMetric>& layer_catalogue();

/// Prints the catalogue's metrics from `values` (name → value, missing =
/// 0) into `result`.
void add_layer_metrics(RunResult& result,
                       const std::vector<std::pair<std::string, double>>& values);

/// The static path of every include/require/include_once/require_once
/// statement in `text`: its quoted string parts, concatenated — the hint
/// the engine resolves (`dirname(__FILE__) . '/x.php'` gives "/x.php").
/// Statements without a quoted part are skipped.
std::vector<std::string> include_literals(std::string_view text);

/// Times Project::resolve_include on every literal from outside: returns
/// the number of calls and adds their total seconds to `seconds`.
uint64_t time_resolve_includes(const phpsafe::php::Project& project,
                               const std::vector<std::string>& literals,
                               double& seconds);

/// Tracing overhead: traced wall time minus the mean of two untraced runs
/// of the same work, one before and one after the traced run (so warm-up
/// and drift cancel). Adds trace.overhead_s and trace.overhead_frac, and
/// the three wall times to the record.
void add_overhead(RunResult& result, std::vector<std::pair<std::string, double>>& values,
                  double traced_s, double untraced_before_s,
                  double untraced_after_s);

/// Blocking-path summary of a traced run, added to the layer values:
/// per-layer self seconds (<layer>.self_s), trace.wall_s,
/// trace.self_sum_error_frac and trace.spans. Marks the run incorrect when
/// spans do not nest or the self times miss the wall time by more than
/// kSelfTimeTolerance.
void add_blocking_path(RunResult& result, const ThreadTrace& blocking,
                       double wall_s, size_t total_spans,
                       std::vector<std::pair<std::string, double>>& values);

}  // namespace perfbench
