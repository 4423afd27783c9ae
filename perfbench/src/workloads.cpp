#include "workloads.h"

#include <cctype>
#include <cmath>
#include <map>
#include <sstream>

#include "util/json_writer.h"

namespace perfbench {

const std::vector<LayerMetric>& layer_catalogue() {
    static const std::vector<LayerMetric> catalogue = {
        {"php.lex_cpu_s", "s"},
        {"php.parse_cpu_s", "s"},
        {"php.lex_mb_per_s", "MB/s"},
        {"php.tokens", "count"},
        {"php.ast_nodes", "count"},
        {"php.files_parsed", "count"},
        {"php.resolve_include_calls", "count"},
        {"php.resolve_include_us", "us"},
        {"php.self_s", "s"},
        {"core.scan_cpu_s", "s"},
        {"core.taint_propagations", "count"},
        {"core.summaries_computed", "count"},
        {"core.summaries_reused", "count"},
        {"core.sink_checks", "count"},
        {"core.findings", "count"},
        {"core.self_s", "s"},
        {"report.render_s", "s"},
        {"report.render_bytes", "B"},
        {"report.match_s", "s"},
        {"report.self_s", "s"},
        {"service.scan_ms", "ms"},
        {"service.queue_wait_ms", "ms"},
        {"service.result_hit_ratio", "ratio"},
        {"service.file_hit_ratio", "ratio"},
        {"service.summary_seed_ratio", "ratio"},
        {"service.summaries_invalidated", "count"},
        {"service.evictions", "count"},
        {"service.bytes_resident", "B"},
        {"service.shard_contention", "count"},
        {"service.rejected", "count"},
        {"service.deduplicated", "count"},
        {"ndjson.parse_mb_per_s", "MB/s"},
        {"ndjson.render_mb_per_s", "MB/s"},
        {"ndjson.bytes_in", "B"},
        {"ndjson.bytes_out", "B"},
        {"ndjson.self_s", "s"},
        {"watch.edit_ms", "ms"},
        {"watch.cone_files", "count"},
        {"watch.cone_functions", "count"},
        {"watch.files_reused", "count"},
        {"watch.self_s", "s"},
        {"graph.build_ms", "ms"},
        {"validate.ms", "ms"},
        {"validate.cases", "count"},
        {"validate.executions", "count"},
        {"validate.dedup_ratio", "ratio"},
        {"validate.fix_verified_ratio", "ratio"},
        {"serve.gen_late_ms", "ms"},
        {"serve.self_s", "s"},
        {"bench.self_s", "s"},
        {"trace.wall_s", "s"},
        {"trace.overhead_s", "s"},
        {"trace.overhead_frac", "ratio"},
        {"trace.self_sum_error_frac", "ratio"},
        {"trace.spans", "count"},
    };
    return catalogue;
}

std::string files_request(std::string_view op, std::string_view plugin,
                          const FileList& files) {
    std::ostringstream os;
    phpsafe::JsonWriter w(os);
    w.begin_object();
    w.kv("op", op);
    if (!plugin.empty()) w.kv("plugin", plugin);
    w.key("files").begin_array();
    for (const auto& [name, text] : files) {
        w.begin_object();
        w.kv("name", name);
        w.kv("text", text);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return os.str();
}

void add_end_to_end(RunResult& result, const EndToEnd& e) {
    const Percentile p50 = percentile(e.latencies_s, 50);
    const Percentile tail = tail_percentile(e.latencies_s);
    const double ops_per_s = e.ops / e.wall_s;
    result.add("ops_per_s", ops_per_s, "1/s");
    result.add("kloc_per_s", e.kloc / e.wall_s, "kloc/s");
    result.add("cpu_ms_per_op", cpu_ms_per_op(0, e.cpu_s, static_cast<uint64_t>(e.ops)),
               "ms");
    result.add("p50_ms", p50.value * 1e3, "ms");
    result.add("tail_ms", tail.value * 1e3, "ms");
    result.add("max_rps", e.max_rps > 0 ? e.max_rps : ops_per_s, "1/s");
    result.add("setup_s", percentile(e.setups_s, 50).value, "s");
    result.add("peak_rss_mb", e.peak_rss_mb, "MB");
    result.note("p50", json_percentile(p50));
    result.note("tail", json_percentile(tail));
    std::string setups;
    for (double s : e.setups_s) setups += (setups.empty() ? "[" : ",") + json_number(s);
    result.note("setups_s", setups + "]");
}

std::string json_class_p50s(const std::map<std::string, std::vector<double>>& by_class) {
    std::string out;
    for (const auto& [name, samples] : by_class)
        out += (out.empty() ? "{" : ",") + json_string(name) +
               ":{\"p50_ms\":" + json_number(percentile(samples, 50).value * 1e3) +
               ",\"samples\":" + std::to_string(samples.size()) + "}";
    return out.empty() ? "{}" : out + "}";
}

void add_layer_metrics(RunResult& result,
                       const std::vector<std::pair<std::string, double>>& values) {
    std::map<std::string, double> by_name;
    for (const auto& [name, value] : values) by_name[name] = value;
    for (const LayerMetric& m : layer_catalogue()) {
        const auto it = by_name.find(m.name);
        result.add(m.name, it == by_name.end() ? 0.0 : it->second, m.unit);
    }
}

std::vector<std::string> include_literals(std::string_view text) {
    std::vector<std::string> out;
    static constexpr std::string_view kWords[] = {"include", "require"};
    for (size_t pos = 0; pos < text.size(); ++pos) {
        std::string_view word;
        for (std::string_view w : kWords)
            if (text.compare(pos, w.size(), w) == 0) word = w;
        if (word.empty()) continue;
        if (pos > 0 && (std::isalnum(static_cast<unsigned char>(text[pos - 1])) ||
                        text[pos - 1] == '_' || text[pos - 1] == '$'))
            continue;
        size_t i = pos + word.size();
        if (text.compare(i, 5, "_once") == 0) i += 5;
        if (i >= text.size() || std::string_view(" \t(\"'").find(text[i]) == std::string_view::npos)
            continue;
        // The statement's quoted parts, concatenated: `dirname(__FILE__) .
        // '/x.php'` yields "/x.php".
        std::string path;
        bool quoted = false;
        while (i < text.size() && text[i] != ';' && text[i] != '\n') {
            if (text[i] != '\'' && text[i] != '"') {
                ++i;
                continue;
            }
            const size_t end = text.find(text[i], i + 1);
            if (end == std::string_view::npos) break;
            path.append(text.substr(i + 1, end - i - 1));
            quoted = true;
            i = end + 1;
        }
        if (quoted) out.push_back(std::move(path));
        pos = i;
    }
    return out;
}

uint64_t time_resolve_includes(const phpsafe::php::Project& project,
                               const std::vector<std::string>& literals,
                               double& seconds) {
    const double t0 = now_s();
    for (const std::string& literal : literals)
        (void)project.resolve_include(literal);
    seconds += now_s() - t0;
    return literals.size();
}

void add_overhead(RunResult& result, std::vector<std::pair<std::string, double>>& values,
                  double traced_s, double untraced_before_s,
                  double untraced_after_s) {
    const double untraced = (untraced_before_s + untraced_after_s) / 2;
    result.note("trace_walls", "{\"untraced_before_s\":" + json_number(untraced_before_s) +
                                   ",\"traced_s\":" + json_number(traced_s) +
                                   ",\"untraced_after_s\":" + json_number(untraced_after_s) + "}");
    values.emplace_back("trace.overhead_s", traced_s - untraced);
    values.emplace_back("trace.overhead_frac", (traced_s - untraced) / untraced);
}

void add_blocking_path(RunResult& result, const ThreadTrace& blocking,
                       double wall_s, size_t total_spans,
                       std::vector<std::pair<std::string, double>>& values) {
    const std::vector<Span>& spans = blocking.spans();
    if (!nesting_ok(spans))
        result.mismatch("trace: spans on the blocking path do not nest");
    double self_sum = 0;
    for (const auto& [layer, self] : self_by_layer(spans)) {
        values.emplace_back(layer + ".self_s", self);
        self_sum += self;
    }
    const double error = wall_s > 0 ? std::fabs(self_sum - wall_s) / wall_s : 1;
    if (error > kSelfTimeTolerance)
        result.mismatch("trace: blocking-path self times sum to " +
                        json_number(self_sum) + " s, wall time " +
                        json_number(wall_s) + " s");
    values.emplace_back("trace.wall_s", wall_s);
    values.emplace_back("trace.self_sum_error_frac", error);
    values.emplace_back("trace.spans", static_cast<double>(total_spans));
    result.note("trace", "{\"blocking_path_self_s\":" + json_number(self_sum) +
                             ",\"wall_s\":" + json_number(wall_s) +
                             ",\"tolerance\":" + json_number(kSelfTimeTolerance) +
                             ",\"spans\":" + std::to_string(total_spans) + "}");
}

}  // namespace perfbench
