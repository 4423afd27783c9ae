// perfbench — the repository benchmark's workload runner.
//
//   perfbench --workload <audit-cold|watch-edit|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <spans.json>]
//
// Prints two lines on stdout: a record line {"record":{...}} with the
// host, the build and the sample count behind every percentile, then the
// result line {"correct","attempted","failed","metrics"}. With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set.
// run.py (next to this directory) builds the runner and calls it.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage() {
    std::cerr << "usage: perfbench --workload <audit-cold|watch-edit|serve-mix>"
                 " --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace perfbench;
    std::string workload;
    RunOptions options;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
            have_seed = true;
        } else if (flag == "--seconds") {
            options.seconds = std::atof(value.c_str());
        } else if (flag == "--trace") {
            options.trace = value == "1";
        } else if (flag == "--trace-out") {
            options.trace_path = value;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || !have_seed || options.seconds <= 0) return usage();

    RunResult result;
    try {
        if (workload == "audit-cold")
            result = run_audit_cold(options);
        else if (workload == "watch-edit")
            result = run_watch_edit(options);
        else if (workload == "serve-mix")
            result = run_serve_mix(options);
        else
            return usage();
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
        return 1;
    }

    const double failed_frac =
        result.attempted ? static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted)
                         : 1.0;
    if (!options.trace)
        result.add("ok_frac", 1.0 - failed_frac, "ratio");
    for (const std::string& e : result.errors) std::cerr << "perfbench: " << e << "\n";

    std::string record = "{\"record\":{\"workload\":" + json_string(workload) +
                         ",\"seed\":" + std::to_string(options.seed) +
                         ",\"seconds\":" + json_number(options.seconds) +
                         ",\"trace\":" + (options.trace ? "1" : "0") +
                         ",\"cores\":" +
                         std::to_string(std::thread::hardware_concurrency()) +
                         ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
                         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
                         ",\"failed_frac\":" + json_number(failed_frac);
    for (const auto& [key, value] : result.record)
        record += "," + json_string(key) + ":" + value;
    std::cout << record << "}}\n";

    std::string line = "{\"correct\":" + std::string(result.correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(result.attempted) +
                       ",\"failed\":" + std::to_string(result.failed) +
                       ",\"metrics\":{";
    for (size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& m = result.metrics[i];
        line += (i ? "," : "") + json_string(m.name) +
                ":{\"value\":" + json_number(m.value) +
                ",\"unit\":" + json_string(m.unit) + "}";
    }
    std::cout << line << "}}" << std::endl;
    return 0;
}
