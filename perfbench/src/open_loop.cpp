#include "open_loop.h"

#include <algorithm>

namespace perfbench {

std::vector<double> uniform_schedule(size_t n, double rate) {
    std::vector<double> due(n);
    for (size_t i = 0; i < n; ++i) due[i] = static_cast<double>(i) / rate;
    return due;
}

double latency_from_due(const RequestTiming& t) { return t.done - t.due; }

double generator_lateness(const RequestTiming& t) {
    return std::max(0.0, t.sent - t.due);
}

double latency_growth(const std::vector<RequestTiming>& timings) {
    if (timings.size() < 2) return 0;
    const double n = static_cast<double>(timings.size());
    double mean_t = 0, mean_l = 0;
    for (const RequestTiming& t : timings) {
        mean_t += t.due / n;
        mean_l += latency_from_due(t) / n;
    }
    double cov = 0, var = 0;
    for (const RequestTiming& t : timings) {
        cov += (t.due - mean_t) * (latency_from_due(t) - mean_l);
        var += (t.due - mean_t) * (t.due - mean_t);
    }
    return var > 0 ? cov / var : 0;
}

RungVerdict judge_rung(const std::vector<RequestTiming>& timings,
                       const std::vector<bool>& ok, double limit_s,
                       double max_growth) {
    RungVerdict verdict;
    if (timings.empty()) return verdict;
    std::vector<double> latencies;
    latencies.reserve(timings.size());
    for (const RequestTiming& t : timings) latencies.push_back(latency_from_due(t));
    verdict.tail = tail_percentile(latencies);
    verdict.growth = latency_growth(timings);
    const bool all_ok = std::all_of(ok.begin(), ok.end(), [](bool b) { return b; });
    verdict.pass = all_ok && ok.size() == timings.size() &&
                   verdict.tail.value <= limit_s && verdict.growth <= max_growth;
    return verdict;
}

}  // namespace perfbench
