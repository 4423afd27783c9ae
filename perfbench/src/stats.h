// Measurement primitives shared by the three workloads: clocks, the
// process CPU and memory readings, latency percentiles, the seeded random
// source, and the result record every run prints.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in seconds (steady_clock).
double now_s();
/// Process CPU time, user + system, in seconds (getrusage RUSAGE_SELF).
double process_cpu_s();
/// CPU time of the calling thread in seconds.
double thread_cpu_s();
/// Peak resident set size of the process in MiB since the last
/// reset_peak_rss() (VmHWM; ru_maxrss when /proc is not there).
double peak_rss_mb();
/// Returns free heap pages to the system (malloc_trim), then restarts the
/// peak at the current resident size, so the peak covers the measured
/// phase only and not the garbage of the set-ups the benchmark repeats
/// for setup_s. The reset is a no-op where the kernel does not offer it.
void reset_peak_rss();

/// num / den, or 0 when nothing was counted (den == 0).
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// CPU milliseconds per operation between two process_cpu_s() readings.
/// Zero operations yield 0 (the caller reports no rate it did not measure).
double cpu_ms_per_op(double cpu_start_s, double cpu_end_s, uint64_t ops);

/// A latency percentile with the sample count behind it.
struct Percentile {
    double value = 0;   ///< the sample at the nearest rank
    double pct = 0;     ///< percentile, e.g. 99.0
    size_t samples = 0; ///< samples the percentile was taken over
    size_t beyond = 0;  ///< samples strictly above the nearest rank
};

/// Nearest-rank percentile: the sample at rank ceil(pct/100 * n), 1-based.
Percentile percentile(std::vector<double> samples, double pct);

/// Samples the tail percentile must leave beyond it.
inline constexpr size_t kTailBeyond = 10;

/// The highest percentile of the ladder 99.9 / 99 / 95 / 90 / 75 / 50 that
/// leaves at least kTailBeyond samples beyond it. With fewer than 20
/// samples no ladder step qualifies and the median is returned.
Percentile tail_percentile(const std::vector<double>& samples);

/// splitmix64 — the only randomness the workload generators use, so one
/// --seed always produces the same inputs.
class Rng {
public:
    explicit Rng(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /// Uniform in [0, n); n > 0.
    uint64_t below(uint64_t n) { return next() % n; }
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

private:
    uint64_t state_;
};

/// One named metric value.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// Everything one run reports. `metrics` is printed as the result line;
/// `record` holds extra members (already-rendered JSON values) of the
/// record line printed before it: percentiles with their sample counts,
/// per-class numbers and the trace summary.
struct RunResult {
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> record;
    std::vector<std::string> errors;  ///< first correctness failures

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string key, std::string json_value) {
        record.emplace_back(std::move(key), std::move(json_value));
    }
    /// Records a correctness failure; keeps the first few messages.
    void mismatch(const std::string& what);
};

/// A double as JSON with all 17 significant digits.
std::string json_number(double v);
/// A string as a JSON string literal.
std::string json_string(const std::string& s);
/// A percentile as {"value":..,"pct":..,"samples":..,"beyond":..}.
std::string json_percentile(const Percentile& p);

}  // namespace perfbench
