#include "stats.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>

namespace perfbench {

double now_s() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

namespace {
double seconds(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

double process_cpu_s() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void reset_peak_rss() {
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";  // 5: reset the peak RSS
}

double cpu_ms_per_op(double cpu_start_s, double cpu_end_s, uint64_t ops) {
    if (ops == 0) return 0;
    return (cpu_end_s - cpu_start_s) * 1e3 / static_cast<double>(ops);
}

Percentile percentile(std::vector<double> samples, double pct) {
    Percentile p;
    p.pct = pct;
    p.samples = samples.size();
    if (samples.empty()) return p;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    p.value = samples[rank - 1];
    p.beyond = samples.size() - rank;
    return p;
}

Percentile tail_percentile(const std::vector<double>& samples) {
    static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0};
    for (double pct : kLadder) {
        Percentile p = percentile(samples, pct);
        if (p.beyond >= kTailBeyond) return p;
    }
    return percentile(samples, 50.0);
}

uint64_t Rng::next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

void RunResult::mismatch(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string json_percentile(const Percentile& p) {
    return "{\"value\":" + json_number(p.value) +
           ",\"pct\":" + json_number(p.pct) +
           ",\"samples\":" + std::to_string(p.samples) +
           ",\"beyond\":" + std::to_string(p.beyond) + "}";
}

}  // namespace perfbench
