// The benchmark's own span recorder. A traced run wraps every call the
// benchmark makes into a layer of the program (php, core, report, service,
// ndjson, watch, graph, validate) in a span named "<layer>.<call>". Spans
// stay in memory, one buffer per load thread, and are written out when the
// run ends. A disabled recorder costs one branch per call site.
//
// A span's self time is its duration minus the part its children cover.
// Self times of one thread's span tree add up to the root's duration when
// every child lies inside its parent and siblings do not overlap; nesting()
// checks both, so no layer is counted twice.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
    std::string_view name;  ///< "layer.call"; a string literal
    double start = 0;       ///< seconds since the trace was created
    double end = 0;
    double cpu = 0;         ///< CPU seconds of the recording thread
    int parent = -1;        ///< index of the enclosing span, same thread
    uint64_t request = 0;   ///< operation id shared by one request's spans
};

/// The layer a span belongs to: its name up to the first '.'.
std::string_view layer_of(std::string_view name);

/// Span buffer of one thread. Not thread-safe: exactly one thread records.
class ThreadTrace {
public:
    ThreadTrace(bool enabled, double epoch) : enabled_(enabled), epoch_(epoch) {}

    class Scope {
    public:
        Scope() = default;
        Scope(ThreadTrace* owner, int index) : owner_(owner), index_(index) {}
        Scope(Scope&& other) noexcept
            : owner_(other.owner_), index_(other.index_) {
            other.owner_ = nullptr;
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        Scope& operator=(Scope&&) = delete;
        ~Scope() { close(); }
        /// Ends the span now (idempotent).
        void close();

    private:
        ThreadTrace* owner_ = nullptr;
        int index_ = -1;
    };

    bool enabled() const noexcept { return enabled_; }

    /// Opens a span that ends when the returned scope is destroyed.
    Scope open(std::string_view name, uint64_t request = 0);

    const std::vector<Span>& spans() const noexcept { return spans_; }

private:
    void close(int index);

    bool enabled_;
    double epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/// One ThreadTrace per load thread, created before the threads start.
class Trace {
public:
    Trace(bool enabled, int threads);

    bool enabled() const noexcept { return enabled_; }
    ThreadTrace& thread(int index) { return *threads_.at(index); }
    const ThreadTrace& thread(int index) const { return *threads_.at(index); }
    int thread_count() const noexcept { return static_cast<int>(threads_.size()); }
    /// Spans recorded over all threads.
    size_t span_count() const;

    /// {"spans":[{"name","thread","start","end","cpu","parent","request"}]}.
    bool write_json(const std::string& path) const;

private:
    bool enabled_;
    std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// True when every span lies inside its parent and no two children of one
/// parent (or two roots) overlap.
bool nesting_ok(const std::vector<Span>& spans);

/// Self time of every span: duration minus the children's durations.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Totals of the spans named `name` over every thread of a trace.
struct SpanTotals {
    uint64_t count = 0;
    double wall_s = 0;
    double cpu_s = 0;
};
SpanTotals span_totals(const Trace& trace, std::string_view name);

/// Self seconds per layer.
std::map<std::string, double, std::less<>> self_by_layer(
    const std::vector<Span>& spans);

}  // namespace perfbench
