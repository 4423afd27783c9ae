#include "trace.h"

#include <algorithm>
#include <fstream>

#include "stats.h"

namespace perfbench {

std::string_view layer_of(std::string_view name) {
    const size_t dot = name.find('.');
    return dot == std::string_view::npos ? name : name.substr(0, dot);
}

void ThreadTrace::Scope::close() {
    if (owner_) owner_->close(index_);
    owner_ = nullptr;
}

ThreadTrace::Scope ThreadTrace::open(std::string_view name, uint64_t request) {
    if (!enabled_) return {};
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    span.cpu = thread_cpu_s();
    span.start = now_s() - epoch_;
    spans_.push_back(span);
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return Scope(this, index);
}

void ThreadTrace::close(int index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end = now_s() - epoch_;
    span.cpu = thread_cpu_s() - span.cpu;
    // Scopes close in LIFO order; a scope closed early leaves the stack
    // through the same path.
    const auto it = std::find(stack_.begin(), stack_.end(), index);
    if (it != stack_.end()) stack_.erase(it, stack_.end());
}

Trace::Trace(bool enabled, int threads) : enabled_(enabled) {
    const double epoch = now_s();
    for (int i = 0; i < threads; ++i)
        threads_.push_back(std::make_unique<ThreadTrace>(enabled, epoch));
}

bool Trace::write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"spans\":[";
    bool first = true;
    for (size_t t = 0; t < threads_.size(); ++t) {
        for (const Span& s : threads_[t]->spans()) {
            out << (first ? "" : ",\n") << "{\"name\":"
                << json_string(std::string(s.name)) << ",\"thread\":" << t
                << ",\"start\":" << json_number(s.start)
                << ",\"end\":" << json_number(s.end)
                << ",\"cpu\":" << json_number(s.cpu)
                << ",\"parent\":" << s.parent
                << ",\"request\":" << s.request << "}";
            first = false;
        }
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

bool nesting_ok(const std::vector<Span>& spans) {
    // Last child end seen per parent (index spans.size() = the roots).
    std::vector<double> last_end(spans.size() + 1, -1e300);
    for (const Span& s : spans) {
        if (s.end < s.start) return false;
        const size_t slot =
            s.parent < 0 ? spans.size() : static_cast<size_t>(s.parent);
        if (s.parent >= 0) {
            const Span& p = spans[slot];
            if (s.start < p.start || s.end > p.end) return false;
        }
        if (s.start < last_end[slot]) return false;
        last_end[slot] = s.end;
    }
    return true;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    for (const Span& s : spans)
        if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end - s.start;
    return self;
}

SpanTotals span_totals(const Trace& trace, std::string_view name) {
    SpanTotals totals;
    for (int t = 0; t < trace.thread_count(); ++t)
        for (const Span& s : trace.thread(t).spans())
            if (s.name == name) {
                ++totals.count;
                totals.wall_s += s.end - s.start;
                totals.cpu_s += s.cpu;
            }
    return totals;
}

size_t Trace::span_count() const {
    size_t n = 0;
    for (const auto& t : threads_) n += t->spans().size();
    return n;
}

std::map<std::string, double, std::less<>> self_by_layer(
    const std::vector<Span>& spans) {
    std::map<std::string, double, std::less<>> layers;
    const std::vector<double> self = self_times(spans);
    for (size_t i = 0; i < spans.size(); ++i)
        layers[std::string(layer_of(spans[i].name))] += self[i];
    return layers;
}

}  // namespace perfbench
