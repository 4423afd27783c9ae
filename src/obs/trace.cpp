#include "obs/trace.h"

#include <algorithm>

#include "util/timing.h"

namespace phpsafe::obs {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(wall_seconds()) {}

Tracer::Span::Span(
    Tracer* tracer, std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>> args)
    : tracer_(tracer) {
    record_.name.assign(name);
    record_.args.reserve(args.size());
    for (const auto& [key, value] : args)
        record_.args.emplace_back(std::string(key), std::string(value));
    record_.wall_start = wall_seconds() - tracer->epoch_;
    cpu_start_ = thread_cpu_seconds();
    counters_start_ = tls();
}

void Tracer::Span::note(std::string_view key, std::string_view value) {
    if (!tracer_) return;
    record_.args.emplace_back(std::string(key), std::string(value));
}

void Tracer::Span::end() {
    if (!tracer_) return;
    record_.counters = tls() - counters_start_;
    record_.cpu_seconds = thread_cpu_seconds() - cpu_start_;
    record_.wall_seconds =
        wall_seconds() - tracer_->epoch_ - record_.wall_start;
    Tracer* tracer = tracer_;
    tracer_ = nullptr;
    tracer->commit(std::move(record_));
}

Tracer::Span Tracer::span(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>> args) {
    if (!enabled_) return Span{};
    return Span(this, name, args);
}

void Tracer::commit(SpanRecord&& record) {
    const std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mutex_);
    record.thread = thread_index(self);
    records_.push_back(std::move(record));
}

int Tracer::thread_index(std::thread::id id) {
    const auto it = std::find(threads_.begin(), threads_.end(), id);
    if (it != threads_.end()) return static_cast<int>(it - threads_.begin());
    threads_.push_back(id);
    return static_cast<int>(threads_.size()) - 1;
}

std::vector<SpanRecord> Tracer::records() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

size_t Tracer::record_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

}  // namespace phpsafe::obs
