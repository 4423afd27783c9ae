#include "util/diagnostics.h"

#include <algorithm>

namespace phpsafe {

std::string to_string(Severity s) {
    switch (s) {
        case Severity::kNote: return "note";
        case Severity::kWarning: return "warning";
        case Severity::kError: return "error";
        case Severity::kFatal: return "fatal";
    }
    return "unknown";
}

void DiagnosticSink::add(Severity severity, SourceLocation loc, std::string message) {
    if (severity == Severity::kFatal) ++fatal_count_;
    all_.push_back(Diagnostic{severity, std::move(loc), std::move(message)});
}

int DiagnosticSink::count(Severity severity) const noexcept {
    return static_cast<int>(std::count_if(all_.begin(), all_.end(),
        [severity](const Diagnostic& d) { return d.severity == severity; }));
}

}  // namespace phpsafe
