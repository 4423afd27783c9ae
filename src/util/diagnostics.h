// Diagnostics collection: parse errors, analysis warnings and tool-failure
// records (used to reproduce the paper's "robustness" observations in
// Section V.E, e.g. Pixy failing to analyze 32 files).
#pragma once

#include <string>
#include <vector>

#include "util/source.h"

namespace phpsafe {

enum class Severity {
    kNote,
    kWarning,
    kError,   ///< the construct was skipped but analysis continued
    kFatal,   ///< analysis of the whole file was aborted
};

std::string to_string(Severity s);

struct Diagnostic {
    Severity severity = Severity::kNote;
    SourceLocation location;
    std::string message;
};

/// Accumulates diagnostics during lexing, parsing and analysis.
///
/// Engines keep one DiagnosticSink per run; report code counts fatal
/// diagnostics to measure robustness (files a tool failed to analyze).
class DiagnosticSink {
public:
    void add(Severity severity, SourceLocation loc, std::string message);

    const std::vector<Diagnostic>& diagnostics() const noexcept { return all_; }

    int count(Severity severity) const noexcept;
    /// kFatal diagnostics recorded so far, kept as a running count: a
    /// caller tells whether a step aborted by comparing it before and after,
    /// in O(1) however many diagnostics the sink already holds.
    int fatal_count() const noexcept { return fatal_count_; }
    bool has_fatal() const noexcept { return fatal_count_ > 0; }

    void clear() {
        all_.clear();
        fatal_count_ = 0;
    }

private:
    std::vector<Diagnostic> all_;
    int fatal_count_ = 0;
};

}  // namespace phpsafe
