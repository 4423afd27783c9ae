#include "validate/validate.h"

#include <chrono>
#include <map>
#include <optional>
#include <sstream>

#include "util/worker_pool.h"

namespace phpsafe::validate {

namespace {

using dynamic::Validator;

double now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// One deduplicated interpreter execution: every member finding shares the
/// same entry file, attack payload and seeding, so one run serves all.
struct ExecGroup {
    std::string file;
    InputVector vector = InputVector::kUnknown;  ///< first member's vector
    std::string payload;
};

/// Byte rendering of one finding for the fix-verification "nothing else
/// regressed" gate: identity plus the full trace.
std::string finding_signature(const Finding& finding) {
    std::string sig = to_string(finding);
    sig += '\n';
    for (const TaintStep& step : finding.trace) {
        sig += "  " + to_string(step.location) + ' ' + step.description + '\n';
    }
    return sig;
}

/// The hermetic capture of the original project as a SeedSet, offered to
/// every fix verification for seeding. Only set when the hermetic baseline
/// scan reproduced the caller's result byte-for-byte — the precondition for
/// judging seeded hermetic rescans against that result.
struct SeedContext {
    const SeedSet* seeds = nullptr;
    AnalysisOptions hermetic;
};

/// Verification loop for one proposed fix: apply the edit, re-parse the one
/// patched file (php::Project::fork_with_replacement shares every other
/// file's AST and declaration-table entries), re-run the analyzer with the
/// configuration that produced the original result, and replay the targeted
/// finding on the patched unit. Every gate must hold:
///   - the patched file reparses clean,
///   - the analyzer no longer reports the targeted finding,
///   - every OTHER finding is byte-identical (same order, same trace),
///   - the interpreter replay no longer confirms the flow.
///
/// When a SeedContext is supplied, the rescan seeds exactly the captured
/// artifacts that a DepCheckMemo over the patched fork accepts — the same
/// gate the service applies across scans. A copy of the set is rebased onto
/// the fork: it drops every artifact whose computation read the patched
/// file or resolved a name the patch can move (an added, removed or
/// shadowing declaration), DepCheckMemo re-checks only those, and every
/// other artifact seeds without a walk — so only summaries whose inputs are
/// byte-identical on the patched project are reused. Entry-file artifacts
/// carry a second gate: the engine replays one only while every shared slot
/// (global / property) the walk observed still holds the captured value, so
/// cross-entry state flows re-run exactly when the patch actually changed
/// their inputs.
/// The kQuickfixSoundness fuzz oracle independently re-verifies accepted
/// fixes against a from-scratch rebuild, so any divergence the gates missed
/// surfaces as an oracle violation.
bool verify_fix(const php::Project& project, const KnowledgeBase& kb,
                const AnalysisOptions& options, const AnalysisResult& result,
                size_t target, const Quickfix& fix,
                const dynamic::ExecOptions& exec, const SeedContext& seed) {
    const std::optional<std::string> patched_text = apply_quickfix(project, fix);
    if (!patched_text) return false;

    // apply_quickfix found fix.file through the same file index the fork
    // uses, so a fork refuses only a project that parse_all() never built.
    DiagnosticSink sink;
    const std::optional<php::Project> forked =
        project.fork_with_replacement(fix.file, *patched_text, sink);
    if (!forked) return false;
    const php::Project& patched = *forked;
    const php::ParsedFile* parsed = patched.file_named(fix.file);
    if (!parsed || parsed->parse_failed) return false;

    const Analyzer analyzer = Analyzer::borrowing(kb, options);
    ScanResult rescan;
    if (seed.seeds) {
        // One copy and one memo per fix: neither is thread-safe to share,
        // and fixes verify in parallel. The copy shares the original's
        // dependency index.
        SeedSet seeds = *seed.seeds;
        DepCheckMemo memo(patched);
        for (const SeedSet::Probe& probe : seeds.rebase(patched))
            if (probe.held && memo.validate(*probe.held))
                seeds.admit(probe.key, probe.held);
        SummaryExchange exchange;
        exchange.seeds = &seeds;
        rescan = analyzer.scan(patched, seed.hermetic, exchange);
    } else {
        rescan = analyzer.scan(patched);
    }
    if (rescan.result.files_failed != result.files_failed) return false;

    const Finding& finding = result.findings[target];
    const std::string target_key = finding.dedup_key();
    if (rescan.result.findings.size() + 1 != result.findings.size())
        return false;
    size_t j = 0;
    for (size_t i = 0; i < result.findings.size(); ++i) {
        if (i == target) continue;
        const Finding& after = rescan.result.findings[j++];
        if (after.dedup_key() == target_key) return false;
        if (finding_signature(after) != finding_signature(result.findings[i]))
            return false;
    }

    const std::string payload = Validator::payload_for(finding.kind);
    dynamic::Interpreter interpreter(patched, exec);
    Validator::seed_vector(interpreter, finding.vector, payload);
    const dynamic::ExecResult run = interpreter.run_file(finding.location.file);
    return !Validator::judge(finding, run, payload).confirmed;
}

}  // namespace

std::string to_string(Tier tier) {
    switch (tier) {
        case Tier::kValidated: return "validated";
        case Tier::kUnvalidated: return "unvalidated";
        case Tier::kInconclusive: return "inconclusive";
    }
    return "?";
}

Confidence to_confidence(Tier tier) {
    switch (tier) {
        case Tier::kValidated: return Confidence::kValidated;
        case Tier::kUnvalidated: return Confidence::kUnvalidated;
        case Tier::kInconclusive: return Confidence::kInconclusive;
    }
    return Confidence::kUnchecked;
}

ValidationReport validate_result(const php::Project& project,
                                 const KnowledgeBase& kb,
                                 const AnalysisOptions& options,
                                 const AnalysisResult& result,
                                 const ValidateOptions& vopts) {
    const double start = now_seconds();
    ValidationReport report;
    report.tool = result.tool;
    report.plugin = result.plugin;
    const size_t n = result.findings.size();
    report.cases.resize(n);

    // ---- 1. group findings by execution key -------------------------------
    // Key = (entry file, payload, seed class): replays with equal keys seed
    // the interpreter identically and run the same file, so they share one
    // execution. Group order is first-appearance order — deterministic in
    // the findings' total order, independent of map iteration.
    std::vector<ExecGroup> groups;
    std::vector<size_t> slot(n);
    std::map<std::string, size_t> group_index;
    for (size_t i = 0; i < n; ++i) {
        const Finding& finding = result.findings[i];
        const std::string payload = Validator::payload_for(finding.kind);
        const std::string key =
            finding.location.file + '\x1f' + payload + '\x1f' +
            to_string(Validator::seed_class(finding.vector));
        const auto [it, inserted] =
            group_index.emplace(key, groups.size());
        if (inserted) {
            ExecGroup group;
            group.file = finding.location.file;
            group.vector = finding.vector;
            group.payload = payload;
            groups.push_back(std::move(group));
        }
        slot[i] = it->second;
    }
    report.executions = static_cast<int>(groups.size());

    WorkerPool pool(WorkerPool::resolve_parallelism(vopts.workers));

    // ---- 2. fan executions across the pool, merge by index ----------------
    std::vector<dynamic::ExecResult> runs(groups.size());
    pool.run(groups.size(), [&](size_t g) {
        dynamic::Interpreter interpreter(project, vopts.exec);
        Validator::seed_vector(interpreter, groups[g].vector,
                               groups[g].payload);
        runs[g] = interpreter.run_file(groups[g].file);
    });

    // ---- 3. judge each finding against its shared execution ---------------
    for (size_t i = 0; i < n; ++i) {
        const Finding& finding = result.findings[i];
        CaseOutcome& outcome = report.cases[i];
        outcome.replay = Validator::judge(finding, runs[slot[i]],
                                          groups[slot[i]].payload);
        if (outcome.replay.confirmed) {
            outcome.tier = Tier::kValidated;
            ++report.validated;
        } else if (outcome.replay.executed) {
            outcome.tier = Tier::kUnvalidated;
            ++report.unvalidated;
        } else {
            outcome.tier = Tier::kInconclusive;
            ++report.inconclusive;
        }
    }

    // ---- 4. remediation: propose serially (cheap), verify in parallel ----
    if (vopts.propose_fixes) {
        std::vector<std::optional<Quickfix>> proposals(n);
        for (size_t i = 0; i < n; ++i) {
            proposals[i] = propose_quickfix(project, kb, result.findings[i]);
            if (proposals[i]) ++report.fixes_proposed;
        }

        // One hermetic capture scan of the original project amortizes the
        // per-fix rescans: function summaries AND entry-file walks untouched
        // by a patch are seeded instead of recomputed (capture_entry_files —
        // the entry artifacts are what let a verification rescan skip
        // re-walking every unchanged file's top-level code). Seeding only
        // arms when the hermetic baseline reproduces the caller's result
        // byte-for-byte — otherwise every verification falls back to a
        // plain full rescan.
        SeedContext seed;
        std::optional<SeedSet> seeds;
        if (report.fixes_proposed > 0) {
            seed.hermetic = options.to_builder()
                                .hermetic_summaries(true)
                                .capture_entry_files(true)
                                .build();
            std::map<std::string, SummaryArtifact> capture;
            SummaryExchange exchange;
            exchange.capture = &capture;
            const Analyzer analyzer = Analyzer::borrowing(kb, options);
            const ScanResult baseline =
                analyzer.scan(project, seed.hermetic, exchange);
            bool reproduced =
                baseline.result.files_failed == result.files_failed &&
                baseline.result.findings.size() == result.findings.size();
            for (size_t i = 0; reproduced && i < result.findings.size(); ++i)
                reproduced = finding_signature(baseline.result.findings[i]) ==
                             finding_signature(result.findings[i]);
            if (reproduced) {
                seeds.emplace(project, std::move(capture));
                seed.seeds = &*seeds;
            }
        }

        pool.run(n, [&](size_t i) {
            if (!proposals[i]) return;
            if (verify_fix(project, kb, options, result, i, *proposals[i],
                           vopts.exec, seed)) {
                proposals[i]->verified = true;
                report.cases[i].fix = std::move(proposals[i]);
            }
        });
        for (const CaseOutcome& outcome : report.cases)
            if (outcome.fix) ++report.fixes_verified;
    }

    report.wall_seconds = now_seconds() - start;
    return report;
}

void apply_confidence(AnalysisResult& result, const ValidationReport& report) {
    const size_t n =
        std::min(result.findings.size(), report.cases.size());
    for (size_t i = 0; i < n; ++i)
        result.findings[i].confidence = to_confidence(report.cases[i].tier);
}

std::string validation_signature(const AnalysisResult& result,
                                 const ValidationReport& report) {
    std::ostringstream os;
    os << "tool=" << report.tool << " plugin=" << report.plugin
       << " cases=" << report.cases.size()
       << " executions=" << report.executions << " tiers=" << report.validated
       << "/" << report.unvalidated << "/" << report.inconclusive
       << " fixes=" << report.fixes_proposed << "/" << report.fixes_verified
       << '\n';
    const size_t n =
        std::min(result.findings.size(), report.cases.size());
    for (size_t i = 0; i < n; ++i) {
        const CaseOutcome& outcome = report.cases[i];
        os << to_string(result.findings[i]) << " => "
           << to_string(outcome.tier)
           << " confirmed=" << outcome.replay.confirmed
           << " executed=" << outcome.replay.executed
           << " payload=" << outcome.replay.payload_used
           << " evidence=" << outcome.replay.evidence << '\n';
        if (outcome.fix)
            os << "  fix[" << to_string(outcome.fix->kind) << "] "
               << outcome.fix->file << ":" << outcome.fix->line << " {"
               << outcome.fix->before << "} -> {" << outcome.fix->after
               << "}\n";
    }
    return os.str();
}

}  // namespace phpsafe::validate
