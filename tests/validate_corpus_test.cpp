// The batch validation pipeline (validate/validate.h) on the full 2014
// corpus, where execution sharing and fix rejection are both exercised:
// 449 findings share 373 interpreter runs and 141 of 435 proposed fixes
// fail verification. Three gates:
//
//   1. batched == from text: every case's tier and replay equal a
//      stand-alone dynamic::Validator::validate, and every proposed fix gets
//      the same verdict from the pipeline's forked, seeded rescan as from
//      fuzz::recheck_fix_from_text's cold from-text rebuild;
//   2. validation_signature is byte-identical at workers 1 and 4;
//   3. work counts: executions equal the distinct execution keys, each
//      verified fix re-parses one file, and the batched path computes at
//      most a third of the summaries the from-text reference does. These
//      are counts, so a faster lexer or parser cannot move them.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "baselines/analyzers.h"
#include "corpus/generator.h"
#include "dynamic/validator.h"
#include "fuzz/oracles.h"
#include "obs/counters.h"
#include "validate/quickfix.h"
#include "validate/validate.h"

namespace phpsafe::validate {
namespace {

using dynamic::Validator;

struct PluginRun {
    php::Project project;
    AnalysisResult result;
};

class ValidateCorpusTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        corpus::CorpusOptions options;
        options.filler_lines_2012 = 20000;
        options.filler_lines_2014 = 40000;
        const corpus::Corpus corpus = corpus::generate_corpus(options);
        for (const corpus::GeneratedPlugin& plugin : corpus.plugins) {
            DiagnosticSink sink;
            PluginRun run{corpus::build_project(plugin, plugin.v2014, sink),
                          {}};
            run.result = run_tool(tool(), run.project);
            runs_.push_back(std::move(run));
        }
    }
    static void TearDownTestSuite() { runs_.clear(); }

    static const Tool& tool() {
        static const Tool phpsafe = make_phpsafe_tool();
        return phpsafe;
    }
    static const std::vector<PluginRun>& runs() { return runs_; }

    static ValidationReport validate(const PluginRun& run, int workers) {
        ValidateOptions vopts;
        vopts.workers = workers;
        return validate_result(run.project, tool().kb, tool().options,
                               run.result, vopts);
    }

private:
    inline static std::vector<PluginRun> runs_;
};

TEST_F(ValidateCorpusTest, BatchedEqualsFromTextCaseByCase) {
    int findings = 0, executions = 0, proposed = 0, rejected = 0;
    for (const PluginRun& run : runs()) {
        const ValidationReport report = validate(run, 1);
        const std::vector<Finding>& all = run.result.findings;
        ASSERT_EQ(report.cases.size(), all.size()) << run.result.plugin;
        findings += static_cast<int>(all.size());
        executions += report.executions;

        Validator validator(run.project);
        for (size_t i = 0; i < all.size(); ++i) {
            SCOPED_TRACE(to_string(all[i]));
            const CaseOutcome& batched = report.cases[i];
            const dynamic::ValidationResult alone = validator.validate(all[i]);
            const Tier tier = alone.confirmed  ? Tier::kValidated
                              : alone.executed ? Tier::kUnvalidated
                                               : Tier::kInconclusive;
            EXPECT_EQ(batched.tier, tier);
            EXPECT_EQ(batched.replay.confirmed, alone.confirmed);
            EXPECT_EQ(batched.replay.executed, alone.executed);
            EXPECT_EQ(batched.replay.evidence, alone.evidence);
            EXPECT_EQ(batched.replay.payload_used, alone.payload_used);

            const std::optional<Quickfix> fix =
                propose_quickfix(run.project, tool().kb, all[i]);
            if (!fix) {
                EXPECT_FALSE(batched.fix.has_value());
                continue;
            }
            ++proposed;
            const fuzz::FixRecheck reference = fuzz::recheck_fix_from_text(
                run.project, tool(), run.result, i, *fix);
            if (reference != fuzz::FixRecheck::kVerified) ++rejected;
            EXPECT_EQ(batched.fix.has_value(),
                      reference == fuzz::FixRecheck::kVerified)
                << "from-text reference: " << fuzz::to_string(reference);
        }
    }
    // The corpus exercises both halves of the pipeline: findings share
    // executions, and some proposed fixes fail verification.
    EXPECT_LT(executions, findings);
    EXPECT_GT(rejected, 0);
    EXPECT_LT(rejected, proposed);
}

TEST_F(ValidateCorpusTest, WorkerCountDoesNotMatter) {
    for (const PluginRun& run : runs())
        EXPECT_EQ(validation_signature(run.result, validate(run, 1)),
                  validation_signature(run.result, validate(run, 4)))
            << run.result.plugin;
}

TEST_F(ValidateCorpusTest, WorkCountsStayBelowTheFromTextReference) {
    int findings = 0, executions = 0, distinct_keys = 0, proposed = 0;
    uint64_t files_in_fixed_projects = 0;
    obs::Counters batched, reference;
    for (const PluginRun& run : runs()) {
        const std::vector<Finding>& all = run.result.findings;
        findings += static_cast<int>(all.size());
        std::set<std::string> keys;
        for (const Finding& finding : all)
            keys.insert(finding.location.file + '\x1f' +
                        Validator::payload_for(finding.kind) + '\x1f' +
                        to_string(Validator::seed_class(finding.vector)));
        distinct_keys += static_cast<int>(keys.size());

        obs::CounterDelta batched_delta;
        const ValidationReport report = validate(run, 1);
        batched += batched_delta.take();
        executions += report.executions;
        proposed += report.fixes_proposed;

        for (size_t i = 0; i < all.size(); ++i) {
            const std::optional<Quickfix> fix =
                propose_quickfix(run.project, tool().kb, all[i]);
            if (!fix) continue;
            files_in_fixed_projects += run.project.files().size();
            obs::CounterDelta reference_delta;
            fuzz::recheck_fix_from_text(run.project, tool(), run.result, i,
                                        *fix);
            reference += reference_delta.take();
        }
    }
    EXPECT_EQ(executions, distinct_keys);
    EXPECT_LT(executions, findings);

    // A batched verification parses only the patched file; the reference
    // rebuilds every file of the project.
    EXPECT_EQ(batched.files_parsed, static_cast<uint64_t>(proposed));
    EXPECT_EQ(reference.files_parsed, files_in_fixed_projects);

    // Seeding from the one capture scan (counted on the batched side)
    // leaves at most a third of the reference's summary computations.
    EXPECT_GT(batched.summaries_computed, 0u);
    EXPECT_LE(3 * batched.summaries_computed, reference.summaries_computed)
        << "batched " << batched.summaries_computed << " vs reference "
        << reference.summaries_computed;
}

}  // namespace
}  // namespace phpsafe::validate
