// Dynamic validation of the 2014 corpus: the paper's exploit confirmation
// (§III.E) and manual verification of every report (§IV.B.5), automated by
// the batch pipeline in validate/validate.h. For every phpSAFE finding it
// prints how the interpreter replay tiered it, how much precision keeping
// only confirmed reports buys against the corpus ground truth, and how many
// of the proposed quickfixes passed verification.
//
// Every number is a count, so the output is byte-stable run to run and at
// any PHPSAFE_JOBS. The pipeline's correctness gates (batched verdicts equal
// the from-text reference case by case, workers 1 vs 4, work counts) are
// tier-1 tests (tests/validate_corpus_test.cpp); its wall time is measured
// by perfbench.
//
// Usage: bench_validate
#include <iomanip>
#include <iostream>

#include "baselines/analyzers.h"
#include "corpus/generator.h"
#include "report/matching.h"
#include "validate/validate.h"

using namespace phpsafe;

namespace {

double percent(int part, int whole) {
    return whole > 0 ? 100.0 * part / whole : 0.0;
}

}  // namespace

int main() {
    corpus::CorpusOptions options;
    options.filler_lines_2012 = 20000;
    options.filler_lines_2014 = 40000;
    const corpus::Corpus corpus = corpus::generate_corpus(options);
    const Tool tool = make_phpsafe_tool();

    int findings = 0, executions = 0;
    int validated = 0, unvalidated = 0, inconclusive = 0;
    int tp_total = 0, tp_confirmed = 0, fp_total = 0, fp_confirmed = 0;
    int fixes_proposed = 0, fixes_verified = 0;
    for (const corpus::GeneratedPlugin& plugin : corpus.plugins) {
        DiagnosticSink sink;
        const php::Project project =
            corpus::build_project(plugin, plugin.v2014, sink);
        const AnalysisResult result = run_tool(tool, project);
        const validate::ValidationReport report = validate::validate_result(
            project, tool.kb, tool.options, result);
        findings += static_cast<int>(result.findings.size());
        executions += report.executions;
        validated += report.validated;
        unvalidated += report.unvalidated;
        inconclusive += report.inconclusive;
        fixes_proposed += report.fixes_proposed;
        fixes_verified += report.fixes_verified;

        const MatchResult match =
            match_findings(result.findings, plugin.v2014.truth);
        const auto confirmed = [&](const Finding* finding) {
            return report.cases[static_cast<size_t>(finding -
                                                    result.findings.data())]
                .replay.confirmed;
        };
        for (const Finding* finding : match.true_positives) {
            ++tp_total;
            tp_confirmed += confirmed(finding);
        }
        for (const Finding* finding : match.false_positives) {
            ++fp_total;
            fp_confirmed += confirmed(finding);
        }
    }

    std::cout << std::fixed << std::setprecision(1);
    std::cout << "Dynamic validation of the 2014 corpus (paper §III.E, "
                 "§IV.B.5)\n"
              << "Plugins: " << corpus.plugins.size()
              << "  findings: " << findings
              << "  interpreter executions: " << executions << "\n"
              << "Tiers: " << validated << " validated, " << unvalidated
              << " unvalidated, " << inconclusive << " inconclusive\n"
              << "True positives confirmed:  " << tp_confirmed << " of "
              << tp_total << " (" << percent(tp_confirmed, tp_total) << "%)\n"
              << "False positives confirmed: " << fp_confirmed << " of "
              << fp_total << " (" << percent(fp_confirmed, fp_total)
              << "%; " << percent(fp_total - fp_confirmed, fp_total)
              << "% rejected)\n"
              << "Precision: " << percent(tp_total, tp_total + fp_total)
              << "% of all reports, "
              << percent(tp_confirmed, tp_confirmed + fp_confirmed)
              << "% of confirmed reports\n"
              << "Quickfixes: " << fixes_verified << " verified of "
              << fixes_proposed << " proposed\n";
    return 0;
}
