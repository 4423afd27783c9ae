// Self-tests of the benchmark's own arithmetic: percentile and tail_ms
// selection, open-loop lateness accounting, the edit generator's expected
// deltas, per-op CPU accounting and span self times. run.py runs this
// binary before every benchmark run and refuses to measure if it fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "edit_script.h"
#include "open_loop.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

void test_percentiles() {
    const Percentile p50 = percentile(one_to(100), 50);
    CHECK(near(p50.value, 50) && p50.samples == 100 && p50.beyond == 50);
    const Percentile p90 = percentile(one_to(100), 90);
    CHECK(near(p90.value, 90) && p90.beyond == 10);
    CHECK(near(percentile(one_to(100), 100).value, 100));
    CHECK(near(percentile({7.0}, 99).value, 7));
    CHECK(percentile({}, 50).samples == 0);

    // tail_ms: the highest ladder percentile leaving >= 10 samples beyond.
    struct Case { int n; double pct; double value; };
    for (const Case& c : {Case{100, 90, 90}, Case{199, 90, 180}, Case{200, 95, 190},
                          Case{1000, 99, 990}, Case{10000, 99.9, 9990},
                          Case{40, 75, 30}, Case{20, 50, 10}}) {
        const Percentile t = tail_percentile(one_to(c.n));
        CHECK(near(t.pct, c.pct));
        CHECK(near(t.value, c.value));
        CHECK(t.beyond >= kTailBeyond && t.samples == static_cast<size_t>(c.n));
    }
    // Too few samples for any ladder step: the median, flagged by `beyond`.
    const Percentile small = tail_percentile(one_to(15));
    CHECK(near(small.pct, 50) && small.beyond < kTailBeyond);
}

void test_open_loop() {
    const std::vector<double> due = uniform_schedule(4, 2.0);
    CHECK(due.size() == 4 && near(due[0], 0) && near(due[3], 1.5));

    // Timed from when it was due, not from when it was sent.
    const RequestTiming late{1.0, 1.3, 1.5};
    CHECK(near(latency_from_due(late), 0.5));
    CHECK(near(generator_lateness(late), 0.3));
    CHECK(near(generator_lateness({1.0, 0.9, 1.2}), 0));

    // A stall charges every request it holds up: both finish at 1.0.
    const RequestTiming a{0.0, 0.0, 1.0}, b{0.1, 0.1, 1.0};
    CHECK(near(latency_from_due(a), 1.0) && near(latency_from_due(b), 0.9));

    // Backlog growth: latency rising 0.2 s per second of schedule.
    std::vector<RequestTiming> growing, steady;
    for (int i = 0; i < 50; ++i) {
        const double t = i * 0.1;
        growing.push_back({t, t, t + 0.05 + 0.2 * t});
        steady.push_back({t, t, t + 0.05 + (i % 2) * 0.01});
    }
    CHECK(std::fabs(latency_growth(growing) - 0.2) < 1e-9);
    CHECK(std::fabs(latency_growth(steady)) < 0.01);
    const std::vector<bool> all_ok(50, true);
    CHECK(judge_rung(steady, all_ok, 1.0, 0.1).pass);
    CHECK(!judge_rung(growing, all_ok, 1.0, 0.1).pass);
    CHECK(!judge_rung(steady, all_ok, 0.01, 0.1).pass);  // tail over the limit
    std::vector<bool> one_failed = all_ok;
    one_failed[3] = false;
    CHECK(!judge_rung(steady, one_failed, 1.0, 0.1).pass);
}

std::string line_of(const std::string& text, int line) {
    size_t at = 0;
    for (int i = 1; i < line; ++i) at = text.find('\n', at) + 1;
    return text.substr(at, text.find('\n', at) - at);
}

int count_lines(const std::string& s) {
    return static_cast<int>(std::count(s.begin(), s.end(), '\n'));
}

void test_edit_script() {
    phpsafe::corpus::MonorepoOptions options;
    options.scale = 0.25;
    const auto repo = phpsafe::corpus::generate_monorepo(options);
    std::vector<std::string> seeded;
    for (const auto& v : repo.seeded_vulns) seeded.push_back(v.file);
    const std::set<std::string> seeded_set(seeded.begin(), seeded.end());

    const int n = 40;
    const EditScript script = make_edit_script(repo.files, seeded, 7, n);
    CHECK(static_cast<int>(script.edits.size()) == n);

    std::map<std::string, std::string> tree(repo.files.begin(), repo.files.end());
    std::map<EditKind, int> kinds;
    for (size_t i = 0; i < script.edits.size(); ++i) {
        const Edit& e = script.edits[i];
        ++kinds[e.kind];
        CHECK(!seeded_set.count(e.file) && tree.count(e.file));
        const std::string before = tree[e.file];
        switch (e.kind) {
        case EditKind::kPlant:
            CHECK(e.expect_added == 1 && e.expect_removed == 0);
            CHECK(line_of(e.text, e.line).find("echo $_GET['perfbench'];") != std::string::npos);
            CHECK(line_of(before, e.line).find("echo $_GET") == std::string::npos);
            // The revert follows at once and restores the text byte for byte.
            CHECK(i + 1 < script.edits.size());
            if (i + 1 < script.edits.size()) {
                const Edit& r = script.edits[i + 1];
                CHECK(r.kind == EditKind::kRevert && r.file == e.file && r.line == e.line);
                CHECK(r.text == before);
                CHECK(r.expect_added == 0 && r.expect_removed == 1);
            }
            break;
        case EditKind::kRevert:
            CHECK(i > 0 && script.edits[i - 1].kind == EditKind::kPlant);
            break;
        case EditKind::kHub:
            CHECK(e.file.rfind("framework/lib-", 0) == 0);
            [[fallthrough]];
        case EditKind::kBody:
            CHECK(e.expect_added == 0 && e.expect_removed == 0);
            CHECK(count_lines(e.text) == count_lines(before));
            break;
        case EditKind::kStruct:
            CHECK(e.expect_added == 0 && e.expect_removed == 0);
            CHECK(std::abs(count_lines(e.text) - count_lines(before)) == 1);
            break;
        }
        // No edit moves an existing line: the prefix before the body line
        // is untouched.
        CHECK(e.text.substr(0, e.text.find("\n    ")) == before.substr(0, before.find("\n    ")));
        CHECK(e.text != before);
        tree[e.file] = e.text;
    }
    const EditMix mix = edit_mix(n);
    CHECK(kinds[EditKind::kHub] == mix.hub && mix.hub == 4);
    CHECK(kinds[EditKind::kStruct] == mix.structural && mix.structural == 6);
    CHECK(kinds[EditKind::kPlant] == mix.pairs && kinds[EditKind::kRevert] == mix.pairs);
    CHECK(kinds[EditKind::kBody] == mix.body && mix.body == 20);
    CHECK(tree == script.final_files);

    // Same seed, same script; another seed, another script.
    const EditScript again = make_edit_script(repo.files, seeded, 7, n);
    const EditScript other = make_edit_script(repo.files, seeded, 8, n);
    bool same = true, differs = false;
    for (size_t i = 0; i < script.edits.size(); ++i) {
        same = same && again.edits[i].text == script.edits[i].text;
        differs = differs || other.edits[i].file != script.edits[i].file;
    }
    CHECK(same && differs);
}

void test_cpu_accounting() {
    CHECK(near(cpu_ms_per_op(1.0, 3.0, 1000), 2.0));
    CHECK(near(cpu_ms_per_op(1.0, 3.0, 0), 0.0));
    // Process CPU covers the CPU this thread burns.
    const double p0 = process_cpu_s(), t0 = thread_cpu_s();
    volatile double sink = 0;
    while (thread_cpu_s() - t0 < 0.05) sink = sink + std::sqrt(sink + 1.0);
    const double burned = thread_cpu_s() - t0;
    CHECK(process_cpu_s() - p0 >= burned - 0.011);  // rusage has 10 ms ticks at worst
}

void test_trace() {
    CHECK(layer_of("php.build") == "php" && layer_of("bench") == "bench");
    // root [0,10] > a [1,4], b [5,9] > c [6,7]
    std::vector<Span> spans = {
        {"bench.root", 0, 10, 0, -1, 0}, {"php.a", 1, 4, 0, 0, 1},
        {"core.b", 5, 9, 0, 0, 1},       {"core.c", 6, 7, 0, 2, 1}};
    CHECK(nesting_ok(spans));
    const std::vector<double> self = self_times(spans);
    CHECK(near(self[0], 3) && near(self[1], 3) && near(self[2], 3) && near(self[3], 1));
    double sum = 0;
    for (double s : self) sum += s;
    CHECK(near(sum, 10));
    const auto layers = self_by_layer(spans);
    CHECK(near(layers.at("core"), 4) && near(layers.at("php"), 3) && near(layers.at("bench"), 3));

    std::vector<Span> overlap = spans;
    overlap[2].start = 3.5;  // b starts before a ends
    CHECK(!nesting_ok(overlap));
    std::vector<Span> outside = spans;
    outside[3].end = 9.5;  // c outlives its parent b
    CHECK(!nesting_ok(outside));

    // A live recorder nests what it records; a disabled one records nothing.
    Trace on(true, 1), off(false, 1);
    for (Trace* t : {&on, &off}) {
        auto root = t->thread(0).open("bench.root");
        { auto child = t->thread(0).open("php.child", 1); }
        { auto child = t->thread(0).open("core.child", 2); }
    }
    CHECK(on.thread(0).spans().size() == 3 && nesting_ok(on.thread(0).spans()));
    CHECK(on.thread(0).spans()[1].parent == 0 && on.thread(0).spans()[2].request == 2);
    CHECK(off.thread(0).spans().empty());
}

void test_include_literals() {
    const auto found = include_literals(
        "<?php require_once 'a/b.php'; include(\"c.php\");\n"
        "$my_include = 'no.php'; require $dynamic; include_once ( 'd.php' );\n"
        "require_once dirname(__FILE__) . '/chain-2.php';\n"
        "$x = 'includes/helpers.php'; // include it later\n");
    CHECK((found == std::vector<std::string>{"a/b.php", "c.php", "d.php", "/chain-2.php"}));
}

}  // namespace

int main() {
    test_percentiles();
    test_open_loop();
    test_edit_script();
    test_cpu_accounting();
    test_trace();
    test_include_literals();
    if (failures) {
        std::fprintf(stderr, "perfbench self-test: %d check(s) failed\n", failures);
        return 1;
    }
    std::fprintf(stderr, "perfbench self-test: ok\n");
    return 0;
}
