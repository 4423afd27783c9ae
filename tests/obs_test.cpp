// Tests for the observability subsystem: counter arithmetic and TLS
// isolation, CounterDelta capture, Engine::Observer dispatch order, span
// tracing, and the subsystem's central cost contract — a disabled tracer
// and the always-on counters allocate nothing on the hot path — plus the
// arena parser's per-node heap-allocation and arena-byte bounds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "php/walk.h"
#include "phpsafe.h"
#include "service/watch.h"

// Global allocation counter for the no-allocation assertions. Counting
// operator new in this TU observes every heap allocation the process makes
// on this thread path. Sanitizer builds interpose their own allocator and
// may bypass this override, so those assertions are skipped there.
namespace {
std::atomic<uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

// Not inlined: GCC's -Wmismatched-new-delete would otherwise see a free()
// of memory from operator new wherever it inlines a delete into a new
// expression's cleanup path, although this operator new is malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PHPSAFE_ALLOC_COUNT_RELIABLE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PHPSAFE_ALLOC_COUNT_RELIABLE 0
#else
#define PHPSAFE_ALLOC_COUNT_RELIABLE 1
#endif
#else
#define PHPSAFE_ALLOC_COUNT_RELIABLE 1
#endif

namespace phpsafe {
namespace {

TEST(ObsCountersTest, ArithmeticIsFieldWise) {
    obs::Counters a;
    a.tokens_lexed = 10;
    a.sink_checks = 3;
    obs::Counters b;
    b.tokens_lexed = 5;
    b.findings_xss = 2;

    obs::Counters sum = a;
    sum += b;
    EXPECT_EQ(sum.tokens_lexed, 15u);
    EXPECT_EQ(sum.sink_checks, 3u);
    EXPECT_EQ(sum.findings_xss, 2u);
    EXPECT_EQ(sum.total(), 20u);

    const obs::Counters diff = sum - b;
    EXPECT_TRUE(diff == a);
}

TEST(ObsCountersTest, ForEachFieldVisitsEveryCounterInOrder) {
    obs::Counters c;
    c.tokens_lexed = 1;
    c.findings_sqli = 7;
    std::vector<std::string> names;
    uint64_t sum = 0;
    c.for_each_field([&](const char* name, uint64_t value) {
        names.push_back(name);
        sum += value;
    });
    EXPECT_EQ(sum, c.total());
    ASSERT_GE(names.size(), 14u);
    EXPECT_EQ(names.front(), "tokens_lexed");
    // The allocation counter group closes the X-macro list.
    EXPECT_EQ(names.back(), "alloc_string_bytes_saved");
}

TEST(ObsCountersTest, DeltaCapturesOnlyThisThreadsIncrements) {
    const obs::CounterDelta delta;
    ++obs::tls().sink_checks;
    std::thread other([] { obs::tls().sink_checks += 100; });
    other.join();
    const obs::Counters seen = delta.take();
    EXPECT_EQ(seen.sink_checks, 1u);  // the other thread's adds are invisible
    EXPECT_EQ(seen.total(), 1u);
}

TEST(ObsCountersTest, DeltasNest) {
    const obs::CounterDelta outer;
    ++obs::tls().scope_lookups;
    const obs::CounterDelta inner;
    ++obs::tls().scope_lookups;
    EXPECT_EQ(inner.take().scope_lookups, 1u);
    EXPECT_EQ(outer.take().scope_lookups, 2u);
}

#if PHPSAFE_ALLOC_COUNT_RELIABLE
TEST(ObsCountersTest, IncrementsNeverAllocate) {
    ++obs::tls().tokens_lexed;  // fault in the TLS block first
    const uint64_t before = g_allocations.load();
    for (int i = 0; i < 1000; ++i) {
        ++obs::tls().taint_propagations;
        ++obs::tls().sink_checks;
        const obs::CounterDelta delta;
        obs::Counters d = delta.take();
        obs::tls().scope_lookups += d.total() ? 0 : 1;
    }
    EXPECT_EQ(g_allocations.load(), before);
}

TEST(ObsTraceTest, DisabledTracerSpansAreFree) {
    obs::Tracer tracer(/*enabled=*/false);
    const std::string plugin = "wp-forum";  // built before counting starts
    const uint64_t before = g_allocations.load();
    for (int i = 0; i < 1000; ++i) {
        auto span = tracer.span("analyze", {{"plugin", plugin}});
        span.note("findings", "3");
        span.end();
    }
    EXPECT_EQ(g_allocations.load(), before);
    EXPECT_EQ(tracer.record_count(), 0u);
}

// The arena memory model's two size-independent ratios (docs/performance.md,
// "The memory model"): cold model construction — lex, parse and literal
// include resolution of every plugin version of the full-size corpus — makes
// a heap allocation for well under one AST node in ten, and spends a bounded
// number of arena bytes per node. A parser that went back to one heap
// allocation per node would read >= 1.0 allocations per node here. Bounds:
// 1.2x the ratios the arena parser was recorded at (0.0609 and 50.4966).
TEST(ObsAllocTest, ColdModelConstructionStaysOffTheHeap) {
    corpus::CorpusOptions options;
    options.scale = 1.0;
    options.filler_lines_2012 = 70000;
    options.filler_lines_2014 = 150000;
    const corpus::Corpus corpus = corpus::generate_corpus(options);

    const obs::CounterDelta delta;
    const uint64_t before = g_allocations.load();
    for (const corpus::GeneratedPlugin& plugin : corpus.plugins) {
        for (const corpus::PluginVersionSource* version :
             {&plugin.v2012, &plugin.v2014}) {
            php::Project project(plugin.name);
            for (const auto& [name, text] : version->files)
                project.add_file(name, text);
            DiagnosticSink sink;
            project.parse_all(sink);
            // Visitors built once per project, so the walk itself costs no
            // allocation whatever std::function's small-buffer size is.
            const php::ExprVisitor resolve = [&](const php::Expr& e) {
                if (e.kind != php::NodeKind::kIncludeExpr) return;
                const auto& inc = static_cast<const php::IncludeExpr&>(e);
                if (inc.path && inc.path->kind == php::NodeKind::kLiteral)
                    (void)project.resolve_include(
                        static_cast<const php::Literal&>(*inc.path).value);
            };
            const php::StmtVisitor ignore = [](const php::Stmt&) {};
            for (const auto& file : project.files())
                if (file)
                    for (const php::StmtPtr& stmt : file->unit.statements)
                        if (stmt) php::walk_stmt(*stmt, resolve, ignore);
        }
    }
    const uint64_t allocations = g_allocations.load() - before;
    const obs::Counters counters = delta.take();

    ASSERT_GT(counters.ast_nodes, 0u);
    const double nodes = static_cast<double>(counters.ast_nodes);
    EXPECT_LE(static_cast<double>(allocations) / nodes, 1.2 * 0.0609)
        << allocations << " heap allocations for " << counters.ast_nodes
        << " AST nodes";
    EXPECT_LE(static_cast<double>(counters.alloc_arena_bytes) / nodes,
              1.2 * 50.4966)
        << counters.alloc_arena_bytes << " arena bytes for "
        << counters.ast_nodes << " AST nodes";
}
#endif  // PHPSAFE_ALLOC_COUNT_RELIABLE

TEST(ObsTraceTest, EnabledTracerRecordsSpans) {
    obs::Tracer tracer(/*enabled=*/true);
    EXPECT_TRUE(tracer.enabled());
    {
        auto span = tracer.span("model", {{"plugin", "demo"}, {"version", "2012"}});
        EXPECT_TRUE(span.active());
        span.note("files", "3");
    }  // destructor ends the span
    auto explicit_span = tracer.span("analyze");
    explicit_span.end();
    explicit_span.end();  // idempotent

    const std::vector<obs::SpanRecord> records = tracer.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].name, "model");
    ASSERT_EQ(records[0].args.size(), 3u);
    EXPECT_EQ(records[0].args[0].first, "plugin");
    EXPECT_EQ(records[0].args[0].second, "demo");
    EXPECT_EQ(records[0].args[2].first, "files");
    EXPECT_GE(records[0].wall_seconds, 0.0);
    EXPECT_EQ(records[1].name, "analyze");
    EXPECT_GE(records[1].wall_start, records[0].wall_start);
}

TEST(ObsTraceTest, SpansRecordTheirCounterDeltas) {
    obs::Tracer tracer(/*enabled=*/true);
    {
        auto span = tracer.span("work");
        obs::tls().cache_shard_probes += 3;
        obs::tls().cache_shard_contention += 1;
    }
    const std::vector<obs::SpanRecord> records = tracer.records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].counters.cache_shard_probes, 3u);
    EXPECT_EQ(records[0].counters.cache_shard_contention, 1u);
}

/// Records the order of every observer callback for the dispatch tests.
struct RecordingObserver : Engine::Observer {
    std::vector<std::string> events;
    void on_file_begin(const php::ParsedFile& file) override {
        events.push_back("begin " + file.source->name());
    }
    void on_file_end(const php::ParsedFile& file, bool failed) override {
        events.push_back((failed ? "fail " : "end ") + file.source->name());
    }
    void on_function_summary(const php::FunctionRef& ref,
                             const FunctionSummary&) override {
        events.push_back("summary " + ref.qualified_name());
    }
    void on_finding(const Finding& finding) override {
        events.push_back("finding " + finding.sink);
    }
};

TEST(ObsCountersTest, BodyEditWalksOnlyArtifactsNamingTheEditedFile) {
    corpus::MonorepoOptions options;
    options.scale = 0.25;
    const corpus::MonorepoSource repo = corpus::generate_monorepo(options);
    service::ScanRequest request;
    request.plugin = "monorepo";
    for (const auto& [name, text] : repo.files) request.files.push_back({name, text});
    service::AnalysisService service;
    service::WatchSession watch(service);
    ASSERT_FALSE(watch.open(request).rejected);

    // A body save to a shared library that many part functions call.
    const std::string lib = "framework/lib-2.php";
    std::string text;
    for (const auto& [name, body] : repo.files)
        if (name == lib) text = body;
    const std::string from = "htmlspecialchars($value)";
    ASSERT_NE(text.find(from), std::string::npos);
    text.replace(text.find(from), from.size(), "htmlspecialchars(trim($value))");

    // The seeds recording the library: its own functions and their callers.
    const php::Project project = service.build_project(watch.request());
    uint64_t naming = 0, callers = 0;
    for (const std::string& key : watch.seeds().keys()) {
        const std::vector<SummaryDep>& deps = watch.seeds().find(key)->deps;
        if (std::none_of(deps.begin(), deps.end(), [&](const SummaryDep& dep) {
                return dep.kind == SummaryDep::Kind::kFile && dep.name == lib;
            }))
            continue;
        ++naming;
        callers += declaration_of(project, key)->file != lib;
    }

    service::WatchEditBatch batch;
    batch.upserts.push_back({lib, text});
    const service::WatchDelta delta = watch.edit(batch);
    ASSERT_TRUE(delta.ok) << delta.error;
    // Only those seeds are re-checked. The library's own functions miss the
    // pool (their file's hash moved); each caller's pool entry is walked
    // and refused. Every other function keeps its seed unwalked.
    EXPECT_GT(callers, 0u);
    EXPECT_EQ(delta.response.counters.cache_dep_walks, callers);
    EXPECT_LE(callers, naming);
    EXPECT_LT(naming * 4, project.all_functions().size());
    EXPECT_EQ(delta.response.summaries_invalidated, static_cast<int>(callers));
}

TEST(ObsObserverTest, DispatchOrderOnASmallProject) {
    php::Project project("demo");
    project.add_file("a.php", R"PHP(<?php
function render($x) { echo $x; }
render($_GET['q']);
)PHP");
    project.add_file("b.php", R"PHP(<?php
echo "static";
)PHP");
    DiagnosticSink sink;
    project.parse_all(sink);

    const Tool tool = make_phpsafe_tool();
    RecordingObserver observer;
    const AnalysisResult result = run_tool(tool, project, &observer);
    ASSERT_FALSE(result.findings.empty());

    // Files are visited in project order; the summary of render() and the
    // finding inside it land between a.php's begin and end events.
    const auto at = [&](const std::string& event) {
        for (size_t i = 0; i < observer.events.size(); ++i)
            if (observer.events[i] == event) return static_cast<int>(i);
        return -1;
    };
    ASSERT_GE(at("begin a.php"), 0) << ::testing::PrintToString(observer.events);
    ASSERT_GE(at("end a.php"), 0);
    ASSERT_GE(at("summary render"), 0);
    ASSERT_GE(at("finding echo"), 0);
    EXPECT_LT(at("begin a.php"), at("summary render"));
    EXPECT_LT(at("summary render"), at("end a.php"));
    EXPECT_LT(at("finding echo"), at("summary render"));
    EXPECT_LT(at("end a.php"), at("begin b.php"));
    EXPECT_LT(at("begin b.php"), at("end b.php"));
}

TEST(ObsObserverTest, ObserverIsOptionalAndDetachable) {
    php::Project project("demo");
    project.add_file("a.php", "<?php echo $_GET['q'];\n");
    DiagnosticSink sink;
    project.parse_all(sink);

    const Tool tool = make_phpsafe_tool();
    Engine engine(tool.kb, tool.options);
    EXPECT_EQ(engine.observer(), nullptr);
    const AnalysisResult without = engine.analyze(project);

    RecordingObserver observer;
    engine.set_observer(&observer);
    EXPECT_EQ(engine.observer(), &observer);
    const AnalysisResult with = engine.analyze(project);
    EXPECT_FALSE(observer.events.empty());

    engine.set_observer(nullptr);
    const size_t events_before = observer.events.size();
    const AnalysisResult detached = engine.analyze(project);
    EXPECT_EQ(observer.events.size(), events_before);

    EXPECT_EQ(without.findings.size(), with.findings.size());
    EXPECT_EQ(with.findings.size(), detached.findings.size());
}

/// Summaries the run computed after its last entry file ended: stage 3.
int summaries_after_last_file(const std::vector<std::string>& events) {
    size_t last_end = 0;
    for (size_t i = 0; i < events.size(); ++i)
        if (events[i].rfind("end ", 0) == 0 || events[i].rfind("fail ", 0) == 0)
            last_end = i;
    int count = 0;
    for (size_t i = last_end; i < events.size(); ++i)
        count += events[i].rfind("summary ", 0) == 0;
    return count;
}

TEST(ObsObserverTest, HermeticStageOneLeavesStageThreeNothing) {
    // m() is called, so stage 1 skips it, but on an unknown receiver with
    // two candidate classes, so no walk reaches it: only stage 3 does.
    php::Project project("demo");
    project.add_file("a.php", R"PHP(<?php
class A { function m($x) { echo $x; } }
class B { function m($x) { return $x; } }
$o = make_object();
$o->m($_GET['q']);
)PHP");
    DiagnosticSink sink;
    project.parse_all(sink);

    Tool tool = make_phpsafe_tool();
    RecordingObserver plain;
    Engine engine(tool.kb, tool.options);
    engine.set_observer(&plain);
    engine.analyze(project);
    EXPECT_EQ(summaries_after_last_file(plain.events), 2)
        << ::testing::PrintToString(plain.events);

    // Hermetic stage 1' summarizes every declaration up front.
    tool.options.hermetic_summaries = true;
    RecordingObserver hermetic;
    Engine hermetic_engine(tool.kb, tool.options);
    hermetic_engine.set_observer(&hermetic);
    const AnalysisResult result = hermetic_engine.analyze(project);
    EXPECT_EQ(summaries_after_last_file(hermetic.events), 0)
        << ::testing::PrintToString(hermetic.events);
    EXPECT_EQ(result.stats.functions_summarized, 2);
}

TEST(ObsObserverTest, RunToolFillsCountersFromTheRun) {
    php::Project project("demo");
    project.add_file("a.php", "<?php $q = $_GET['q']; echo $q;\n");
    DiagnosticSink sink;
    project.parse_all(sink);  // parsing happens before run_tool's delta

    const AnalysisResult result = run_tool(make_phpsafe_tool(), project);
    EXPECT_EQ(result.counters.tokens_lexed, 0u);  // parsed outside the run
    EXPECT_GT(result.counters.sink_checks, 0u);
    EXPECT_GT(result.counters.scope_lookups, 0u);
    EXPECT_EQ(result.counters.findings_xss,
              static_cast<uint64_t>(result.count(VulnKind::kXss)));
}

}  // namespace
}  // namespace phpsafe
