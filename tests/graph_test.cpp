// ProjectGraph tests: parse-time fact extraction, include/use linking,
// analytics (hubs, orphans, cycles, dead files, vendor dirs) on small
// PHP trees, JSON rendering, agreement with php::Project's resolution, and
// the monorepo generator's structural ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "graph/project_graph.h"
#include "php/project.h"
#include "util/diagnostics.h"
#include "util/strings.h"

namespace phpsafe::graph {
namespace {

using php::FileFacts;
using Sources = std::vector<std::pair<std::string, std::string>>;

/// A parsed project of the given (name, PHP source) files, in order.
php::Project parse(const Sources& files) {
    php::Project project("graph");
    for (const auto& [name, text] : files) project.add_file(name, text);
    DiagnosticSink sink;
    project.parse_all(sink);
    return project;
}

/// The graph of the given sources.
ProjectGraph graph_of(const Sources& files) {
    return build_project_graph(parse(files));
}

/// The declared names of `f`, lowercased, in declaration order: free
/// functions, "class::method"s or classes.
std::vector<std::string> free_functions(const FileFacts& f) {
    std::vector<std::string> out;
    for (const php::FunctionRef& ref : f.functions)
        if (!ref.owner) out.push_back(ascii_lower(ref.decl->name));
    return out;
}
std::vector<std::string> methods(const FileFacts& f) {
    std::vector<std::string> out;
    for (const php::FunctionRef& ref : f.functions)
        if (ref.owner) out.push_back(ascii_lower(ref.qualified_name()));
    return out;
}
std::vector<std::string> classes(const FileFacts& f) {
    std::vector<std::string> out;
    for (const php::ClassDecl* cls : f.classes) out.push_back(ascii_lower(cls->name));
    return out;
}

std::string name_of(const ProjectGraph& g, ProjectGraph::FileId id) {
    return std::string(g.file_name(id));
}

std::vector<std::string> names_of(const ProjectGraph& g,
                                  const std::vector<ProjectGraph::FileId>& ids) {
    std::vector<std::string> names;
    for (const auto id : ids) names.push_back(name_of(g, id));
    return names;
}

/// A parsed project of empty PHP files with the given names, in order.
php::Project empty_files(const std::vector<std::string>& names) {
    Sources files;
    for (const std::string& name : names) files.emplace_back(name, "<?php");
    return parse(files);
}

/// The file the engine's include resolution picks, or "<none>".
std::string engine_resolves(const php::Project& project, std::string_view path) {
    const php::ParsedFile* file = project.resolve_include(path);
    return file ? file->unit.file_name : std::string("<none>");
}

/// Asserts that every include edge of `g` is exactly what
/// Project::resolve_include makes of the file's include literals.
void expect_edges_match_engine(const php::Project& project) {
    const ProjectGraph g = build_project_graph(project);
    ASSERT_EQ(g.file_count(), static_cast<int>(project.files().size()));
    int edges = 0;
    for (const auto& parsed : project.files()) {
        const std::string& name = parsed->unit.file_name;
        std::set<std::string> expected;
        for (const std::string_view path : parsed->facts.includes)
            if (const php::ParsedFile* to = project.resolve_include(path))
                expected.insert(to->unit.file_name);
        const auto id = g.file_id(name);
        ASSERT_NE(id, ProjectGraph::kNoFile) << name;
        const std::vector<std::string> actual = names_of(g, g.includes_of(id));
        EXPECT_EQ(std::set<std::string>(actual.begin(), actual.end()), expected)
            << name;
        edges += static_cast<int>(actual.size());
    }
    EXPECT_EQ(edges, g.include_edge_count());
    EXPECT_GT(edges, 0);
}

bool is_self_reference(std::string_view cls) {
    return iequals(cls, "self") || iequals(cls, "static") || iequals(cls, "parent");
}

/// Asserts that every use edge of `g` is exactly what php::Project's own
/// tables make of the file's call keys and `extends` clauses: a called
/// function's first declaration, every class declaring a "::method", the
/// class of a "class::method" key, a parent class — and that the call keys
/// are the ones the engine's uncalled-function analysis reads.
void expect_uses_match_project(const php::Project& project) {
    const ProjectGraph g = build_project_graph(project);
    std::map<std::string, std::set<std::string>> method_files;
    for (const php::FunctionRef& ref : project.all_functions())
        if (ref.owner && !ref.owner->name.empty() && !ref.decl->name.empty())
            method_files[ascii_lower(ref.decl->name)].insert(std::string(ref.file));

    std::set<std::string_view> called_functions;
    std::set<std::string_view> called_methods;
    int edges = 0;
    for (const auto& parsed : project.files()) {
        const FileFacts& f = parsed->facts;
        const std::string& name = parsed->unit.file_name;
        called_functions.insert(f.called_functions.begin(), f.called_functions.end());
        called_methods.insert(f.called_methods.begin(), f.called_methods.end());
        std::set<std::string> expected;
        const auto use = [&](std::string_view file) {
            if (!file.empty() && file != name) expected.emplace(file);
        };
        for (const std::string_view fn : f.called_functions)
            if (const php::FunctionRef* ref = project.find_function(fn)) use(ref->file);
        for (const std::string_view key : f.called_methods) {
            const size_t sep = key.find("::");
            const std::string_view cls = key.substr(0, sep);
            if (!cls.empty()) {
                if (!is_self_reference(cls)) use(project.file_of_class(cls));
                continue;
            }
            const auto declarers = method_files.find(std::string(key.substr(sep + 2)));
            if (declarers == method_files.end()) continue;
            for (const std::string& file : declarers->second) use(file);
        }
        for (const php::ClassDecl* cls : f.classes)
            if (!cls->name.empty() && !cls->parent.empty() &&
                !is_self_reference(cls->parent))
                use(project.file_of_class(cls->parent));

        const auto id = g.file_id(name);
        ASSERT_NE(id, ProjectGraph::kNoFile) << name;
        const std::vector<std::string> actual = names_of(g, g.uses_of(id));
        EXPECT_EQ(std::set<std::string>(actual.begin(), actual.end()), expected)
            << name;
        edges += static_cast<int>(actual.size());
    }
    EXPECT_EQ(edges, g.use_edge_count());
    EXPECT_GT(edges, 0);
    EXPECT_EQ(std::vector<std::string_view>(called_functions.begin(),
                                            called_functions.end()),
              project.called_function_names());
    EXPECT_EQ(std::vector<std::string_view>(called_methods.begin(),
                                            called_methods.end()),
              project.called_method_names());
}

TEST(FileFactsTest, ExtractsDeclarationsCallsAndIncludes) {
    php::Project project("facts");
    project.add_file("a.php",
                     "<?php\n"
                     "include 'lib/b.php';\n"
                     "require_once dirname(__FILE__) . '/inc/c.php';\n"
                     "function top_level($x) { return other_fn($x); }\n"
                     "class Widget extends Base {\n"
                     "  function render() { $this->helper(); }\n"
                     "}\n"
                     "$w = new Widget();\n"
                     "Widget::boot();\n");
    DiagnosticSink sink;
    project.parse_all(sink);
    ASSERT_EQ(project.files().size(), 1u);

    const php::ParsedFile& file = *project.files().front();
    const FileFacts& f = file.facts;
    EXPECT_EQ(file.unit.file_name, "a.php");
    // Paths are sorted and de-duplicated at extraction.
    const std::vector<std::string> paths(f.includes.begin(), f.includes.end());
    // The concat idiom keeps its trailing literal for suffix resolution.
    EXPECT_EQ(paths, (std::vector<std::string>{"/inc/c.php", "lib/b.php"}));
    EXPECT_EQ(free_functions(f), (std::vector<std::string>{"top_level"}));
    EXPECT_EQ(classes(f), (std::vector<std::string>{"widget"}));
    EXPECT_EQ(methods(f), (std::vector<std::string>{"widget::render"}));
    EXPECT_TRUE(std::count(f.called_functions.begin(),
                           f.called_functions.end(), "other_fn"));
    EXPECT_TRUE(std::count(f.called_methods.begin(), f.called_methods.end(),
                           "::helper"));
    // new + extends + static call all count as class uses.
    EXPECT_TRUE(std::count(f.called_methods.begin(), f.called_methods.end(),
                           "widget::__construct"));
    EXPECT_TRUE(std::count(f.called_methods.begin(), f.called_methods.end(),
                           "widget::boot"));
    EXPECT_EQ(ascii_lower(f.classes.front()->parent), "base");
}

TEST(ProjectGraphTest, LinksIncludeAndUseEdges) {
    ProjectGraph g = graph_of({
        {"main.php", "<?php include 'lib/util.php'; helper();"},
        {"lib/util.php", "<?php function helper() {}"},
    });
    ASSERT_EQ(g.file_count(), 2);
    const auto main_id = g.file_id("main.php");
    const auto util_id = g.file_id("lib/util.php");
    ASSERT_NE(main_id, ProjectGraph::kNoFile);
    ASSERT_NE(util_id, ProjectGraph::kNoFile);

    EXPECT_EQ(g.includes_of(main_id),
              (std::vector<ProjectGraph::FileId>{util_id}));
    EXPECT_EQ(g.included_by(util_id),
              (std::vector<ProjectGraph::FileId>{main_id}));
    EXPECT_EQ(g.uses_of(main_id),
              (std::vector<ProjectGraph::FileId>{util_id}));
    EXPECT_EQ(g.used_by(util_id),
              (std::vector<ProjectGraph::FileId>{main_id}));
    EXPECT_EQ(g.include_edge_count(), 1);
    EXPECT_EQ(g.use_edge_count(), 1);

    ASSERT_EQ(g.function_count(), 1);
    EXPECT_EQ(g.function_name(0), "helper");
    EXPECT_EQ(g.declaring_file(0), util_id);
    EXPECT_EQ(g.functions_of(util_id), (std::vector<ProjectGraph::FuncId>{0}));
}

TEST(ProjectGraphTest, IncludeResolutionExactThenSuffixThenBasename) {
    ProjectGraph g = graph_of({
        {"a.php",
         "<?php include 'sub/x.php'; include '/deep/y.php'; include 'z.php';"},
        {"sub/x.php", "<?php"},
        {"nested/deep/y.php", "<?php"},
        {"elsewhere/z.php", "<?php"},
    });
    const auto edges = names_of(g, g.includes_of(g.file_id("a.php")));
    EXPECT_TRUE(std::count(edges.begin(), edges.end(), "sub/x.php"));
    EXPECT_TRUE(std::count(edges.begin(), edges.end(), "nested/deep/y.php"));
    EXPECT_TRUE(std::count(edges.begin(), edges.end(), "elsewhere/z.php"));

    // The engine resolves the same literals to the same files.
    const php::Project p = empty_files(
        {"a.php", "sub/x.php", "nested/deep/y.php", "elsewhere/z.php"});
    EXPECT_EQ(engine_resolves(p, "sub/x.php"), "sub/x.php");
    EXPECT_EQ(engine_resolves(p, "/deep/y.php"), "nested/deep/y.php");
    EXPECT_EQ(engine_resolves(p, "z.php"), "elsewhere/z.php");
}

TEST(ProjectGraphTest, SuffixMatchRespectsSegmentBoundary) {
    // "ab.php" ends with "b.php" but is NOT a path-segment match; the
    // basename fallback must pick the real b.php.
    ProjectGraph g = graph_of({{"a.php", "<?php include 'b.php';"},
                               {"ab.php", "<?php"},
                               {"lib/b.php", "<?php"}});
    const auto edges = names_of(g, g.includes_of(g.file_id("a.php")));
    EXPECT_EQ(edges, (std::vector<std::string>{"lib/b.php"}));

    // The engine applies the same boundary rule.
    EXPECT_EQ(engine_resolves(empty_files({"a.php", "ab.php", "lib/b.php"}),
                              "b.php"),
              "lib/b.php");
}

TEST(ProjectGraphTest, AnalyticsHubsOrphansDeadVendor) {
    ProjectGraph g = graph_of({
        {"vendor/core.php", "<?php function core_fn() {}"},
        {"one/main.php", "<?php include 'vendor/core.php';"},
        {"two/main.php", "<?php include 'vendor/core.php';"},
        {"one/unused/extra.php", "<?php"},
        {"three/main.php", "<?php"},  // entry basename: not orphan
        {"one/main.php.bak", "<?php"},
        {"index.php", "<?php"},  // top-level: not an orphan
    });
    const ProjectGraph::Analytics a = g.analyze();

    ASSERT_FALSE(a.hubs.empty());
    EXPECT_EQ(name_of(g, a.hubs.front().file), "vendor/core.php");
    EXPECT_EQ(a.hubs.front().fan_in, 2);
    EXPECT_EQ(names_of(g, a.orphans),
              (std::vector<std::string>{"one/unused/extra.php"}));
    EXPECT_EQ(names_of(g, a.dead_files),
              (std::vector<std::string>{"one/main.php.bak"}));
    EXPECT_EQ(a.vendor_dirs, (std::vector<std::string>{"vendor"}));
    EXPECT_TRUE(a.cycles.empty());
}

TEST(ProjectGraphTest, TarjanFindsCyclesAndSelfLoops) {
    ProjectGraph g = graph_of({
        {"cyc/a.php", "<?php include 'cyc/b.php';"},
        {"cyc/b.php", "<?php include 'cyc/c.php';"},
        {"cyc/c.php", "<?php include 'cyc/a.php';"},
        {"self.php", "<?php include 'self.php';"},
        {"straight.php", "<?php include 'cyc/a.php';"},
    });
    const ProjectGraph::Analytics out = g.analyze();
    ASSERT_EQ(out.cycles.size(), 2u);
    EXPECT_EQ(names_of(g, out.cycles[0]),
              (std::vector<std::string>{"cyc/a.php", "cyc/b.php",
                                        "cyc/c.php"}));
    EXPECT_EQ(names_of(g, out.cycles[1]),
              (std::vector<std::string>{"self.php"}));
}

TEST(ProjectGraphTest, DeepChainDoesNotOverflow) {
    // 20k-deep include chain: the iterative Tarjan must not recurse.
    Sources chain;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        std::string text = "<?php";
        if (i + 1 < n)
            text += " include 'chain/f" + std::to_string(i + 1) + ".php';";
        chain.emplace_back("chain/f" + std::to_string(i) + ".php", std::move(text));
    }
    ProjectGraph g = graph_of(chain);
    EXPECT_TRUE(g.analyze().cycles.empty());
}

TEST(ProjectGraphTest, ToJsonRendersHashesParseStateAndEdges) {
    // 250+ parse errors fail main.php after its include and call parsed.
    std::string failing = "<?php include 'lib/util.php'; helper(); ";
    for (int i = 0; i < 300; ++i) failing += "^^ ";
    const std::string util = "<?php function helper() {} function other() {}";
    const ProjectGraph g = graph_of({{"main.php", failing}, {"lib/util.php", util}});
    const auto hex = [](uint64_t value) {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(value));
        return std::string(buf);
    };
    EXPECT_EQ(g.to_json(),
              R"({"files":[{"name":"main.php","hash":")" +
                  hex(php::content_hash(failing)) +
                  R"(","failed":true},{"name":"lib/util.php","hash":")" +
                  hex(php::content_hash(util)) + R"(","failed":false}],)"
              R"("functions":[{"name":"helper","file":1},)"
              R"({"name":"other","file":1}],)"
              R"("includes":[[0,1]],"uses":[[0,1]]})");
}

TEST(ProjectGraphTest, CallbackRegistrationIsAUse) {
    // A handler registered by literal name is called (the engine's
    // uncalled-function analysis counts it), so the registering file uses
    // the declaring file even though nothing includes it.
    const ProjectGraph g = graph_of({
        {"a.php", "<?php add_action('init', 'h');"},
        {"inc/h.php", "<?php function h() {}"},
    });
    const auto a = g.file_id("a.php");
    const auto h = g.file_id("inc/h.php");
    EXPECT_EQ(g.uses_of(a), (std::vector<ProjectGraph::FileId>{h}));
    EXPECT_EQ(g.used_by(h), (std::vector<ProjectGraph::FileId>{a}));
    const std::vector<std::string> orphans = names_of(g, g.analyze().orphans);
    EXPECT_FALSE(std::count(orphans.begin(), orphans.end(), "inc/h.php"));
}

TEST(ProjectGraphTest, BuildFromParsedProject) {
    php::Project project("demo");
    project.add_file("main.php",
                     "<?php include 'lib.php'; echo fmt($_GET['q']);");
    project.add_file("lib.php",
                     "<?php function fmt($x) { return htmlentities($x); }");
    DiagnosticSink sink;
    project.parse_all(sink);

    const ProjectGraph g = build_project_graph(project);
    ASSERT_EQ(g.file_count(), 2);
    const auto main_id = g.file_id("main.php");
    const auto lib_id = g.file_id("lib.php");
    EXPECT_EQ(g.includes_of(main_id),
              (std::vector<ProjectGraph::FileId>{lib_id}));
    EXPECT_EQ(g.uses_of(main_id), (std::vector<ProjectGraph::FileId>{lib_id}));
}

TEST(MonorepoTest, IncludeEdgesAgreeWithEngineResolution) {
    // The graph and the engine share one resolver; this pins that they
    // cannot drift apart on a generated tree or on a corpus plugin.
    const corpus::MonorepoSource repo = corpus::generate_monorepo({1.0, 40, 2015});
    php::Project monorepo("monorepo");
    for (const auto& [name, text] : repo.files) monorepo.add_file(name, text);
    DiagnosticSink sink;
    monorepo.parse_all(sink);
    expect_edges_match_engine(monorepo);

    corpus::CorpusOptions options;
    options.num_plugins = 2;
    options.num_oop_plugins = 1;
    options.scale = 0.25;
    options.filler_lines_2012 = 2000;
    options.filler_lines_2014 = 4000;
    const corpus::Corpus corpus = corpus::generate_corpus(options);
    ASSERT_FALSE(corpus.plugins.empty());
    const corpus::GeneratedPlugin& plugin = corpus.plugins.front();
    expect_edges_match_engine(corpus::build_project(plugin, plugin.v2014, sink));
}

TEST(MonorepoTest, UseEdgesAgreeWithProjectCalls) {
    // The graph's use edges and the engine's uncalled-function analysis
    // read the same parse-time call keys; this pins that the graph links
    // them the way php::Project's tables resolve them.
    const corpus::MonorepoSource repo = corpus::generate_monorepo({1.0, 40, 2015});
    php::Project monorepo("monorepo");
    for (const auto& [name, text] : repo.files) monorepo.add_file(name, text);
    DiagnosticSink sink;
    monorepo.parse_all(sink);
    expect_uses_match_project(monorepo);

    corpus::CorpusOptions options;
    options.num_plugins = 2;
    options.num_oop_plugins = 1;
    options.scale = 0.25;
    options.filler_lines_2012 = 2000;
    options.filler_lines_2014 = 4000;
    const corpus::Corpus corpus = corpus::generate_corpus(options);
    ASSERT_FALSE(corpus.plugins.empty());
    const corpus::GeneratedPlugin& plugin = corpus.plugins.front();
    expect_uses_match_project(corpus::build_project(plugin, plugin.v2014, sink));
}

TEST(MonorepoTest, DeterministicAndScaled) {
    corpus::MonorepoOptions options;
    options.scale = 0.125;  // 4 plugins
    const corpus::MonorepoSource one = corpus::generate_monorepo(options);
    const corpus::MonorepoSource two = corpus::generate_monorepo(options);
    ASSERT_EQ(one.files.size(), two.files.size());
    for (size_t i = 0; i < one.files.size(); ++i) {
        EXPECT_EQ(one.files[i].first, two.files[i].first);
        EXPECT_EQ(one.files[i].second, two.files[i].second);
    }
    EXPECT_TRUE(std::is_sorted(one.files.begin(), one.files.end()));

    // files = plugins * files_per_plugin + framework (libs + core + cycle
    // + orphans) + 2 backups.
    const int plugins = 4;
    const int framework = 6 + 1 + 3 + 2;
    EXPECT_EQ(static_cast<int>(one.files.size()),
              plugins * options.files_per_plugin + framework + 2);
    EXPECT_FALSE(one.seeded_vulns.empty());

    const corpus::MonorepoSource big =
        corpus::generate_monorepo({1.0, 40, 2015});
    EXPECT_GT(big.files.size(), one.files.size());
}

TEST(MonorepoTest, GraphAnalyticsRecoverGroundTruth) {
    corpus::MonorepoOptions options;
    options.scale = 0.125;
    const corpus::MonorepoSource repo = corpus::generate_monorepo(options);

    std::vector<FileFacts> all;
    php::Project project("monorepo");
    for (const auto& [name, text] : repo.files) project.add_file(name, text);
    DiagnosticSink sink;
    project.parse_all(sink);
    ProjectGraph g = build_project_graph(project);
    const ProjectGraph::Analytics a = g.analyze();

    EXPECT_EQ(names_of(g, a.orphans), repo.truth.orphan_files);
    EXPECT_EQ(names_of(g, a.dead_files), repo.truth.backup_files);
    EXPECT_EQ(a.vendor_dirs, repo.truth.vendor_dirs);
    ASSERT_EQ(a.cycles.size(), repo.truth.include_cycles.size());
    for (size_t i = 0; i < a.cycles.size(); ++i)
        EXPECT_EQ(names_of(g, a.cycles[i]), repo.truth.include_cycles[i]);
    ASSERT_FALSE(a.hubs.empty());
    EXPECT_EQ(name_of(g, a.hubs.front().file), repo.truth.hub_files.front());

    // The hub is included by every plugin main plus the shipped backup.
    EXPECT_EQ(a.hubs.front().fan_in, 4 + 1);

    // Seeded vulns point at real files.
    for (const corpus::SeededVuln& vuln : repo.seeded_vulns)
        EXPECT_NE(g.file_id(vuln.file), ProjectGraph::kNoFile) << vuln.file;
}

}  // namespace
}  // namespace phpsafe::graph
