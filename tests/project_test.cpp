// Project-model tests (paper §III.B model construction): declaration
// indexing (including declarations nested in guards), called-function
// tracking, uncalled-function detection, include resolution.
#include <gtest/gtest.h>

#include "php/project.h"

namespace phpsafe::php {
namespace {

Project make_project(std::vector<std::pair<std::string, std::string>> files) {
    Project project("test");
    for (auto& [name, text] : files) project.add_file(name, std::move(text));
    DiagnosticSink sink;
    project.parse_all(sink);
    return project;
}

TEST(ProjectTest, IndexesTopLevelFunctions) {
    const Project p = make_project({{"a.php", "<?php function foo() {} "}});
    ASSERT_NE(p.find_function("foo"), nullptr);
    EXPECT_EQ(p.find_function("foo")->file, "a.php");
    EXPECT_EQ(p.find_function("bar"), nullptr);
}

TEST(ProjectTest, FunctionLookupCaseInsensitive) {
    const Project p = make_project({{"a.php", "<?php function MyFunc() {} "}});
    EXPECT_NE(p.find_function("myfunc"), nullptr);
    EXPECT_NE(p.find_function("MYFUNC"), nullptr);
}

TEST(ProjectTest, IndexesGuardedDeclarations) {
    // The common WordPress idiom: if (!function_exists(...)) { function ... }
    const Project p = make_project(
        {{"a.php",
          "<?php if (!function_exists('helper')) { function helper($x) "
          "{ return $x; } }"}});
    EXPECT_NE(p.find_function("helper"), nullptr);
}

TEST(ProjectTest, IndexesClassesAndMethods) {
    const Project p = make_project(
        {{"a.php",
          "<?php class Widget { public function render() {} "
          "public static function boot() {} }"}});
    ASSERT_NE(p.find_class("Widget"), nullptr);
    ASSERT_NE(p.find_method("widget", "render"), nullptr);
    EXPECT_EQ(p.find_method("widget", "render")->owner->name, "Widget");
    EXPECT_NE(p.find_method("Widget", "BOOT"), nullptr);
}

TEST(ProjectTest, MethodLookupWalksInheritance) {
    const Project p = make_project(
        {{"a.php",
          "<?php class Base { public function hello() {} }\n"
          "class Child extends Base {}"}});
    const FunctionRef* ref = p.find_method("child", "hello");
    ASSERT_NE(ref, nullptr);
    EXPECT_EQ(ref->owner->name, "Base");
}

TEST(ProjectTest, FindMethodAnyRequiresUniqueness) {
    const Project p = make_project(
        {{"a.php",
          "<?php class A { public function unique_m() {} public function dup() {} }\n"
          "class B { public function dup() {} }"}});
    EXPECT_NE(p.find_method_any("unique_m"), nullptr);
    EXPECT_EQ(p.find_method_any("dup"), nullptr);  // ambiguous
}

TEST(ProjectTest, UncalledFunctionsDetected) {
    const Project p = make_project(
        {{"a.php",
          "<?php function used() {} function unused() {} used();"}});
    const auto uncalled = p.uncalled_functions();
    ASSERT_EQ(uncalled.size(), 1u);
    EXPECT_EQ(uncalled[0].decl->name, "unused");
}

TEST(ProjectTest, HookCallbacksCountAsCalled) {
    // add_action('init', 'my_handler') keeps my_handler reachable.
    const Project p = make_project(
        {{"a.php",
          "<?php function my_handler() {} add_action('init', 'my_handler');"}});
    EXPECT_TRUE(p.uncalled_functions().empty());
}

TEST(ProjectTest, MethodsCalledAnywhereAreCalled) {
    const Project p = make_project(
        {{"a.php",
          "<?php class W { public function go() {} public function idle() {} }\n"
          "$w = new W(); $w->go();"}});
    const auto uncalled = p.uncalled_functions();
    ASSERT_EQ(uncalled.size(), 1u);
    EXPECT_EQ(uncalled[0].qualified_name(), "W::idle");
}

TEST(ProjectTest, ConstructorNotUncalled) {
    const Project p = make_project(
        {{"a.php",
          "<?php class W { public function __construct() {} }\n$w = new W();"}});
    EXPECT_TRUE(p.uncalled_functions().empty());
}

TEST(ProjectTest, IncludeResolutionByExactSuffixBasename) {
    const Project p = make_project({
        {"main.php", "<?php"},
        {"includes/helpers.php", "<?php"},
        {"admin/panel.php", "<?php"},
    });
    ASSERT_NE(p.resolve_include("includes/helpers.php"), nullptr);
    ASSERT_NE(p.resolve_include("helpers.php"), nullptr);
    EXPECT_EQ(p.resolve_include("helpers.php")->source->name(),
              "includes/helpers.php");
    ASSERT_NE(p.resolve_include("./admin/panel.php"), nullptr);
    EXPECT_EQ(p.resolve_include("missing.php"), nullptr);
    EXPECT_EQ(p.resolve_include(""), nullptr);
    EXPECT_EQ(p.resolve_include("./"), nullptr);

    const auto resolved = [](const Project& project, std::string_view path) {
        const ParsedFile* file = project.resolve_include(path);
        return file ? file->unit.file_name : std::string("<none>");
    };
    // A suffix match starts on a path-segment boundary: "ab.php" ends with
    // "b.php" but is another file, so the basename match lib/b.php wins.
    EXPECT_EQ(resolved(make_project({{"ab.php", "<?php"},
                                     {"lib/b.php", "<?php"}}),
                       "b.php"),
              "lib/b.php");
    // The same rule one directory up: "xlib/b.php" does not end in the
    // segment "lib/b.php".
    EXPECT_EQ(resolved(make_project({{"xlib/b.php", "<?php"},
                                     {"lib/b.php", "<?php"}}),
                       "lib/b.php"),
              "lib/b.php");
    // The `dirname(__FILE__) . '/x.php'` idiom: a leading '/' is its own
    // boundary.
    EXPECT_EQ(resolved(make_project({{"main.php", "<?php"},
                                     {"inc/x.php", "<?php"}}),
                       "/inc/x.php"),
              "inc/x.php");
    // A duplicated name resolves (and looks up) to the first file.
    const Project dup = make_project({{"a.php", "<?php $first = 1;"},
                                      {"a.php", "<?php $second = 2;"}});
    ASSERT_NE(dup.resolve_include("a.php"), nullptr);
    EXPECT_EQ(dup.resolve_include("a.php"), dup.files()[0].get());
    EXPECT_EQ(dup.file_named("a.php"), dup.files()[0].get());
}

TEST(ProjectTest, ForkResolvesAfterOriginalIsDestroyed) {
    // The fork's file index must view the fork's own files: the
    // replacement ParsedFile owns a new name string, and nothing may point
    // into the original project's copy once the original is gone.
    std::optional<Project> fork;
    {
        const Project original = make_project({
            {"main.php", "<?php include 'inc/lib.php';"},
            {"inc/lib.php", "<?php function lib() {}"},
        });
        DiagnosticSink sink;
        fork = original.fork_with_replacement(
            "inc/lib.php", "<?php function lib2() {}", sink);
        ASSERT_TRUE(fork.has_value());
    }
    const ParsedFile* lib = fork->file_named("inc/lib.php");
    ASSERT_NE(lib, nullptr);
    EXPECT_EQ(lib, fork->files()[1].get());
    EXPECT_NE(fork->find_function("lib2"), nullptr);
    EXPECT_EQ(fork->resolve_include("lib.php"), lib);
    EXPECT_EQ(fork->resolve_include("./inc/lib.php"), lib);
    EXPECT_EQ(fork->resolve_include("main.php"), fork->file_named("main.php"));
    EXPECT_EQ(fork->file_named("missing.php"), nullptr);
}

TEST(ProjectTest, TotalLines) {
    const Project p = make_project({
        {"a.php", "<?php\n$a = 1;\n"},
        {"b.php", "<?php\n$b = 2;\n$c = 3;\n"},
    });
    EXPECT_EQ(p.total_lines(), 5);
}

TEST(ProjectTest, QualifiedNames) {
    const Project p = make_project(
        {{"a.php",
          "<?php function free_fn() {} class C { public function m() {} }"}});
    EXPECT_EQ(p.find_function("free_fn")->qualified_name(), "free_fn");
    EXPECT_EQ(p.find_method("c", "m")->qualified_name(), "C::m");
}

TEST(ProjectTest, AllFunctionsListsEverything) {
    const Project p = make_project(
        {{"a.php",
          "<?php function f1() {} class C { public function m1() {} "
          "public function m2() {} }"}});
    EXPECT_EQ(p.all_functions().size(), 3u);
}

TEST(ProjectTest, ParseFailureFlagged) {
    Project project("bad");
    // 250+ parse errors trigger the robustness abort.
    std::string garbage = "<?php ";
    for (int i = 0; i < 300; ++i) garbage += "^^ ";
    project.add_file("bad.php", garbage);
    DiagnosticSink sink;
    project.parse_all(sink);
    ASSERT_EQ(project.files().size(), 1u);
    EXPECT_TRUE(project.files()[0]->parse_failed);
}

// A file's arena starts with a block sized from its source, so a small
// file's model is not one 64 KiB block that is almost all untouched tail.
TEST(ProjectTest, SmallFileModelFitsOneSmallArenaBlock) {
    const std::string code = "<?php function f($a) { echo $a; } f($_GET['x']);";
    const Project p = make_project({{"a.php", code}});
    const Arena& arena = p.files()[0]->arena;
    EXPECT_EQ(arena.block_count(), 1u);
    EXPECT_LE(arena.bytes_reserved(), code.size() * 8 + 1024);
    EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

// Two project entries may share a name. Only the entry whose own parse
// aborted is flagged; the name-based rule this replaced flagged both, and
// flagged a clean replacement parsed into a sink that still held the old
// file's fatal.
TEST(ProjectTest, ParseFailureFlagsOnlyTheEntryThatAborted) {
    std::string garbage = "<?php ";
    for (int i = 0; i < 300; ++i) garbage += "^^ ";
    Project project("dup");
    project.add_file("dup.php", garbage);
    project.add_file("dup.php", "<?php echo 1;");
    DiagnosticSink sink;
    project.parse_all(sink);
    ASSERT_EQ(project.files().size(), 2u);
    EXPECT_TRUE(project.files()[0]->parse_failed);
    EXPECT_FALSE(project.files()[1]->parse_failed);

    Project single("fix");
    single.add_file("bad.php", garbage);
    single.parse_all(sink);
    ASSERT_TRUE(single.files()[0]->parse_failed);
    const std::optional<Project> fixed =
        single.fork_with_replacement("bad.php", "<?php echo 2;", sink);
    ASSERT_TRUE(fixed.has_value());
    EXPECT_FALSE(fixed->files()[0]->parse_failed);
}

}  // namespace
}  // namespace phpsafe::php
