#include "php/project.h"

#include <algorithm>

#include "obs/counters.h"
#include "php/parser.h"
#include "php/walk.h"
#include "util/strings.h"
#include "util/timing.h"

namespace phpsafe::php {

uint64_t content_hash(std::string_view text) noexcept { return fnv1a64(text); }

std::string FunctionRef::qualified_name() const {
    if (!decl) return "<null>";
    if (owner) {
        std::string out(owner->name);
        out += "::";
        out += decl->name;
        return out;
    }
    return std::string(decl->name);
}

void Project::add_file(std::string file_name, std::string text) {
    PendingFile pending;
    pending.slot = files_.size();
    pending.name = std::move(file_name);
    pending.text = std::move(text);
    files_.push_back(nullptr);  // placeholder; parse_all() fills it
    pending_.push_back(std::move(pending));
}

void Project::add_parsed(std::shared_ptr<const ParsedFile> file) {
    ++build_stats_.files_reused;
    files_.push_back(std::move(file));
}

namespace {

/// The trailing string literal of an include path expression, if any:
/// handles plain literals and the `dirname(__FILE__) . '/x.php'` /
/// `PLUGIN_DIR . 'inc/x.php'` concat idioms by descending the right spine.
std::string_view include_literal(const Expr* path) {
    while (path && path->kind == NodeKind::kBinary) {
        const auto& binary = static_cast<const Binary&>(*path);
        if (binary.op != BinaryOp::kConcat) return {};
        path = binary.rhs;
    }
    if (!path || path->kind != NodeKind::kLiteral) return {};
    const auto& literal = static_cast<const Literal&>(*path);
    if (literal.type != Literal::Type::kString) return {};
    return literal.value;
}

/// Collects one file's FileFacts in a single pre-order walk. Called names
/// are folded back to back into one scratch buffer and de-duplicated before
/// anything is copied into the file's arena, so the arena holds each key
/// once. The scratch buffers are reused from file to file (one collector
/// per thread), so in steady state the walk allocates nothing on the heap.
class FactsCollector {
public:
    FileFacts collect(const FileUnit& unit, Arena& arena) {
        file_ = unit.file_name;
        methods_.clear();
        free_functions_.clear();
        classes_.clear();
        includes_.clear();
        keys_.clear();
        function_keys_.clear();
        method_keys_.clear();
        const ExprVisitor on_expr = [this](const Expr& e) { visit(e); };
        const StmtVisitor on_stmt = [this](const Stmt& s) { visit(s); };
        for (const StmtPtr& s : unit.statements)
            if (s) walk_stmt(*s, on_expr, on_stmt);

        FileFacts facts;
        methods_.insert(methods_.end(), free_functions_.begin(),
                        free_functions_.end());
        facts.functions = copy_to(arena, methods_);
        facts.classes = copy_to(arena, classes_);
        facts.called_functions = store_keys(arena, function_keys_);
        facts.called_methods = store_keys(arena, method_keys_);
        std::sort(includes_.begin(), includes_.end());
        includes_.erase(std::unique(includes_.begin(), includes_.end()),
                        includes_.end());
        facts.includes = copy_to(arena, includes_);
        return facts;
    }

private:
    using Span = std::pair<size_t, size_t>;  ///< (offset, length) in keys_

    /// An exactly-sized arena copy (growing in place would strand the
    /// outgrown buffers in the arena).
    template <typename T>
    static ArenaVector<T> copy_to(Arena& arena, const std::vector<T>& from) {
        ArenaVector<T> out{ArenaAllocator<T>(&arena)};
        out.reserve(from.size());
        out.assign(from.begin(), from.end());
        return out;
    }

    ArenaVector<std::string_view> store_keys(Arena& arena,
                                             const std::vector<Span>& spans) {
        std::vector<std::string_view>& keys = sorted_keys_;
        keys.clear();
        for (const auto& [offset, length] : spans)
            keys.push_back(std::string_view(keys_).substr(offset, length));
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        for (std::string_view& key : keys) key = arena.store(key);
        return copy_to(arena, keys);
    }

    void visit(const Stmt& s) {
        if (s.kind == NodeKind::kClassDecl) {
            const auto& cls = static_cast<const ClassDecl&>(s);
            classes_.push_back(&cls);
            for (const FunctionDecl* method : cls.methods)
                methods_.push_back(FunctionRef{method, &cls, file_});
        } else if (s.kind == NodeKind::kFunctionDecl) {
            // walk_stmt also visits method FunctionDecls; the parser marks
            // those with is_method.
            const auto& fn = static_cast<const FunctionDecl&>(s);
            if (!fn.is_method)
                free_functions_.push_back(FunctionRef{&fn, nullptr, file_});
        }
    }

    void visit(const Expr& e) {
        switch (e.kind) {
            case NodeKind::kFunctionCall: {
                const auto& call = static_cast<const FunctionCall&>(e);
                if (!call.name.empty()) note_function(call.name);
                // Callback registration APIs make the named function
                // "called": add_action('init', 'my_handler') etc. keep
                // handlers reachable.
                static const char* kCallbackApis[] = {
                    "add_action", "add_filter", "register_activation_hook",
                    "register_deactivation_hook", "add_shortcode",
                    "call_user_func", "call_user_func_array", "array_map",
                    "array_filter", "usort",
                };
                for (const char* api : kCallbackApis) {
                    if (!iequals(call.name, api)) continue;
                    for (const Argument& arg : call.args) {
                        if (!arg.value) continue;
                        if (arg.value->kind == NodeKind::kLiteral) {
                            const auto& lit = static_cast<const Literal&>(*arg.value);
                            if (lit.type == Literal::Type::kString &&
                                !lit.value.empty())
                                note_function(lit.value);
                        }
                        // array($obj, 'method') / array('Class', 'method')
                        if (arg.value->kind == NodeKind::kArrayLiteral) {
                            const auto& arr =
                                static_cast<const ArrayLiteral&>(*arg.value);
                            if (arr.items.size() == 2 && arr.items[1].value &&
                                arr.items[1].value->kind == NodeKind::kLiteral) {
                                const auto& lit =
                                    static_cast<const Literal&>(*arr.items[1].value);
                                if (lit.type == Literal::Type::kString)
                                    note_method("", lit.value);
                            }
                        }
                    }
                }
                break;
            }
            case NodeKind::kMethodCall: {
                const auto& call = static_cast<const MethodCall&>(e);
                if (!call.method.empty()) note_method("", call.method);
                break;
            }
            case NodeKind::kStaticCall: {
                const auto& call = static_cast<const StaticCall&>(e);
                note_method(call.class_name, call.method);
                note_method("", call.method);
                break;
            }
            case NodeKind::kNew: {
                const auto& n = static_cast<const New&>(e);
                if (!n.class_name.empty()) note_method(n.class_name, "__construct");
                break;
            }
            case NodeKind::kIncludeExpr: {
                const std::string_view path =
                    include_literal(static_cast<const IncludeExpr&>(e).path);
                if (!path.empty()) includes_.push_back(path);
                break;
            }
            default:
                break;
        }
    }

    void note_function(std::string_view name) {
        const size_t offset = keys_.size();
        append_folded(keys_, name);
        function_keys_.emplace_back(offset, keys_.size() - offset);
    }

    void note_method(std::string_view class_name, std::string_view method) {
        const size_t offset = keys_.size();
        append_folded(keys_, class_name);
        keys_ += "::";
        append_folded(keys_, method);
        method_keys_.emplace_back(offset, keys_.size() - offset);
    }

    std::string_view file_;
    std::vector<FunctionRef> methods_;  ///< then the free functions, appended
    std::vector<FunctionRef> free_functions_;
    std::vector<const ClassDecl*> classes_;
    std::vector<std::string_view> includes_;
    std::string keys_;
    std::vector<Span> function_keys_;
    std::vector<Span> method_keys_;
    std::vector<std::string_view> sorted_keys_;
};

}  // namespace

std::shared_ptr<const ParsedFile> Project::parse_file(std::string name,
                                                      std::string text,
                                                      DiagnosticSink& sink,
                                                      double& lex_seconds) {
    auto pf = std::make_shared<ParsedFile>();
    // A model takes 5-6 arena bytes per source byte (4.7 on the corpus, 6.1
    // on the monorepo, 8.7 at most), so this first block holds nearly every
    // file's model whole, and a 100-byte file does not pin a 64 KiB block.
    pf->arena = Arena(text.size() * 8 + 1024);
    pf->content_hash = content_hash(text);
    pf->text_bytes = text.size();
    pf->source = std::make_unique<SourceFile>(name, std::move(text));
    const obs::CounterDelta delta;
    const int fatals_before = sink.fatal_count();
    Parser parser(*pf->source, pf->arena, sink);
    pf->unit = parser.parse();
    pf->ast_nodes = delta.take().ast_nodes;
    static thread_local FactsCollector collector;
    pf->facts = collector.collect(pf->unit, pf->arena);
    lex_seconds += parser.lex_cpu_seconds();
    ++obs::tls().files_parsed;
    obs::tls().alloc_arena_bytes += pf->arena.bytes_allocated();
    obs::tls().alloc_arena_blocks += pf->arena.block_count();
    obs::tls().alloc_string_bytes += pf->arena.string_bytes();
    // Every fatal raised while this file parsed is this file's: the parser
    // and its interpolated-expression sub-parses report under its name.
    pf->parse_failed = sink.fatal_count() > fatals_before;
    return pf;
}

void Project::parse_all(DiagnosticSink& sink) {
    const double build_start = thread_cpu_seconds();
    double lex_seconds = 0;
    for (PendingFile& pending : pending_) {
        files_[pending.slot] = parse_file(std::move(pending.name),
                                          std::move(pending.text), sink,
                                          lex_seconds);
    }
    pending_.clear();
    index();

    // Stage attribution: lex time is measured inside the parser; everything
    // else in this call (parsing proper, the facts walk and the tables)
    // counts as the parse stage of model construction.
    build_stats_.lex_cpu_seconds += lex_seconds;
    build_stats_.parse_cpu_seconds +=
        thread_cpu_seconds() - build_start - lex_seconds;
}

std::optional<Project> Project::fork_with_replacement(
    std::string_view file_name, std::string text, DiagnosticSink& sink) const {
    const FileIndex::Id slot = file_index_.find(file_name);
    if (slot == FileIndex::kNone || !pending_.empty()) return std::nullopt;

    Project fork(name_);
    const double build_start = thread_cpu_seconds();
    double lex_seconds = 0;
    fork.files_ = files_;
    fork.files_[slot] =
        parse_file(std::string(file_name), std::move(text), sink, lex_seconds);
    // Rebuilt, not copied: the replacement owns a new name string, and the
    // fork must not keep a view into the ParsedFile it replaced.
    fork.index();
    fork.build_stats_.files_reused = static_cast<int>(files_.size()) - 1;
    fork.build_stats_.lex_cpu_seconds = lex_seconds;
    fork.build_stats_.parse_cpu_seconds =
        thread_cpu_seconds() - build_start - lex_seconds;
    return fork;
}

int Project::total_lines() const noexcept {
    int total = 0;
    for (const auto& pf : files_) total += pf->source->line_count();
    return total;
}

void Project::index() {
    functions_.clear();
    classes_.clear();
    class_files_.clear();
    methods_.clear();
    function_list_.clear();
    called_functions_.clear();
    called_methods_.clear();
    std::vector<std::string_view> names;
    names.reserve(files_.size());
    for (const auto& pf : files_) {
        names.emplace_back(pf->unit.file_name);
        const FileFacts& facts = pf->facts;
        for (const FunctionRef& ref : facts.functions) {
            if (ref.owner)
                methods_.emplace(MethodKey{ref.owner->name, ref.decl->name}, ref);
            else
                functions_.emplace(ref.decl->name, ref);
        }
        function_list_.insert(function_list_.end(), facts.functions.begin(),
                              facts.functions.end());
        for (const ClassDecl* cls : facts.classes) {
            classes_.emplace(cls->name, cls);
            class_files_.emplace(cls->name, &pf->unit.file_name);
        }
        called_functions_.insert(called_functions_.end(),
                                 facts.called_functions.begin(),
                                 facts.called_functions.end());
        called_methods_.insert(called_methods_.end(),
                               facts.called_methods.begin(),
                               facts.called_methods.end());
    }
    file_index_ = FileIndex(std::move(names));
    for (std::vector<std::string_view>* keys :
         {&called_functions_, &called_methods_}) {
        std::sort(keys->begin(), keys->end());
        keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
    }

    const auto called = [](const std::vector<std::string_view>& keys,
                           std::string_view key) {
        return std::binary_search(keys.begin(), keys.end(), key);
    };
    uncalled_.clear();
    std::string key;
    for (const FunctionRef& ref : function_list_) {
        key.clear();
        if (!ref.owner) {
            append_folded(key, ref.decl->name);
            if (!called(called_functions_, key)) uncalled_.push_back(ref);
            continue;
        }
        if (iequals(ref.decl->name, "__construct")) continue;  // run via `new`
        append_folded(key, ref.owner->name);
        const size_t bare = key.size();  // key.substr(bare) is "::method"
        key += "::";
        append_folded(key, ref.decl->name);
        if (!called(called_methods_, key) &&
            !called(called_methods_, std::string_view(key).substr(bare)))
            uncalled_.push_back(ref);
    }
}

const FunctionRef* Project::find_function(std::string_view name) const {
    const auto it = functions_.find(name);  // transparent folded compare
    return it == functions_.end() ? nullptr : &it->second;
}

const ClassDecl* Project::find_class(std::string_view name) const {
    const auto it = classes_.find(name);
    return it == classes_.end() ? nullptr : it->second;
}

const std::string& Project::file_of_class(std::string_view class_name) const {
    static const std::string kEmpty;
    const auto it = class_files_.find(class_name);
    return it == class_files_.end() ? kEmpty : *it->second;
}

const FunctionRef* Project::find_method(std::string_view class_name,
                                        std::string_view method_name) const {
    std::string_view cls = class_name;
    // Walk the inheritance chain (single inheritance, as in PHP). The
    // composite key probes case-preserving; MethodKeyLess folds per part.
    for (int depth = 0; depth < 16; ++depth) {
        const auto it = methods_.find(MethodKey{cls, method_name});
        if (it != methods_.end()) return &it->second;
        const auto cit = classes_.find(cls);
        if (cit == classes_.end() || cit->second->parent.empty()) return nullptr;
        cls = cit->second->parent;
    }
    return nullptr;
}

const FunctionRef* Project::find_method_any(std::string_view method_name) const {
    const FunctionRef* found = nullptr;
    for (const auto& [key, ref] : methods_) {
        if (folded_compare(key.method, method_name) != 0) continue;
        if (found) return nullptr;  // ambiguous
        found = &ref;
    }
    return found;
}

}  // namespace phpsafe::php
