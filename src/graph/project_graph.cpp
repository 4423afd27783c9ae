#include "graph/project_graph.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/json_writer.h"
#include "util/strings.h"

namespace phpsafe::graph {

namespace {

template <typename T>
void sort_unique(std::vector<T>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

bool is_self_reference(std::string_view class_name) {
    return iequals(class_name, "self") || iequals(class_name, "static") ||
           iequals(class_name, "parent");
}

std::string_view top_dir_of(std::string_view path) {
    const size_t slash = path.find('/');
    return slash == std::string_view::npos ? std::string_view() : path.substr(0, slash);
}

std::string hex64(uint64_t value) {
    char buf[17];
    for (int i = 15; i >= 0; --i) {
        buf[i] = "0123456789abcdef"[value & 0xf];
        value >>= 4;
    }
    buf[16] = '\0';
    return std::string(buf);
}

/// Backup/leftover file names an audit should flag: shipped backups of PHP
/// files are live code on a real server.
bool is_dead_name(std::string_view name) {
    if (ends_with(name, "~") || ends_with(name, ".bak") ||
        ends_with(name, ".old") || ends_with(name, ".orig"))
        return true;
    const std::string_view base = php::basename_of(name);
    return base.size() >= 8 && iequals(base.substr(0, 8), "copy of ");
}

constexpr std::string_view kVendorDirNames[] = {
    "external", "framework", "lib", "libs", "node_modules",
    "third-party", "thirdparty", "vendor",
};

}  // namespace

std::string_view ProjectGraph::intern(std::string_view s) {
    return names_.store(s);
}

void ProjectGraph::index_files() {
    std::vector<std::string_view> names;
    names.reserve(files_.size());
    for (const FileNode& node : files_) names.push_back(node.name);
    file_index_ = php::FileIndex(std::move(names));
}

void ProjectGraph::finish_edges() {
    include_edges_ = 0;
    use_edges_ = 0;
    for (FileNode& node : files_) {
        sort_unique(node.includes);
        sort_unique(node.uses);
        node.included_by.clear();
        node.used_by.clear();
    }
    for (size_t from = 0; from < files_.size(); ++from) {
        for (const FileId to : files_[from].includes)
            files_[static_cast<size_t>(to)].included_by.push_back(
                static_cast<FileId>(from));
        for (const FileId to : files_[from].uses)
            files_[static_cast<size_t>(to)].used_by.push_back(
                static_cast<FileId>(from));
        include_edges_ += static_cast<int>(files_[from].includes.size());
        use_edges_ += static_cast<int>(files_[from].uses.size());
    }
}

ProjectGraph ProjectGraph::build(
    const std::vector<std::shared_ptr<const php::ParsedFile>>& files) {
    ProjectGraph g;
    g.files_.reserve(files.size());

    // Pass 1: file nodes, function nodes and declaration indexes. First
    // declaration wins for functions and classes (php::Project keeps the
    // first emplace); method names index every declaring file. Every name
    // is folded once, into the graph's arena, so the indexes compare plain
    // bytes against the folded call keys.
    std::map<std::string_view, FileId> function_file;
    std::map<std::string_view, FileId> class_file;
    std::map<std::string_view, std::vector<FileId>> method_files;
    std::string folded;
    const auto fold = [&folded](std::string_view cls, std::string_view name)
        -> const std::string& {
        folded.clear();
        if (!cls.empty()) {
            append_folded(folded, cls);
            folded += "::";
        }
        append_folded(folded, name);
        return folded;
    };
    std::vector<std::string_view> names;
    const auto add_functions = [&](FileId id) {
        sort_unique(names);
        for (const std::string_view name : names) {
            g.files_.back().functions.push_back(
                static_cast<FuncId>(g.functions_.size()));
            g.functions_.push_back({name, id});
        }
    };
    for (const auto& file : files) {
        const php::FileFacts& facts = file->facts;
        const FileId id = static_cast<FileId>(g.files_.size());
        FileNode node;
        node.name = g.intern(file->unit.file_name);
        node.hash = file->content_hash;
        node.parse_failed = file->parse_failed;
        g.files_.push_back(std::move(node));

        names.clear();
        for (const php::FunctionRef& ref : facts.functions)
            if (!ref.owner && !ref.decl->name.empty())
                names.push_back(g.intern(fold({}, ref.decl->name)));
        add_functions(id);
        for (const std::string_view name : names) function_file.emplace(name, id);
        names.clear();
        for (const php::FunctionRef& ref : facts.functions)
            if (ref.owner && !ref.owner->name.empty() && !ref.decl->name.empty())
                names.push_back(g.intern(fold(ref.owner->name, ref.decl->name)));
        add_functions(id);
        for (const std::string_view name : names)
            method_files[name.substr(name.find("::") + 2)].push_back(id);
        for (const php::ClassDecl* cls : facts.classes)
            if (!cls->name.empty())
                class_file.emplace(g.intern(fold({}, cls->name)), id);
    }

    // Pass 2: edges. Include paths resolve through the same php::FileIndex
    // rules as Project::resolve_include; uses come from the call keys the
    // engine's uncalled-function analysis reads.
    g.index_files();
    for (size_t i = 0; i < files.size(); ++i) {
        const php::FileFacts& facts = files[i]->facts;
        const FileId from = static_cast<FileId>(i);
        FileNode& node = g.files_[i];
        for (const std::string_view path : facts.includes) {
            const FileId to = g.file_index_.resolve(path);
            if (to != kNoFile) node.includes.push_back(to);
        }
        const auto link_use = [&](const FileId to) {
            if (to != from) node.uses.push_back(to);
        };
        const auto use_declarer = [&](const std::map<std::string_view, FileId>&
                                          declared,
                                      std::string_view name) {
            const auto it = declared.find(name);
            if (it != declared.end()) link_use(it->second);
        };
        for (const std::string_view fn : facts.called_functions)
            use_declarer(function_file, fn);
        for (const std::string_view key : facts.called_methods) {
            const size_t sep = key.find("::");
            const std::string_view cls = key.substr(0, sep);
            if (!cls.empty()) {
                if (!is_self_reference(cls)) use_declarer(class_file, cls);
                continue;
            }
            const auto it = method_files.find(key.substr(sep + 2));
            if (it == method_files.end()) continue;
            for (const FileId to : it->second) link_use(to);
        }
        for (const php::ClassDecl* cls : facts.classes)
            if (!cls->name.empty() && !cls->parent.empty() &&
                !is_self_reference(cls->parent))
                use_declarer(class_file, fold({}, cls->parent));
    }

    g.finish_edges();
    return g;
}

ProjectGraph::Analytics ProjectGraph::analyze(int hub_limit) const {
    Analytics a;
    const size_t n = files_.size();
    const auto name_less = [this](FileId lhs, FileId rhs) {
        return file_name(lhs) < file_name(rhs);
    };

    // Hubs: top fan-in, name tie-break.
    std::vector<Hub> ranked;
    for (size_t i = 0; i < n; ++i) {
        const int fan_in = static_cast<int>(files_[i].included_by.size());
        if (fan_in > 0) ranked.push_back({static_cast<FileId>(i), fan_in});
    }
    std::sort(ranked.begin(), ranked.end(), [&](const Hub& lhs, const Hub& rhs) {
        if (lhs.fan_in != rhs.fan_in) return lhs.fan_in > rhs.fan_in;
        return name_less(lhs.file, rhs.file);
    });
    if (hub_limit >= 0 && ranked.size() > static_cast<size_t>(hub_limit))
        ranked.resize(static_cast<size_t>(hub_limit));
    a.hubs = std::move(ranked);

    // Dead/backup files and orphans.
    for (size_t i = 0; i < n; ++i) {
        const FileNode& node = files_[i];
        if (is_dead_name(node.name)) {
            a.dead_files.push_back(static_cast<FileId>(i));
            continue;
        }
        // Top-level files and well-known entry basenames are assumed to be
        // reached by the CMS directly (WordPress loads plugin-dir/main.php
        // itself); everything else unreferenced is an orphan candidate.
        const std::string_view base = php::basename_of(node.name);
        const bool entry_name =
            iequals(base, "index.php") || iequals(base, "main.php");
        if (node.included_by.empty() && node.used_by.empty() &&
            node.name.find('/') != std::string_view::npos && !entry_name)
            a.orphans.push_back(static_cast<FileId>(i));
    }
    std::sort(a.dead_files.begin(), a.dead_files.end(), name_less);
    std::sort(a.orphans.begin(), a.orphans.end(), name_less);

    // Include cycles: iterative Tarjan over the include edges. SCCs of
    // size > 1 are cycles; singletons only when they self-include.
    std::vector<int> index(n, -1);
    std::vector<int> lowlink(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<FileId> stack;
    struct Frame {
        FileId v;
        size_t child;
    };
    std::vector<Frame> frames;
    int next_index = 0;
    for (size_t root = 0; root < n; ++root) {
        if (index[root] != -1) continue;
        frames.push_back({static_cast<FileId>(root), 0});
        index[root] = lowlink[root] = next_index++;
        stack.push_back(static_cast<FileId>(root));
        on_stack[root] = true;
        while (!frames.empty()) {
            Frame& frame = frames.back();
            const auto& out = files_[static_cast<size_t>(frame.v)].includes;
            if (frame.child < out.size()) {
                const FileId w = out[frame.child++];
                const size_t wi = static_cast<size_t>(w);
                if (index[wi] == -1) {
                    index[wi] = lowlink[wi] = next_index++;
                    stack.push_back(w);
                    on_stack[wi] = true;
                    frames.push_back({w, 0});
                } else if (on_stack[wi]) {
                    lowlink[static_cast<size_t>(frame.v)] =
                        std::min(lowlink[static_cast<size_t>(frame.v)], index[wi]);
                }
                continue;
            }
            const FileId v = frame.v;
            const size_t vi = static_cast<size_t>(v);
            frames.pop_back();
            if (lowlink[vi] == index[vi]) {
                std::vector<FileId> scc;
                for (;;) {
                    const FileId w = stack.back();
                    stack.pop_back();
                    on_stack[static_cast<size_t>(w)] = false;
                    scc.push_back(w);
                    if (w == v) break;
                }
                const auto& self = files_[vi].includes;
                const bool self_loop =
                    scc.size() == 1 &&
                    std::binary_search(self.begin(), self.end(), v);
                if (scc.size() > 1 || self_loop) {
                    std::sort(scc.begin(), scc.end(), name_less);
                    a.cycles.push_back(std::move(scc));
                }
            }
            if (!frames.empty())
                lowlink[static_cast<size_t>(frames.back().v)] = std::min(
                    lowlink[static_cast<size_t>(frames.back().v)], lowlink[vi]);
        }
    }
    std::sort(a.cycles.begin(), a.cycles.end(),
              [&](const std::vector<FileId>& lhs, const std::vector<FileId>& rhs) {
                  return file_name(lhs.front()) < file_name(rhs.front());
              });

    // Vendor directories: known shared-library names, plus any top-level
    // directory included from three or more other top-level directories.
    std::map<std::string_view, std::set<std::string_view>> include_sources;
    std::set<std::string_view> top_dirs;
    for (size_t i = 0; i < n; ++i) {
        const std::string_view from_dir = top_dir_of(files_[i].name);
        if (!from_dir.empty()) top_dirs.insert(from_dir);
        for (const FileId to : files_[i].includes) {
            const std::string_view to_dir =
                top_dir_of(files_[static_cast<size_t>(to)].name);
            if (!to_dir.empty() && to_dir != from_dir)
                include_sources[to_dir].insert(
                    from_dir.empty() ? std::string_view("<top>") : from_dir);
        }
    }
    std::set<std::string_view> vendors;
    for (const std::string_view dir : top_dirs) {
        for (const std::string_view known : kVendorDirNames)
            if (iequals(dir, known)) vendors.insert(dir);
        const auto sources = include_sources.find(dir);
        if (sources != include_sources.end() && sources->second.size() >= 3)
            vendors.insert(dir);
    }
    for (const std::string_view dir : vendors) a.vendor_dirs.emplace_back(dir);
    return a;
}

std::string ProjectGraph::to_json() const {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("files").begin_array();
    for (const FileNode& node : files_) {
        w.begin_object();
        w.kv("name", node.name);
        w.kv("hash", hex64(node.hash));
        w.kv("failed", node.parse_failed);
        w.end_object();
    }
    w.end_array();
    w.key("functions").begin_array();
    for (const FuncNode& fn : functions_) {
        w.begin_object();
        w.kv("name", fn.name);
        w.kv("file", fn.file);
        w.end_object();
    }
    w.end_array();
    const auto edge_array = [&](const char* key, const auto& member) {
        w.key(key).begin_array();
        for (size_t from = 0; from < files_.size(); ++from) {
            for (const FileId to : files_[from].*member) {
                w.begin_array();
                w.value(static_cast<int>(from));
                w.value(static_cast<int>(to));
                w.end_array();
            }
        }
        w.end_array();
    };
    edge_array("includes", &FileNode::includes);
    edge_array("uses", &FileNode::uses);
    w.end_object();
    return os.str();
}

ProjectGraph build_project_graph(const php::Project& project) {
    return ProjectGraph::build(project.files());
}

std::string render_graph_analytics(const ProjectGraph& g,
                                   const ProjectGraph::Analytics& a) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.kv("files", g.file_count());
    w.kv("functions", g.function_count());
    w.kv("include_edges", g.include_edge_count());
    w.kv("use_edges", g.use_edge_count());
    w.key("hubs").begin_array();
    for (const ProjectGraph::Hub& hub : a.hubs) {
        w.begin_object();
        w.kv("file", g.file_name(hub.file));
        w.kv("fan_in", hub.fan_in);
        w.end_object();
    }
    w.end_array();
    const auto name_array = [&](const char* key,
                                const std::vector<ProjectGraph::FileId>& ids) {
        w.key(key).begin_array();
        for (const ProjectGraph::FileId id : ids) w.value(g.file_name(id));
        w.end_array();
    };
    name_array("orphans", a.orphans);
    w.key("cycles").begin_array();
    for (const std::vector<ProjectGraph::FileId>& cycle : a.cycles) {
        w.begin_array();
        for (const ProjectGraph::FileId id : cycle) w.value(g.file_name(id));
        w.end_array();
    }
    w.end_array();
    name_array("dead_files", a.dead_files);
    w.key("vendor_dirs").begin_array();
    for (const std::string& dir : a.vendor_dirs) w.value(dir);
    w.end_array();
    w.end_object();
    return os.str();
}

}  // namespace phpsafe::graph
