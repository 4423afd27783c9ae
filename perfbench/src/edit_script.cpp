#include "edit_script.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "stats.h"

namespace perfbench {

const char* to_string(EditKind kind) {
    switch (kind) {
    case EditKind::kBody: return "body";
    case EditKind::kPlant: return "plant";
    case EditKind::kRevert: return "revert";
    case EditKind::kStruct: return "struct";
    case EditKind::kHub: return "hub";
    }
    return "?";
}

EditMix edit_mix(int edits) {
    EditMix mix;
    mix.hub = edits / 10;
    mix.structural = edits * 3 / 20;
    mix.pairs = edits / 8;
    mix.body = edits - mix.hub - mix.structural - 2 * mix.pairs;
    return mix;
}

namespace {

constexpr std::string_view kBodyIndent = "\n    return ";

/// One editable file, split around its first `return` line — the function
/// body every edit kind rewrites in place.
struct Target {
    std::string name;
    std::string head;  ///< text before the body line, ending in '\n'
    std::string body;  ///< the body line after its indent, without '\n'
    std::string tail;  ///< the rest of the file from the body line's '\n'
    int line = 0;      ///< 1-based line number of the body line
    int rev = 0;       ///< body-save revision (0 = original)
    bool planted = false;
    int added = 0;     ///< 0 none, 1 function, 2 include appended
    int added_id = 0;

    std::string text(const std::vector<std::string>& libs) const {
        std::string out = head + "    ";
        if (rev) out += "$rev = " + std::to_string(rev) + "; ";
        if (planted) out += "echo $_GET['perfbench']; ";
        out += body + tail;
        if (added == 1)
            out += "function perfbench_added_" + std::to_string(added_id) +
                   "() { return " + std::to_string(added_id) + "; }\n";
        else if (added == 2)
            out += "require_once '" +
                   libs[static_cast<size_t>(added_id) % libs.size()] + "';\n";
        return out;
    }
};

Target split(const std::string& name, const std::string& text) {
    const size_t at = text.find(kBodyIndent);
    if (at == std::string::npos)
        throw std::runtime_error("edit target has no body line: " + name);
    Target t;
    t.name = name;
    t.head = text.substr(0, at + 1);
    const size_t body_start = at + 5;  // past the '\n' and the indent
    const size_t body_end = text.find('\n', body_start);
    t.body = text.substr(body_start, body_end - body_start);
    t.tail = body_end == std::string::npos ? "" : text.substr(body_end);
    t.line = static_cast<int>(std::count(t.head.begin(), t.head.end(), '\n')) + 1;
    return t;
}

bool is_part(const std::string& name) {
    return name.find("/inc/part-") != std::string::npos &&
           name.size() > 4 && name.compare(name.size() - 4, 4, ".php") == 0;
}

bool is_lib(const std::string& name) {
    return name.rfind("framework/lib-", 0) == 0 &&
           name.compare(name.size() - 4, 4, ".php") == 0;
}

}  // namespace

EditScript make_edit_script(
    const std::vector<std::pair<std::string, std::string>>& files,
    const std::vector<std::string>& seeded_files, uint64_t seed, int edits) {
    const std::set<std::string> seeded(seeded_files.begin(), seeded_files.end());
    std::vector<std::string> parts, libs;
    EditScript script;
    for (const auto& [name, text] : files) {
        script.final_files.emplace(name, text);
        if (is_part(name) && !seeded.count(name)) parts.push_back(name);
        if (is_lib(name)) libs.push_back(name);
    }
    if (parts.empty() || libs.empty())
        throw std::runtime_error("monorepo has no editable parts or libraries");

    enum class Unit { kBody, kPair, kStruct, kHub };
    const EditMix mix = edit_mix(edits);
    std::vector<Unit> units;
    units.insert(units.end(), static_cast<size_t>(mix.body), Unit::kBody);
    units.insert(units.end(), static_cast<size_t>(mix.pairs), Unit::kPair);
    units.insert(units.end(), static_cast<size_t>(mix.structural), Unit::kStruct);
    units.insert(units.end(), static_cast<size_t>(mix.hub), Unit::kHub);
    Rng rng(seed);
    rng.shuffle(units);

    std::map<std::string, Target> targets;
    auto pick = [&](const std::vector<std::string>& pool) -> Target& {
        const std::string& name = pool[rng.below(pool.size())];
        auto it = targets.find(name);
        if (it == targets.end())
            it = targets.emplace(name, split(name, script.final_files.at(name)))
                     .first;
        return it->second;
    };
    int counter = 0;
    int structural = 0;
    auto emit = [&](EditKind kind, Target& t, int added, int removed) {
        Edit e;
        e.kind = kind;
        e.file = t.name;
        e.text = t.text(libs);
        e.expect_added = added;
        e.expect_removed = removed;
        if (kind == EditKind::kPlant || kind == EditKind::kRevert) e.line = t.line;
        script.final_files[t.name] = e.text;
        script.edits.push_back(std::move(e));
    };

    for (Unit unit : units) {
        switch (unit) {
        case Unit::kBody: {
            Target& t = pick(parts);
            t.rev = ++counter;
            emit(EditKind::kBody, t, 0, 0);
            break;
        }
        case Unit::kPair: {
            Target& t = pick(parts);
            t.planted = true;
            emit(EditKind::kPlant, t, 1, 0);
            t.planted = false;
            emit(EditKind::kRevert, t, 0, 1);
            break;
        }
        case Unit::kStruct: {
            Target& t = pick(parts);
            if (t.added) {
                t.added = 0;
            } else {
                t.added = structural++ % 2 == 0 ? 1 : 2;
                t.added_id = ++counter;
            }
            emit(EditKind::kStruct, t, 0, 0);
            break;
        }
        case Unit::kHub: {
            Target& t = pick(libs);
            t.rev = ++counter;
            emit(EditKind::kHub, t, 0, 0);
            break;
        }
        }
    }
    return script;
}

}  // namespace perfbench
