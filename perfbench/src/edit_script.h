// The watch-edit workload's editor session: a seeded sequence of single-
// file saves over the generated monorepo, each with the delta findings it
// must produce. The expectation comes from what the edit plants, never
// from running the analyzer:
//   - body    a body-only save to a plugin part (same line count)    0 / 0
//   - plant   `echo $_GET[...]` spliced into a part's body line      +1 at that line
//   - revert  the plant undone (the previous text, byte for byte)    -1 at that line
//   - struct  a function or an include appended to a part, or the
//             earlier addition removed (forces a graph relink)       0 / 0
//   - hub     a body-only save to a shared framework/lib-K.php       0 / 0
// Every edit keeps the edited file's existing lines where they were, so
// no seeded finding moves.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class EditKind { kBody, kPlant, kRevert, kStruct, kHub };

const char* to_string(EditKind kind);

struct Edit {
    EditKind kind = EditKind::kBody;
    std::string file;
    std::string text;       ///< the file's full text after the edit
    int expect_added = 0;   ///< findings the edit must add
    int expect_removed = 0; ///< findings the edit must remove
    int line = 0;           ///< the planted sink's line (plant / revert)
};

struct EditScript {
    std::vector<Edit> edits;
    /// The tree after the last edit.
    std::map<std::string, std::string> final_files;
};

/// Share of each kind in a script of n edits: hub n/10, struct 3n/20,
/// plant+revert pairs n/8 (two edits each), body the rest.
struct EditMix {
    int hub = 0;
    int structural = 0;
    int pairs = 0;
    int body = 0;
};
EditMix edit_mix(int edits);

/// Builds a script of `edits` edits over `files` (name, text). Edits touch
/// plugin parts ("*/inc/part-*.php") that hold no seeded vulnerability
/// (`seeded_files`) and the framework libraries ("framework/lib-*.php").
/// Deterministic for fixed arguments.
EditScript make_edit_script(
    const std::vector<std::pair<std::string, std::string>>& files,
    const std::vector<std::string>& seeded_files, uint64_t seed, int edits);

}  // namespace perfbench
