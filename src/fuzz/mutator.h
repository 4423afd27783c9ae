// Case generation for the fuzzer: structure-aware mutations built on the
// corpus pattern library (splice sanitizers, rename taint variables, wrap
// sinks in functions/methods/closures, split across includes) plus raw
// byte-level mutations for the lexer/parser never-crash guarantee.
//
// Every case carries eligibility flags deciding which oracles are sound
// for it (oracles.h): byte-mutated garbage only supports no-crash and
// determinism; structure cases additionally support preset monotonicity
// (procedural generic-PHP only) and interpreter agreement (single known
// sink per file, constructs both the static engine and the dynamic
// interpreter model concretely).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/knowledge.h"
#include "corpus/patterns.h"
#include "fuzz/rng.h"

namespace phpsafe::fuzz {

/// XSS sanitizers the mutator splices around superglobal reads. Every entry
/// must be a sanitizer in the *generic* knowledge base (so preset
/// monotonicity still holds) AND an implemented row of the interpreter's
/// built-in table (so the agreement oracle sees the same semantics the
/// static engine assumes); BuiltinTableTest checks both.
const std::vector<std::string>& splice_sanitizers();

struct FuzzFile {
    std::string name;
    std::string text;
};

/// Ground-truth sink candidate the interpreter-agreement oracle validates
/// dynamically. Mutations that shift lines keep `line` up to date.
struct SinkSite {
    std::string file;
    int line = 0;  ///< 1-based
    VulnKind kind = VulnKind::kXss;
    InputVector vector = InputVector::kUnknown;
};

struct FuzzCase {
    std::string name;
    std::vector<FuzzFile> files;
    std::vector<SinkSite> sinks;
    bool byte_level = false;
    /// Interpreter agreement is sound: exactly the constructs both
    /// executions model, one candidate sink per validated file.
    bool agreement_eligible = false;
    /// rips_like ⊆ phpsafe holds by construction: procedural generic PHP,
    /// shallow includes, no CMS-profile or closure constructs.
    bool monotonic_eligible = false;

    int total_lines() const;
};

class Mutator {
public:
    explicit Mutator(uint64_t seed) : rng_(seed) {}

    /// A random structure-aware case: one pattern-library snippet (or, for
    /// monotonic-only cases, several) plus 0–2 structure mutations.
    FuzzCase structure_case(int index);

    /// Deterministic single-family case without random mutations — the seam
    /// the fault-seeding tests use to aim at one specific rule.
    FuzzCase structure_case_for(corpus::Family family, int index, int variant);

    /// Byte-level mutation of `base` (bit flips, splices, truncation,
    /// dictionary-token insertion). Only no-crash/determinism eligible.
    FuzzCase byte_case(const FuzzCase& base, int index);

    /// A tiny valid program used as byte-mutation seed when no structure
    /// case has been generated yet.
    static FuzzCase seed_case();

    /// Families eligible for the interpreter-agreement oracle.
    static const std::vector<corpus::Family>& agreement_families();
    /// Families eligible for the preset-monotonicity oracle.
    static const std::vector<corpus::Family>& monotonic_families();

private:
    void apply_structure_mutations(FuzzCase& c);
    void splice_sanitizer(FuzzCase& c);
    void rename_tag(FuzzCase& c, const std::string& from, const std::string& to);
    void wrap_in_function(FuzzCase& c);
    void wrap_in_method(FuzzCase& c);
    void wrap_in_closure(FuzzCase& c);
    void split_include(FuzzCase& c);

    Rng rng_;
    int tag_counter_ = 0;
};

}  // namespace phpsafe::fuzz
