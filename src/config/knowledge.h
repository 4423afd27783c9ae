// Vulnerability knowledge base — the paper's configuration stage (§III.A).
// Encodes, per function/method: potentially-malicious sources (and their
// input vector), sanitization functions and what vulnerability kinds they
// cleanse, revert functions that undo sanitization, and sensitive sinks.
// Profiles (generic PHP, WordPress, the 2007-era set used by the Pixy
// baseline) are built in config/profiles.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/strings.h"

namespace phpsafe {

/// Vulnerability classes the tool detects (paper scope: XSS and SQLi).
enum class VulnKind : uint8_t { kXss = 0, kSqli = 1 };
constexpr int kVulnKindCount = 2;

std::string to_string(VulnKind kind);

/// Small set of VulnKind (bitmask).
class VulnSet {
public:
    constexpr VulnSet() = default;
    constexpr explicit VulnSet(uint8_t bits) : bits_(bits) {}

    static constexpr VulnSet none() { return VulnSet(0); }
    static constexpr VulnSet all() { return VulnSet((1u << kVulnKindCount) - 1); }
    static constexpr VulnSet of(VulnKind k) {
        return VulnSet(static_cast<uint8_t>(1u << static_cast<int>(k)));
    }

    constexpr bool contains(VulnKind k) const {
        return bits_ & (1u << static_cast<int>(k));
    }
    constexpr bool empty() const { return bits_ == 0; }
    constexpr bool any() const { return bits_ != 0; }

    constexpr VulnSet operator|(VulnSet o) const { return VulnSet(bits_ | o.bits_); }
    constexpr VulnSet operator&(VulnSet o) const { return VulnSet(bits_ & o.bits_); }
    constexpr VulnSet operator-(VulnSet o) const {
        return VulnSet(static_cast<uint8_t>(bits_ & ~o.bits_));
    }
    VulnSet& operator|=(VulnSet o) {
        bits_ |= o.bits_;
        return *this;
    }
    VulnSet& operator&=(VulnSet o) {
        bits_ &= o.bits_;
        return *this;
    }
    VulnSet& operator-=(VulnSet o) {
        bits_ &= static_cast<uint8_t>(~o.bits_);
        return *this;
    }
    constexpr friend bool operator==(VulnSet a, VulnSet b) { return a.bits_ == b.bits_; }

    uint8_t bits() const { return bits_; }

private:
    uint8_t bits_ = 0;
};

constexpr VulnSet kXssOnly = VulnSet::of(VulnKind::kXss);
constexpr VulnSet kSqliOnly = VulnSet::of(VulnKind::kSqli);
constexpr VulnSet kBothVulns = VulnSet::all();

std::string to_string(VulnSet set);

/// Where malicious data enters the plugin (paper Table II taxonomy).
enum class InputVector : uint8_t {
    kGet, kPost, kCookie, kRequest, kServer, kFiles,
    kDatabase, kFile, kFunction, kArray, kUnknown,
};

std::string to_string(InputVector v);

/// Table II groups GET/POST/COOKIE-style vectors separately from DB and
/// File/Function/Array; this maps a vector to the row it belongs to.
enum class VectorGroup { kPost, kGet, kPostGetCookie, kDatabase, kFileFunctionArray };
std::string to_string(VectorGroup g);
VectorGroup vector_group(InputVector v);

/// Effects of calling one function/method, from the tool configuration.
/// A function can play several roles at once: e.g. `$wpdb->get_results`
/// is a SQLi *sink* for its query argument and a database *source* for its
/// return value.
struct FunctionInfo {
    std::string name;  ///< lowercase; for methods, without class prefix

    /// Return-value behaviour when the function is not a source/sanitizer.
    enum class Return {
        kPropagate,  ///< return carries the union of argument taint
        kSafe,       ///< return is never tainted (count, strlen, ...)
        kTainted,    ///< return is freshly tainted (a source)
    };
    Return ret = Return::kPropagate;

    // --- source role -------------------------------------------------------
    bool is_source = false;
    InputVector source_vector = InputVector::kUnknown;
    VulnSet source_taint = kBothVulns;  ///< kinds introduced by this source

    // --- sanitizer role ----------------------------------------------------
    /// Kinds removed from the (first) argument's taint in the return value.
    VulnSet sanitizes = VulnSet::none();

    // --- revert role -------------------------------------------------------
    /// Kinds whose earlier sanitization is undone (latent taint revived).
    VulnSet reverts = VulnSet::none();

    // --- sink role ---------------------------------------------------------
    VulnSet sink_kinds = VulnSet::none();
    /// Argument positions checked at the sink; empty = all arguments.
    std::vector<int> sink_args;

    /// By-reference taint flows: taint of args[first] is copied into the
    /// variable passed at args[second] (e.g. preg_match match-array).
    std::vector<std::pair<int, int>> ref_flows;

    /// When non-empty, the return value is an object of this class
    /// (lowercased) — e.g. JFactory::getDBO() returns a JDatabase.
    std::string returns_class;

    bool is_sink() const noexcept { return sink_kinds.any(); }
    bool is_sanitizer() const noexcept { return sanitizes.any(); }
    bool is_revert() const noexcept { return reverts.any(); }
};

/// A superglobal (or configured global) that is an attack entry point.
struct SuperglobalInfo {
    std::string name;  ///< with '$', e.g. "$_GET"
    InputVector vector = InputVector::kUnknown;
    VulnSet taint = kBothVulns;
};

/// The assembled tool configuration. Lookup keys are lowercase; method
/// lookups try "class::method" first, then the "::method" wildcard entry.
class KnowledgeBase {
public:
    void add_function(FunctionInfo info);
    void add_method(std::string_view class_name, FunctionInfo info);
    /// Registers a method matched by name on *any* receiver class. Used for
    /// CMS APIs whose receiver type is rarely inferable inside a plugin.
    void add_any_method(FunctionInfo info);
    void add_superglobal(SuperglobalInfo info);
    /// Declares that a well-known global variable holds an instance of a
    /// CMS class (e.g. "$wpdb" → "wpdb").
    void add_known_global_object(std::string_view var_name, std::string_view class_name);

    /// Fault-injection seams: drop one configured rule, so the fuzz-oracle
    /// tests can prove a deliberately broken tool is caught (a removed
    /// source/revert shows up as an interpreter-agreement violation).
    void remove_function(std::string_view name);
    void remove_superglobal(std::string_view var_name);

    const FunctionInfo* function(std::string_view name) const;
    /// `class_name` may be empty when the receiver type is unknown.
    const FunctionInfo* method(std::string_view class_name,
                               std::string_view method_name) const;
    const SuperglobalInfo* superglobal(std::string_view var_name) const;
    const std::string* known_global_class(std::string_view var_name) const;

    /// Language-construct sinks (`echo`, `print`, backticks) are handled by
    /// the engine directly; this exposes the construct config for tests.
    bool echo_is_sink = true;

    /// Pixy-era option: with register_globals=1 modeling, any plain variable
    /// read before assignment is treated as a potential GET source.
    bool model_register_globals = false;

    /// Keys are stored lowercase; the transparent FoldedLess comparator lets
    /// hot-path lookups probe with mixed-case string_views straight from AST
    /// nodes without allocating a folded temporary.
    using FunctionMap = std::map<std::string, FunctionInfo, FoldedLess>;
    /// Every configured function, keyed by name.
    const FunctionMap& functions() const noexcept { return functions_; }
    /// Every configured method, keyed "class::method", or "::method" for the
    /// any-receiver entries.
    const FunctionMap& methods() const noexcept { return methods_; }

private:
    FunctionMap functions_;
    FunctionMap methods_;
    /// Superglobal names are case-sensitive in PHP ($_get is not $_GET);
    /// std::less<> keeps exact comparison but allows string_view probes.
    std::map<std::string, SuperglobalInfo, std::less<>> superglobals_;
    std::map<std::string, std::string, std::less<>> known_globals_;
};

/// Generic PHP profile: superglobals, PHP built-in sources/sanitizers/
/// reverts/sinks for XSS and SQLi (paper: "based on the default
/// configurations of the RIPS tool").
KnowledgeBase make_generic_php_kb();

/// Adds the WordPress profile: $wpdb methods, esc_*/sanitize_* functions,
/// option/meta accessors — the paper's out-of-the-box plugin configuration.
void add_wordpress_profile(KnowledgeBase& kb);

/// 2007-era knowledge (for the Pixy baseline): no WordPress entries, no
/// mysqli/esc_* functions, register_globals modeling enabled.
KnowledgeBase make_pixy_era_kb();

/// Drupal 6/7 profile (paper future work §VI): db_query and the
/// check_plain/filter_xss filtering API.
void add_drupal_profile(KnowledgeBase& kb);

/// Joomla 1.5–3 profile (paper future work §VI): JRequest/JInput sources,
/// JDatabase::setQuery sink, escape/quote filters.
void add_joomla_profile(KnowledgeBase& kb);

}  // namespace phpsafe
