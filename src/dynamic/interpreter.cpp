#include "dynamic/interpreter.h"

#include <algorithm>
#include <cassert>
#include <locale>
#include <regex>

#include "util/strings.h"

namespace phpsafe::dynamic {

using php::NodeKind;

namespace {

/// Class of the stub row objects the database built-ins return: any
/// property or element read on one yields the seeded cell.
constexpr std::string_view kDbRowClass = "__dbrow";
constexpr std::string_view kThisVar = "$this";
constexpr std::string_view kGlobalsVar = "$GLOBALS";

bool is_db_row(const Value& v) {
    return v.is_object() && v.object_data()->class_name == kDbRowClass;
}

std::string php_htmlspecialchars(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
        switch (c) {
            case '&': out += "&amp;"; break;
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '"': out += "&quot;"; break;
            case '\'': out += "&#039;"; break;
            default: out += c;
        }
    }
    return out;
}

std::string php_addslashes(const std::string& in) {
    std::string out;
    for (char c : in) {
        if (c == '\'' || c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

std::string php_stripslashes(const std::string& in) {
    std::string out;
    for (size_t i = 0; i < in.size(); ++i) {
        if (in[i] == '\\' && i + 1 < in.size()) ++i;
        out += in[i];
    }
    return out;
}

/// The %s/%d subset of sprintf, formatting args[0] with the arguments after
/// it; shared by printf, vprintf, sprintf and wpdb::prepare. With
/// `quote_strings` (wpdb::prepare) each %s argument is slash-escaped and
/// single-quoted.
std::string format_percent(const std::vector<Value>& args, bool quote_strings) {
    const std::string format = args.empty() ? std::string() : args[0].to_string();
    std::string out;
    size_t next = 1;
    for (size_t i = 0; i < format.size(); ++i) {
        const char spec = format[i] == '%' && i + 1 < format.size() ? format[i + 1] : '\0';
        if (spec == 's') {
            const std::string raw = next < args.size() ? args[next++].to_string() : "";
            out += quote_strings ? "'" + php_addslashes(raw) + "'" : raw;
            ++i;
        } else if (spec == 'd') {
            out += std::to_string(next < args.size() ? args[next++].to_int() : 0);
            ++i;
        } else {
            out += format[i];
        }
    }
    return out;
}

std::string php_strip_tags(const std::string& in) {
    std::string out;
    bool in_tag = false;
    for (char c : in) {
        if (c == '<') in_tag = true;
        else if (c == '>') in_tag = false;
        else if (!in_tag) out += c;
    }
    return out;
}

/// std::regex's scanner narrows every pattern character through the global
/// locale's ctype<char>, and libstdc++ fills that facet's narrow cache one
/// character at a time on first use — a write that races when interpreters
/// replay in parallel (the validation fan-out). Narrowing the whole byte
/// range once fills the cache in one step, so later calls only read it.
void fill_regex_narrow_cache() {
    static const bool filled = [] {
        char bytes[256];
        for (int i = 0; i < 256; ++i) bytes[i] = static_cast<char>(i);
        char narrowed[256];
        std::use_facet<std::ctype<char>>(std::locale())
            .narrow(bytes, bytes + 256, '\0', narrowed);
        return true;
    }();
    (void)filled;
}

/// Best-effort PCRE → std::regex translation: strips delimiters and flags.
bool pcre_match(const std::string& pattern, const std::string& subject,
                std::smatch* match_out) {
    if (pattern.size() < 2) return false;
    fill_regex_narrow_cache();
    const char delim = pattern.front();
    const size_t end = pattern.rfind(delim);
    if (end == 0) return false;
    std::string body = pattern.substr(1, end - 1);
    const std::string flags = pattern.substr(end + 1);
    auto options = std::regex::ECMAScript;
    if (flags.find('i') != std::string::npos) options |= std::regex::icase;
    try {
        const std::regex re(body, options);
        std::smatch m;
        const bool matched = std::regex_search(subject, m, re);
        if (match_out) *match_out = m;
        return matched;
    } catch (const std::regex_error&) {
        return false;
    }
}

}  // namespace

Interpreter::Interpreter(const php::Project& project, ExecOptions options)
    : project_(project), options_(options) {
    globals_.is_global = true;
    for (const char* sg : {"$_GET", "$_POST", "$_COOKIE", "$_REQUEST", "$_SERVER",
                           "$_FILES"})
        superglobals_[sg] = Value::array();
}

void Interpreter::set_superglobal(const std::string& name, const std::string& key,
                                  std::string value) {
    superglobals_[name].set_element(key, Value::string(std::move(value)));
}

void Interpreter::set_superglobal_default(const std::string& name,
                                          std::string value) {
    superglobal_defaults_[name] = std::move(value);
}

void Interpreter::seed_database(std::string cell, int rows) {
    db_cell_ = std::move(cell);
    db_rows_ = rows;
}

void Interpreter::seed_file_contents(std::string contents) {
    file_contents_ = std::move(contents);
}

void Interpreter::seed_cms_store(std::string value) {
    cms_store_ = std::move(value);
}

bool Interpreter::step() {
    if (pending_flow_ == Flow::kExit) return false;
    if (++steps_ > options_.max_steps) {
        result_.budget_exhausted = true;
        return false;
    }
    return true;
}

Value Interpreter::make_result_handle() {
    Value handle = Value::object("__result");
    handle.object_data()->cursor = 0;
    return handle;
}

Value Interpreter::make_db_row() { return Value::object(std::string(kDbRowClass)); }

ExecResult Interpreter::run_file(const std::string& file_name) {
    result_ = ExecResult{};
    steps_ = 0;
    call_depth_ = 0;
    constructing_classes_.clear();
    pending_flow_ = Flow::kNormal;
    globals_.vars.clear();
    include_stack_.clear();

    // The $wpdb global every WordPress request provides.
    Value wpdb = Value::object("wpdb");
    wpdb.object_data()->properties["prefix"] = Value::string("wp_");
    globals_.vars["$wpdb"] = wpdb;

    const php::ParsedFile* file = project_.resolve_include(file_name);
    if (!file) {
        result_.error = "file not found: " + file_name;
        return result_;
    }
    include_stack_.push_back(file->source->name());
    const Flow flow = exec_stmts(file->unit.statements, globals_);
    result_.completed =
        flow == Flow::kNormal && !result_.budget_exhausted && result_.error.empty();
    result_.exited = pending_flow_ == Flow::kExit || flow == Flow::kExit;
    return result_;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

Interpreter::Flow Interpreter::exec_stmts(const ArenaVector<php::StmtPtr>& stmts,
                                          Frame& frame) {
    for (const php::StmtPtr& stmt : stmts) {
        if (!stmt) continue;
        const Flow flow = exec_stmt(*stmt, frame);
        if (flow != Flow::kNormal) return flow;
    }
    return Flow::kNormal;
}

Interpreter::Flow Interpreter::exec_stmt(const php::Stmt& stmt, Frame& frame) {
    if (!step()) return Flow::kExit;
    switch (stmt.kind) {
        case NodeKind::kExprStmt: {
            const auto& n = static_cast<const php::ExprStmt&>(stmt);
            if (n.expr) eval(*n.expr, frame);
            return pending_flow_ == Flow::kExit ? Flow::kExit : Flow::kNormal;
        }
        case NodeKind::kEchoStmt: {
            const auto& n = static_cast<const php::EchoStmt&>(stmt);
            for (const php::ExprPtr& arg : n.args) {
                if (!arg) continue;
                emit(eval(*arg, frame).to_string());
                if (pending_flow_ == Flow::kExit) return Flow::kExit;
            }
            return Flow::kNormal;
        }
        case NodeKind::kInlineHtmlStmt:
            emit(static_cast<const php::InlineHtmlStmt&>(stmt).html);
            return Flow::kNormal;
        case NodeKind::kBlock:
            return exec_stmts(static_cast<const php::Block&>(stmt).statements, frame);
        case NodeKind::kIfStmt: {
            const auto& n = static_cast<const php::IfStmt&>(stmt);
            const bool cond = n.cond ? eval(*n.cond, frame).to_bool() : false;
            if (pending_flow_ == Flow::kExit) return Flow::kExit;
            if (cond) return n.then_branch ? exec_stmt(*n.then_branch, frame)
                                           : Flow::kNormal;
            return n.else_branch ? exec_stmt(*n.else_branch, frame) : Flow::kNormal;
        }
        case NodeKind::kWhileStmt: {
            const auto& n = static_cast<const php::WhileStmt&>(stmt);
            for (int i = 0; i < options_.max_loop_iterations; ++i) {
                if (!n.cond || !eval(*n.cond, frame).to_bool()) return Flow::kNormal;
                if (pending_flow_ == Flow::kExit) return Flow::kExit;
                const Flow flow = n.body ? exec_stmt(*n.body, frame) : Flow::kNormal;
                if (flow == Flow::kBreak) return Flow::kNormal;
                if (flow == Flow::kReturn || flow == Flow::kExit) return flow;
            }
            result_.budget_exhausted = true;
            return Flow::kNormal;
        }
        case NodeKind::kDoWhileStmt: {
            const auto& n = static_cast<const php::DoWhileStmt&>(stmt);
            for (int i = 0; i < options_.max_loop_iterations; ++i) {
                const Flow flow = n.body ? exec_stmt(*n.body, frame) : Flow::kNormal;
                if (flow == Flow::kBreak) return Flow::kNormal;
                if (flow == Flow::kReturn || flow == Flow::kExit) return flow;
                if (!n.cond || !eval(*n.cond, frame).to_bool()) return Flow::kNormal;
            }
            result_.budget_exhausted = true;
            return Flow::kNormal;
        }
        case NodeKind::kForStmt: {
            const auto& n = static_cast<const php::ForStmt&>(stmt);
            for (const php::ExprPtr& e : n.init)
                if (e) eval(*e, frame);
            for (int i = 0; i < options_.max_loop_iterations; ++i) {
                bool cond = true;
                for (const php::ExprPtr& e : n.cond)
                    if (e) cond = eval(*e, frame).to_bool();
                if (!cond) return Flow::kNormal;
                const Flow flow = n.body ? exec_stmt(*n.body, frame) : Flow::kNormal;
                if (flow == Flow::kBreak) return Flow::kNormal;
                if (flow == Flow::kReturn || flow == Flow::kExit) return flow;
                for (const php::ExprPtr& e : n.update)
                    if (e) eval(*e, frame);
            }
            result_.budget_exhausted = true;
            return Flow::kNormal;
        }
        case NodeKind::kForeachStmt: {
            const auto& n = static_cast<const php::ForeachStmt&>(stmt);
            if (!n.iterable) return Flow::kNormal;
            const Value iterable = eval(*n.iterable, frame);
            if (!iterable.is_array() || !iterable.array_data())
                return Flow::kNormal;
            // Copy the entry list: bodies may mutate the array.
            const auto entries = iterable.array_data()->entries;
            int iterations = 0;
            for (const auto& [key, value] : entries) {
                if (++iterations > options_.max_loop_iterations) break;
                if (n.key_var) assign_to(*n.key_var, Value::string(key), frame);
                if (n.value_var) assign_to(*n.value_var, value, frame);
                const Flow flow = n.body ? exec_stmt(*n.body, frame) : Flow::kNormal;
                if (flow == Flow::kBreak) return Flow::kNormal;
                if (flow == Flow::kReturn || flow == Flow::kExit) return flow;
            }
            return Flow::kNormal;
        }
        case NodeKind::kSwitchStmt: {
            const auto& n = static_cast<const php::SwitchStmt&>(stmt);
            if (!n.subject) return Flow::kNormal;
            const Value subject = eval(*n.subject, frame);
            size_t start = n.cases.size();
            size_t default_index = n.cases.size();
            for (size_t i = 0; i < n.cases.size(); ++i) {
                if (!n.cases[i].match) {
                    default_index = i;
                    continue;
                }
                if (subject.loose_equals(eval(*n.cases[i].match, frame))) {
                    start = i;
                    break;
                }
            }
            if (start == n.cases.size()) start = default_index;
            for (size_t i = start; i < n.cases.size(); ++i) {
                const Flow flow = exec_stmts(n.cases[i].body, frame);
                if (flow == Flow::kBreak) return Flow::kNormal;
                if (flow != Flow::kNormal) return flow;
            }
            return Flow::kNormal;
        }
        case NodeKind::kBreakStmt: return Flow::kBreak;
        case NodeKind::kContinueStmt: return Flow::kContinue;
        case NodeKind::kReturnStmt: {
            const auto& n = static_cast<const php::ReturnStmt&>(stmt);
            return_value_ = n.value ? eval(*n.value, frame) : Value();
            return pending_flow_ == Flow::kExit ? Flow::kExit : Flow::kReturn;
        }
        case NodeKind::kGlobalStmt: {
            const auto& n = static_cast<const php::GlobalStmt&>(stmt);
            for (const std::string_view name : n.names)
                frame.global_aliases.emplace(name);
            return Flow::kNormal;
        }
        case NodeKind::kStaticVarStmt: {
            // PHP statics persist across calls: bind the frame variable to
            // the persistent slot's current value; write-back happens when
            // the frame variable is re-read through the same statement on
            // the next call (value-copy approximation refreshed per call).
            const auto& n = static_cast<const php::StaticVarStmt&>(stmt);
            for (const auto& [name, init] : n.vars) {
                const auto key =
                    std::make_pair(static_cast<const void*>(&stmt), std::string(name));
                auto slot = static_slots_.find(key);
                if (slot == static_slots_.end()) {
                    Value initial = init ? eval(*init, frame) : Value();
                    slot = static_slots_.emplace(key, std::move(initial)).first;
                }
                frame.vars[std::string(name)] = slot->second;
                frame.static_bindings[std::string(name)] = &slot->second;
            }
            return Flow::kNormal;
        }
        case NodeKind::kUnsetStmt: {
            const auto& n = static_cast<const php::UnsetStmt&>(stmt);
            for (const php::ExprPtr& var : n.vars) {
                if (var && var->kind == NodeKind::kVariable) {
                    const auto& v = static_cast<const php::Variable&>(*var);
                    const auto vit = frame.vars.find(v.name);
                    if (vit != frame.vars.end()) frame.vars.erase(vit);
                    if (frame.is_global || frame.global_aliases.count(v.name)) {
                        const auto git = globals_.vars.find(v.name);
                        if (git != globals_.vars.end()) globals_.vars.erase(git);
                    }
                }
            }
            return Flow::kNormal;
        }
        case NodeKind::kTryStmt: {
            const auto& n = static_cast<const php::TryStmt&>(stmt);
            const Flow flow = exec_stmts(n.body, frame);
            exec_stmts(n.finally_body, frame);
            return flow;
        }
        case NodeKind::kThrowStmt:
            result_.error = "uncaught exception";
            return Flow::kExit;
        case NodeKind::kNamespaceStmt:
            return exec_stmts(static_cast<const php::NamespaceStmt&>(stmt).body,
                              frame);
        case NodeKind::kFunctionDecl:
        case NodeKind::kClassDecl:
        case NodeKind::kUseStmt:
        case NodeKind::kConstStmt:
            return Flow::kNormal;
        default:
            return Flow::kNormal;
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Value Interpreter::eval(const php::Expr& expr, Frame& frame) {
    if (!step()) return Value();
    switch (expr.kind) {
        case NodeKind::kLiteral: {
            const auto& n = static_cast<const php::Literal&>(expr);
            switch (n.type) {
                case php::Literal::Type::kString:
                    return Value::string(std::string(n.value));
                case php::Literal::Type::kInt:
                    return Value::integer(
                        std::strtol(std::string(n.value).c_str(), nullptr, 0));
                case php::Literal::Type::kFloat:
                    return Value::real(
                        std::strtod(std::string(n.value).c_str(), nullptr));
                case php::Literal::Type::kBool:
                    return Value::boolean(n.value == "true");
                case php::Literal::Type::kNull: return Value();
            }
            return Value();
        }
        case NodeKind::kInterpString: {
            const auto& n = static_cast<const php::InterpString&>(expr);
            std::string out;
            for (const php::ExprPtr& part : n.parts)
                if (part) out += eval(*part, frame).to_string();
            return Value::string(std::move(out));
        }
        case NodeKind::kVariable:
            return eval_variable(static_cast<const php::Variable&>(expr), frame);
        case NodeKind::kArrayAccess: {
            const auto& n = static_cast<const php::ArrayAccess&>(expr);
            if (!n.base) return Value();
            // Superglobal element with validator default flooding.
            if (n.base->kind == NodeKind::kVariable) {
                const auto& base = static_cast<const php::Variable&>(*n.base);
                const auto sg = superglobals_.find(base.name);
                if (sg != superglobals_.end()) {
                    const std::string key =
                        n.index ? eval(*n.index, frame).to_string() : "";
                    if (const Value* v = sg->second.array_data()->find(key))
                        return *v;
                    const auto dflt = superglobal_defaults_.find(base.name);
                    if (dflt != superglobal_defaults_.end())
                        return Value::string(dflt->second);
                    return Value();
                }
            }
            const Value base = eval(*n.base, frame);
            const std::string key = n.index ? eval(*n.index, frame).to_string() : "";
            if (is_db_row(base)) return Value::string(db_cell_);
            if (base.is_string()) {
                const long i = std::strtol(key.c_str(), nullptr, 10);
                const std::string s = base.to_string();
                if (i >= 0 && static_cast<size_t>(i) < s.size())
                    return Value::string(std::string(1, s[i]));
                return Value::string("");
            }
            return base.get_element(key);
        }
        case NodeKind::kPropertyAccess: {
            const auto& n = static_cast<const php::PropertyAccess&>(expr);
            if (!n.object) return Value();
            const Value object = eval(*n.object, frame);
            if (!object.is_object()) return Value();
            if (is_db_row(object)) return Value::string(db_cell_);
            const auto it = object.object_data()->properties.find(n.property);
            return it != object.object_data()->properties.end() ? it->second
                                                                : Value();
        }
        case NodeKind::kStaticPropertyAccess: {
            const auto& n = static_cast<const php::StaticPropertyAccess&>(expr);
            std::string skey = "::";
            skey += ascii_lower(n.class_name);
            skey += "::$";
            skey += n.property;
            const auto it = globals_.vars.find(skey);
            return it != globals_.vars.end() ? it->second : Value();
        }
        case NodeKind::kClassConstAccess:
            return Value();
        case NodeKind::kFunctionCall:
            return eval_call(static_cast<const php::FunctionCall&>(expr), frame);
        case NodeKind::kMethodCall:
            return eval_method(static_cast<const php::MethodCall&>(expr), frame);
        case NodeKind::kStaticCall:
            return eval_static_call(static_cast<const php::StaticCall&>(expr), frame);
        case NodeKind::kNew:
            return eval_new(static_cast<const php::New&>(expr), frame);
        case NodeKind::kAssign:
            return eval_assign(static_cast<const php::Assign&>(expr), frame);
        case NodeKind::kBinary:
            return eval_binary(static_cast<const php::Binary&>(expr), frame);
        case NodeKind::kUnary: {
            const auto& n = static_cast<const php::Unary&>(expr);
            if (!n.operand) return Value();
            const Value v = eval(*n.operand, frame);
            switch (n.op) {
                case php::UnaryOp::kNot: return Value::boolean(!v.to_bool());
                case php::UnaryOp::kMinus: return Value::integer(-v.to_int());
                case php::UnaryOp::kPlus: return Value::integer(v.to_int());
                case php::UnaryOp::kBitNot: return Value::integer(~v.to_int());
                case php::UnaryOp::kSuppress: return v;
            }
            return v;
        }
        case NodeKind::kCast: {
            const auto& n = static_cast<const php::Cast&>(expr);
            if (!n.operand) return Value();
            const Value v = eval(*n.operand, frame);
            if (n.type == "int" || n.type == "integer")
                return Value::integer(v.to_int());
            if (n.type == "float" || n.type == "double" || n.type == "real")
                return Value::real(v.to_float());
            if (n.type == "bool" || n.type == "boolean")
                return Value::boolean(v.to_bool());
            if (n.type == "string") return Value::string(v.to_string());
            return v;
        }
        case NodeKind::kTernary: {
            const auto& n = static_cast<const php::Ternary&>(expr);
            if (!n.cond) return Value();
            const Value cond = eval(*n.cond, frame);
            if (cond.to_bool())
                return n.then_expr ? eval(*n.then_expr, frame) : cond;
            return n.else_expr ? eval(*n.else_expr, frame) : Value();
        }
        case NodeKind::kArrayLiteral: {
            const auto& n = static_cast<const php::ArrayLiteral&>(expr);
            Value arr = Value::array();
            for (const php::ArrayItem& item : n.items) {
                if (!item.value) continue;
                Value v = eval(*item.value, frame);
                if (item.key)
                    arr.set_element(eval(*item.key, frame).to_string(), std::move(v));
                else
                    arr.push_element(std::move(v));
            }
            return arr;
        }
        case NodeKind::kIssetExpr: {
            const auto& n = static_cast<const php::IssetExpr&>(expr);
            bool all_set = true;
            for (const php::ExprPtr& v : n.vars) {
                if (!v) continue;
                if (v->kind == NodeKind::kVariable) {
                    const auto& var = static_cast<const php::Variable&>(*v);
                    const Frame& target =
                        frame.is_global || frame.global_aliases.count(var.name)
                            ? globals_
                            : frame;
                    if (!target.vars.count(var.name) &&
                        !superglobals_.count(var.name))
                        all_set = false;
                } else {
                    all_set = all_set && !eval(*v, frame).is_null();
                }
            }
            return Value::boolean(all_set);
        }
        case NodeKind::kEmptyExpr: {
            const auto& n = static_cast<const php::EmptyExpr&>(expr);
            if (!n.operand) return Value::boolean(true);
            // empty() does not create the variable; read without defaulting.
            if (n.operand->kind == NodeKind::kVariable) {
                const auto& var = static_cast<const php::Variable&>(*n.operand);
                Frame& target =
                    frame.is_global || frame.global_aliases.count(var.name)
                        ? globals_
                        : frame;
                const auto it = target.vars.find(var.name);
                return Value::boolean(it == target.vars.end() ||
                                      !it->second.to_bool());
            }
            return Value::boolean(!eval(*n.operand, frame).to_bool());
        }
        case NodeKind::kIncDec: {
            const auto& n = static_cast<const php::IncDec&>(expr);
            if (!n.operand || n.operand->kind != NodeKind::kVariable)
                return Value();
            const Value old = eval(*n.operand, frame);
            const long delta = n.increment ? 1 : -1;
            assign_to(*n.operand, Value::integer(old.to_int() + delta), frame);
            return n.prefix ? Value::integer(old.to_int() + delta) : old;
        }
        case NodeKind::kClosure: {
            const auto& n = static_cast<const php::Closure&>(expr);
            Value c = Value::object("__closure");
            c.object_data()->closure_node = &n;
            for (const auto& [name, by_ref] : n.uses) {
                Value* slot = lvalue_variable(name, frame);
                c.object_data()->properties[std::string(name)] =
                    slot ? *slot : Value();
            }
            return c;
        }
        case NodeKind::kIncludeExpr: {
            const auto& n = static_cast<const php::IncludeExpr&>(expr);
            if (!n.path) return Value();
            const std::string hint = eval(*n.path, frame).to_string();
            const php::ParsedFile* resolved = project_.resolve_include(hint);
            if (!resolved) return Value::boolean(false);
            if (static_cast<int>(include_stack_.size()) >=
                options_.max_include_depth)
                return Value::boolean(false);
            if (std::find(include_stack_.begin(), include_stack_.end(),
                          resolved->source->name()) != include_stack_.end())
                return Value::boolean(true);
            include_stack_.push_back(resolved->source->name());
            const Flow flow = exec_stmts(resolved->unit.statements, frame);
            include_stack_.pop_back();
            if (flow == Flow::kExit) pending_flow_ = Flow::kExit;
            return Value::boolean(true);
        }
        case NodeKind::kListExpr:
            return Value();
        case NodeKind::kInstanceOf: {
            const auto& n = static_cast<const php::InstanceOf&>(expr);
            if (!n.object) return Value::boolean(false);
            const Value v = eval(*n.object, frame);
            return Value::boolean(v.is_object() &&
                                  iequals(v.object_data()->class_name,
                                          n.class_name));
        }
        case NodeKind::kPrintExpr: {
            const auto& n = static_cast<const php::PrintExpr&>(expr);
            if (n.operand) emit(eval(*n.operand, frame).to_string());
            return Value::integer(1);
        }
        case NodeKind::kExitExpr: {
            const auto& n = static_cast<const php::ExitExpr&>(expr);
            if (n.operand) {
                const Value v = eval(*n.operand, frame);
                if (v.is_string()) emit(v.to_string());
            }
            pending_flow_ = Flow::kExit;
            result_.exited = true;
            return Value();
        }
        default:
            return Value();
    }
}

Value Interpreter::eval_variable(const php::Variable& var, Frame& frame) {
    const auto sg = superglobals_.find(var.name);
    if (sg != superglobals_.end()) return sg->second;
    if (var.name == kThisVar) return frame.this_object;
    if (var.name == kGlobalsVar) {
        Value all = Value::array();
        for (const auto& [name, value] : globals_.vars)
            all.set_element(name.substr(1), value);
        return all;
    }
    Frame& target = frame.is_global || frame.global_aliases.count(var.name)
                        ? globals_
                        : frame;
    const auto it = target.vars.find(var.name);
    return it != target.vars.end() ? it->second : Value();
}

Value* Interpreter::lvalue_variable(std::string_view name, Frame& frame) {
    Frame& target =
        frame.is_global || frame.global_aliases.count(name) ? globals_ : frame;
    const auto it = target.vars.find(name);
    if (it != target.vars.end()) return &it->second;
    return &target.vars.emplace(std::string(name), Value()).first->second;
}

void Interpreter::assign_to(const php::Expr& target, Value value, Frame& frame) {
    switch (target.kind) {
        case NodeKind::kVariable: {
            const auto& var = static_cast<const php::Variable&>(target);
            if (superglobals_.count(var.name)) return;
            *lvalue_variable(var.name, frame) = std::move(value);
            return;
        }
        case NodeKind::kArrayAccess: {
            const auto& access = static_cast<const php::ArrayAccess&>(target);
            if (!access.base || access.base->kind != NodeKind::kVariable) return;
            const auto& base = static_cast<const php::Variable&>(*access.base);
            Value* slot = lvalue_variable(base.name, frame);
            if (!slot->is_array()) *slot = Value::array();
            if (access.index)
                slot->set_element(eval(*access.index, frame).to_string(),
                                  std::move(value));
            else
                slot->push_element(std::move(value));
            return;
        }
        case NodeKind::kPropertyAccess: {
            const auto& access = static_cast<const php::PropertyAccess&>(target);
            if (!access.object || access.property.empty()) return;
            const Value object = eval(*access.object, frame);
            if (object.is_object())
                object.object_data()->properties[std::string(access.property)] =
                    std::move(value);
            return;
        }
        case NodeKind::kStaticPropertyAccess: {
            const auto& access =
                static_cast<const php::StaticPropertyAccess&>(target);
            std::string skey = "::";
            skey += ascii_lower(access.class_name);
            skey += "::$";
            skey += access.property;
            globals_.vars[std::move(skey)] = std::move(value);
            return;
        }
        case NodeKind::kListExpr: {
            const auto& list = static_cast<const php::ListExpr&>(target);
            int index = 0;
            for (const php::ExprPtr& element : list.elements) {
                if (element)
                    assign_to(*element, value.get_element(std::to_string(index)),
                              frame);
                ++index;
            }
            return;
        }
        default:
            return;
    }
}

Value Interpreter::eval_assign(const php::Assign& assign, Frame& frame) {
    if (!assign.target || !assign.value) return Value();
    Value value = eval(*assign.value, frame);
    switch (assign.op) {
        case php::AssignOp::kAssign:
            break;
        case php::AssignOp::kConcat:
            value = Value::string(eval(*assign.target, frame).to_string() +
                                  value.to_string());
            break;
        case php::AssignOp::kPlus:
            value = Value::integer(eval(*assign.target, frame).to_int() +
                                   value.to_int());
            break;
        case php::AssignOp::kMinus:
            value = Value::integer(eval(*assign.target, frame).to_int() -
                                   value.to_int());
            break;
        case php::AssignOp::kCoalesce: {
            const Value current = eval(*assign.target, frame);
            if (!current.is_null()) return current;
            break;
        }
        default:
            value = Value::integer(value.to_int());
            break;
    }
    assign_to(*assign.target, value, frame);
    return value;
}

Value Interpreter::eval_binary(const php::Binary& bin, Frame& frame) {
    using php::BinaryOp;
    if (!bin.lhs || !bin.rhs) return Value();
    // Short-circuit logical operators.
    if (bin.op == BinaryOp::kAnd) {
        if (!eval(*bin.lhs, frame).to_bool()) return Value::boolean(false);
        return Value::boolean(eval(*bin.rhs, frame).to_bool());
    }
    if (bin.op == BinaryOp::kOr) {
        if (eval(*bin.lhs, frame).to_bool()) return Value::boolean(true);
        return Value::boolean(eval(*bin.rhs, frame).to_bool());
    }
    const Value lhs = eval(*bin.lhs, frame);
    const Value rhs = eval(*bin.rhs, frame);
    switch (bin.op) {
        case BinaryOp::kConcat:
            return Value::string(lhs.to_string() + rhs.to_string());
        case BinaryOp::kAdd: return Value::integer(lhs.to_int() + rhs.to_int());
        case BinaryOp::kSub: return Value::integer(lhs.to_int() - rhs.to_int());
        case BinaryOp::kMul: return Value::integer(lhs.to_int() * rhs.to_int());
        case BinaryOp::kDiv:
            return rhs.to_int() == 0 ? Value()
                                     : Value::integer(lhs.to_int() / rhs.to_int());
        case BinaryOp::kMod:
            return rhs.to_int() == 0 ? Value()
                                     : Value::integer(lhs.to_int() % rhs.to_int());
        case BinaryOp::kEq: return Value::boolean(lhs.loose_equals(rhs));
        case BinaryOp::kNotEq: return Value::boolean(!lhs.loose_equals(rhs));
        case BinaryOp::kIdentical:
            return Value::boolean(lhs.type() == rhs.type() && lhs.loose_equals(rhs));
        case BinaryOp::kNotIdentical:
            return Value::boolean(!(lhs.type() == rhs.type() && lhs.loose_equals(rhs)));
        case BinaryOp::kLt: return Value::boolean(lhs.to_float() < rhs.to_float());
        case BinaryOp::kGt: return Value::boolean(lhs.to_float() > rhs.to_float());
        case BinaryOp::kLtEq: return Value::boolean(lhs.to_float() <= rhs.to_float());
        case BinaryOp::kGtEq: return Value::boolean(lhs.to_float() >= rhs.to_float());
        case BinaryOp::kCoalesce: return lhs.is_null() ? rhs : lhs;
        case BinaryOp::kXor:
            return Value::boolean(lhs.to_bool() != rhs.to_bool());
        default:
            return Value::integer(0);
    }
}

// ---------------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------------

Value Interpreter::call_user_function(const php::FunctionRef& ref,
                                      const std::vector<Value>& args,
                                      Value this_object, Frame& caller) {
    (void)caller;
    if (!ref.decl || call_depth_ >= options_.max_call_depth) return Value();
    ++call_depth_;
    Frame frame;
    frame.current_class = ref.owner;
    frame.this_object = std::move(this_object);
    for (size_t i = 0; i < ref.decl->params.size(); ++i) {
        const php::Param& param = ref.decl->params[i];
        if (i < args.size())
            frame.vars[std::string(param.name)] = args[i];
        else if (param.default_value)
            frame.vars[std::string(param.name)] = eval(*param.default_value, frame);
    }
    return_value_ = Value();
    const Flow flow = exec_stmts(ref.decl->body, frame);
    // Persist the final values of `static` variables for the next call.
    for (auto& [name, slot] : frame.static_bindings) {
        const auto it = frame.vars.find(name);
        if (it != frame.vars.end()) *slot = it->second;
    }
    --call_depth_;
    if (flow == Flow::kExit) pending_flow_ = Flow::kExit;
    // Generator: a body that yielded returns the collected values.
    if (!frame.yielded.empty()) {
        Value generated = Value::array();
        for (Value& v : frame.yielded) generated.push_element(std::move(v));
        return_value_ = Value();
        return generated;
    }
    Value result = return_value_;
    return_value_ = Value();
    return result;
}

Value Interpreter::eval_call(const php::FunctionCall& call, Frame& frame) {
    // Calls through an expression (closures, variable functions).
    if (call.name.empty()) {
        if (!call.callee) return Value();
        const Value callee = eval(*call.callee, frame);
        std::vector<Value> args;
        for (const php::Argument& a : call.args)
            args.push_back(a.value ? eval(*a.value, frame) : Value());
        if (callee.is_object() && callee.object_data()->closure_node) {
            const auto* closure =
                static_cast<const php::Closure*>(callee.object_data()->closure_node);
            if (call_depth_ >= options_.max_call_depth) return Value();
            ++call_depth_;
            Frame body;
            body.current_class = frame.current_class;
            body.this_object = frame.this_object;
            for (const auto& [name, value] : callee.object_data()->properties)
                body.vars[name] = value;
            for (size_t i = 0; i < closure->params.size() && i < args.size(); ++i)
                body.vars[std::string(closure->params[i].name)] = args[i];
            return_value_ = Value();
            const Flow flow = exec_stmts(closure->body, body);
            --call_depth_;
            if (flow == Flow::kExit) pending_flow_ = Flow::kExit;
            return return_value_;
        }
        // Variable function: "$fn" holding a function name.
        if (callee.is_string()) {
            if (const php::FunctionRef* ref = project_.find_function(callee.to_string()))
                return call_user_function(*ref, args, Value(), frame);
        }
        return Value();
    }

    std::vector<Value> args;
    for (const php::Argument& a : call.args)
        args.push_back(a.value ? eval(*a.value, frame) : Value());

    const std::string lower = ascii_lower(call.name);
    if (lower == "__yield") {
        // Generator body: collect the yielded value ('k' => v yields v).
        if (!args.empty()) frame.yielded.push_back(args.back());
        return Value();
    }
    if (std::optional<Value> out = call_builtin(lower, args, call.args, frame))
        return *std::move(out);

    if (const php::FunctionRef* ref = project_.find_function(call.name))
        return call_user_function(*ref, args, Value(), frame);
    return Value();
}

Value Interpreter::eval_method(const php::MethodCall& call, Frame& frame) {
    if (!call.object || call.method.empty()) return Value();
    const Value object = eval(*call.object, frame);
    std::vector<Value> args;
    for (const php::Argument& a : call.args)
        args.push_back(a.value ? eval(*a.value, frame) : Value());
    if (!object.is_object()) return Value();
    const std::string& cls = object.object_data()->class_name;
    if (std::optional<Value> out =
            call_builtin(cls + "::" + ascii_lower(call.method), args, call.args, frame))
        return *std::move(out);
    // $wpdb stands in for WordPress itself: its methods never resolve to
    // plugin code, and one without a row yields null.
    if (cls == "wpdb") return Value();
    if (const php::FunctionRef* ref = project_.find_method(cls, call.method))
        return call_user_function(*ref, args, object, frame);
    return Value();
}

Value Interpreter::eval_static_call(const php::StaticCall& call, Frame& frame) {
    std::vector<Value> args;
    for (const php::Argument& a : call.args)
        args.push_back(a.value ? eval(*a.value, frame) : Value());
    std::string cls = ascii_lower(call.class_name);
    if ((cls == "self" || cls == "static") && frame.current_class)
        cls = ascii_lower(frame.current_class->name);
    if (cls == "parent" && frame.current_class)
        cls = ascii_lower(frame.current_class->parent);
    if (const php::FunctionRef* ref = project_.find_method(cls, call.method))
        return call_user_function(*ref, args, frame.this_object, frame);
    return Value();
}

Value Interpreter::eval_new(const php::New& expr, Frame& frame) {
    if (expr.class_name.empty()) return Value();
    std::string cls = ascii_lower(expr.class_name);
    if (cls == "self" && frame.current_class)
        cls = ascii_lower(frame.current_class->name);
    Value object = Value::object(cls);
    const php::ClassDecl* decl = project_.find_class(cls);
    // Re-entrant construction (a property default `new`ing its own class,
    // directly or through a cycle) would recurse forever; skip it.
    if (decl && constructing_classes_.insert(cls).second) {
        for (const php::PropertyDecl& prop : decl->properties)
            object.object_data()->properties[std::string(prop.name)] =
                prop.default_value ? eval(*prop.default_value, frame) : Value();
        std::vector<Value> args;
        for (const php::Argument& a : expr.args)
            args.push_back(a.value ? eval(*a.value, frame) : Value());
        if (const php::FunctionRef* ctor = project_.find_method(cls, "__construct"))
            call_user_function(*ctor, args, object, frame);
        constructing_classes_.erase(cls);
    }
    return object;
}

// ---------------------------------------------------------------------------
// Built-in table
// ---------------------------------------------------------------------------

struct Interpreter::BuiltinCall {
    Interpreter& in;
    std::vector<Value>& args;
    /// The argument expressions, for built-ins that write a by-reference
    /// argument (preg_match) or look at how a handler was passed.
    const ArenaVector<php::Argument>& arg_exprs;
    Frame& frame;

    std::string str(size_t i) const {
        return i < args.size() ? args[i].to_string() : std::string();
    }
    long integer(size_t i) const { return i < args.size() ? args[i].to_int() : 0; }
    /// Records argument `i` as a SQL string sent to the database.
    void record_query(size_t i) { in.result_.queries.push_back(str(i)); }
};

const Interpreter::BuiltinTable& Interpreter::builtins() {
    static const BuiltinTable table = [] {
        using Impl = Value (*)(BuiltinCall&);
        BuiltinTable t;
        const auto add = [&t](std::initializer_list<std::string_view> keys,
                              Impl impl, std::string_view opaque_reason = {}) {
            for (std::string_view key : keys) {
                [[maybe_unused]] const bool fresh =
                    t.emplace(std::string(key), Builtin{impl, opaque_reason}).second;
                assert(fresh && "built-in key listed twice");
            }
        };
        const auto opaque = [&add](std::initializer_list<std::string_view> keys,
                                   std::string_view reason) {
            add(keys, nullptr, reason);
        };

        // --- output ------------------------------------------------------------
        add({"printf"}, [](BuiltinCall& c) {
            const std::string rendered = format_percent(c.args, /*quote_strings=*/false);
            c.in.emit(rendered);
            return Value::integer(static_cast<long>(rendered.size()));
        });
        add({"vprintf"}, [](BuiltinCall& c) {
            // The values come as one array. Any other second argument is
            // PHP 8's TypeError and prints nothing (PHP 5 and 7 cast a
            // scalar to a one-element array instead).
            if (c.args.size() != 2 || !c.args[1].is_array()) return Value::boolean(false);
            std::vector<Value> args{c.args[0]};
            for (const auto& [key, value] : c.args[1].array_data()->entries)
                args.push_back(value);
            const std::string rendered = format_percent(args, /*quote_strings=*/false);
            c.in.emit(rendered);
            return Value::integer(static_cast<long>(rendered.size()));
        });
        add({"print_r", "var_dump"}, [](BuiltinCall& c) {
            c.in.emit(c.str(0));
            return Value::boolean(true);
        });
        add({"_e", "trigger_error", "drupal_set_message"}, [](BuiltinCall& c) {
            c.in.emit(c.str(0));
            return Value();
        });
        add({"wp_die"}, [](BuiltinCall& c) {
            c.in.emit(c.str(0));
            c.in.pending_flow_ = Flow::kExit;
            c.in.result_.exited = true;
            return Value();
        });

        // --- database: queries return handles the fetch functions step ----------
        add({"mysql_query", "pg_query", "db_query", "mysqli::query"}, [](BuiltinCall& c) {
            c.record_query(0);
            return c.in.make_result_handle();
        });
        add({"mysqli_query"}, [](BuiltinCall& c) {  // the link comes first
            c.record_query(1);
            return c.in.make_result_handle();
        });
        add({"mysql_fetch_assoc", "mysql_fetch_array", "mysql_fetch_object",
             "mysqli_fetch_assoc", "db_fetch_object", "db_fetch_array"},
            [](BuiltinCall& c) {
                if (c.args.empty() || !c.args[0].is_object() ||
                    c.args[0].object_data()->cursor >= static_cast<size_t>(c.in.db_rows_))
                    return Value::boolean(false);
                ++c.args[0].object_data()->cursor;
                return c.in.make_db_row();
            });
        add({"wpdb::query"}, [](BuiltinCall& c) {
            c.record_query(0);
            return Value::integer(1);
        });
        add({"wpdb::get_results"}, [](BuiltinCall& c) {
            c.record_query(0);
            Value rows = Value::array();
            for (int i = 0; i < c.in.db_rows_; ++i) rows.push_element(c.in.make_db_row());
            return rows;
        });
        add({"wpdb::get_col"}, [](BuiltinCall& c) {
            c.record_query(0);
            Value cells = Value::array();
            for (int i = 0; i < c.in.db_rows_; ++i)
                cells.push_element(Value::string(c.in.db_cell_));
            return cells;
        });
        add({"wpdb::get_row"}, [](BuiltinCall& c) {
            c.record_query(0);
            return c.in.make_db_row();
        });
        add({"wpdb::get_var"}, [](BuiltinCall& c) {
            c.record_query(0);
            return Value::string(c.in.db_cell_);
        });
        // insert/update/delete build parameterized queries internally.
        add({"wpdb::insert", "wpdb::update", "wpdb::delete"},
            [](BuiltinCall&) { return Value::integer(1); });

        // --- sanitizers ----------------------------------------------------------
        add({"htmlspecialchars", "htmlentities", "esc_html", "esc_attr", "esc_textarea",
             "check_plain"},
            [](BuiltinCall& c) { return Value::string(php_htmlspecialchars(c.str(0))); });
        add({"strip_tags", "wp_kses", "wp_kses_post", "filter_xss", "sanitize_text_field"},
            [](BuiltinCall& c) { return Value::string(php_strip_tags(c.str(0))); });
        add({"intval"}, [](BuiltinCall& c) { return Value::integer(c.integer(0)); });
        add({"absint"}, [](BuiltinCall& c) {
            const long v = c.integer(0);
            return Value::integer(v < 0 ? -v : v);
        });
        add({"floatval", "doubleval"}, [](BuiltinCall& c) {
            return Value::real(c.args.empty() ? 0 : c.args[0].to_float());
        });
        add({"addslashes", "mysql_escape_string", "mysql_real_escape_string", "esc_sql",
             "like_escape", "wp_slash", "wpdb::esc_like", "wpdb::_real_escape"},
            [](BuiltinCall& c) { return Value::string(php_addslashes(c.str(0))); });
        add({"mysqli_real_escape_string"}, [](BuiltinCall& c) {  // the link comes first
            return Value::string(php_addslashes(c.str(c.args.size() > 1 ? 1 : 0)));
        });
        // wpdb::prepare quotes and escapes %s arguments, so a prepared query
        // neutralizes the SQLi payload as the real one does.
        add({"wpdb::prepare"}, [](BuiltinCall& c) {
            return Value::string(format_percent(c.args, /*quote_strings=*/true));
        });
        add({"urlencode", "rawurlencode"}, [](BuiltinCall& c) {
            std::string encoded;
            for (unsigned char ch : c.str(0)) {
                if (std::isalnum(ch) || ch == '-' || ch == '_' || ch == '.') {
                    encoded += static_cast<char>(ch);
                } else {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "%%%02X", ch);
                    encoded += buf;
                }
            }
            return Value::string(std::move(encoded));
        });
        add({"number_format"},
            [](BuiltinCall& c) { return Value::string(std::to_string(c.integer(0))); });
        add({"md5", "sha1"}, [](BuiltinCall& c) {
            return Value::string("hash-" + std::to_string(std::hash<std::string>{}(c.str(0))));
        });
        add({"json_encode"}, [](BuiltinCall& c) {
            std::string encoded = "\"";
            for (char ch : c.str(0)) {
                if (ch == '"') encoded += "\\\"";
                else if (ch == '\\') encoded += "\\\\";
                else if (ch == '/') encoded += "\\/";
                else if (ch == '<') encoded += "\\u003C";  // PHP escapes per flags; be safe
                else encoded += ch;
            }
            encoded += "\"";
            return Value::string(std::move(encoded));
        });

        // --- reverts ---------------------------------------------------------------
        add({"stripslashes", "stripcslashes", "wp_unslash"},
            [](BuiltinCall& c) { return Value::string(php_stripslashes(c.str(0))); });
        add({"html_entity_decode", "htmlspecialchars_decode"}, [](BuiltinCall& c) {
            std::string s = c.str(0);
            s = replace_all(std::move(s), "&amp;", "&");
            s = replace_all(std::move(s), "&lt;", "<");
            s = replace_all(std::move(s), "&gt;", ">");
            s = replace_all(std::move(s), "&quot;", "\"");
            s = replace_all(std::move(s), "&#039;", "'");
            return Value::string(std::move(s));
        });
        add({"urldecode", "rawurldecode"}, [](BuiltinCall& c) {
            const std::string s = c.str(0);
            std::string decoded;
            for (size_t i = 0; i < s.size(); ++i) {
                if (s[i] == '%' && i + 2 < s.size()) {
                    decoded += static_cast<char>(
                        std::strtol(s.substr(i + 1, 2).c_str(), nullptr, 16));
                    i += 2;
                } else {
                    decoded += s[i];
                }
            }
            return Value::string(std::move(decoded));
        });

        // --- string and array helpers ----------------------------------------------
        add({"sprintf"}, [](BuiltinCall& c) {
            return Value::string(format_percent(c.args, /*quote_strings=*/false));
        });
        add({"trim", "ltrim", "rtrim"}, [](BuiltinCall& c) {
            return Value::string(std::string(phpsafe::trim(c.str(0))));
        });
        add({"strtolower"}, [](BuiltinCall& c) { return Value::string(ascii_lower(c.str(0))); });
        add({"strtoupper"}, [](BuiltinCall& c) {
            std::string s = c.str(0);
            for (char& ch : s) ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
            return Value::string(std::move(s));
        });
        add({"str_replace"}, [](BuiltinCall& c) {
            return Value::string(replace_all(c.str(2), c.str(0), c.str(1)));
        });
        add({"substr"}, [](BuiltinCall& c) {
            const std::string s = c.str(0);
            long start = c.integer(1);
            if (start < 0) start = std::max<long>(0, static_cast<long>(s.size()) + start);
            if (start >= static_cast<long>(s.size())) return Value::string("");
            const long len = c.args.size() > 2 ? c.args[2].to_int()
                                               : static_cast<long>(s.size()) - start;
            return Value::string(s.substr(start, std::max<long>(0, len)));
        });
        add({"strlen"}, [](BuiltinCall& c) {
            return Value::integer(static_cast<long>(c.str(0).size()));
        });
        add({"count", "sizeof"}, [](BuiltinCall& c) {
            return Value::integer(c.args.empty() ? 0 : static_cast<long>(c.args[0].array_size()));
        });
        add({"implode", "join"}, [](BuiltinCall& c) {
            if (c.args.empty()) return Value::string("");
            const std::string sep = c.args.size() > 1 ? c.str(0) : "";
            const Value& arr = c.args.size() > 1 ? c.args[1] : c.args[0];
            std::string joined;
            if (arr.is_array()) {
                bool first = true;
                for (const auto& [k, v] : arr.array_data()->entries) {
                    if (!first) joined += sep;
                    joined += v.to_string();
                    first = false;
                }
            }
            return Value::string(std::move(joined));
        });
        add({"explode"}, [](BuiltinCall& c) {
            Value arr = Value::array();
            const std::string sep = c.str(0);
            if (!sep.empty())
                for (const std::string& part : split(c.str(1), sep[0]))
                    arr.push_element(Value::string(part));
            return arr;
        });
        add({"in_array"}, [](BuiltinCall& c) {
            bool found = false;
            if (c.args.size() > 1 && c.args[1].is_array())
                for (const auto& [k, v] : c.args[1].array_data()->entries)
                    if (v.loose_equals(c.args[0])) found = true;
            return Value::boolean(found);
        });
        add({"is_numeric"}, [](BuiltinCall& c) {
            return Value::boolean(!c.args.empty() &&
                                  (c.args[0].type() == Value::Type::kInt ||
                                   c.args[0].type() == Value::Type::kFloat ||
                                   is_numeric_string(c.args[0].to_string())));
        });
        add({"ctype_digit"}, [](BuiltinCall& c) {
            const std::string s = c.str(0);
            bool all = !s.empty();
            for (char ch : s)
                if (!std::isdigit(static_cast<unsigned char>(ch))) all = false;
            return Value::boolean(all);
        });
        add({"is_array"},
            [](BuiltinCall& c) { return Value::boolean(!c.args.empty() && c.args[0].is_array()); });
        add({"is_string"},
            [](BuiltinCall& c) { return Value::boolean(!c.args.empty() && c.args[0].is_string()); });
        add({"preg_match"}, [](BuiltinCall& c) {
            std::smatch m;
            const std::string subject = c.str(1);
            const bool matched = pcre_match(c.str(0), subject, &m);
            if (c.arg_exprs.size() > 2 && c.arg_exprs[2].value) {
                Value matches = Value::array();
                for (const auto& group : m) matches.push_element(Value::string(group.str()));
                c.in.assign_to(*c.arg_exprs[2].value, std::move(matches), c.frame);
            }
            return Value::integer(matched ? 1 : 0);
        });

        // --- files -----------------------------------------------------------------
        add({"fopen"}, [](BuiltinCall& c) { return c.in.make_result_handle(); });
        add({"fgets", "fread"}, [](BuiltinCall& c) {
            if (c.args.empty() || !c.args[0].is_object() || c.args[0].object_data()->cursor != 0)
                return Value::boolean(false);
            ++c.args[0].object_data()->cursor;
            return Value::string(c.in.file_contents_);
        });
        add({"file_get_contents"},
            [](BuiltinCall& c) { return Value::string(c.in.file_contents_); });
        add({"dirname"}, [](BuiltinCall& c) {
            const std::string path = c.str(0);
            const size_t slash = path.rfind('/');
            return Value::string(slash == std::string::npos ? "." : path.substr(0, slash));
        });
        add({"fclose", "error_reporting", "ini_set", "header", "ob_start", "define"},
            [](BuiltinCall&) { return Value::boolean(true); });

        // --- CMS helpers -------------------------------------------------------------
        add({"get_option", "get_site_option", "get_post_meta", "get_user_meta",
             "get_transient", "variable_get"},
            [](BuiltinCall& c) { return Value::string(c.in.cms_store_); });
        add({"get_the_id"}, [](BuiltinCall&) { return Value::integer(7); });
        add({"__", "_x", "do_shortcode"},
            [](BuiltinCall& c) { return c.args.empty() ? Value() : c.args[0]; });
        add({"apply_filters"},  // apply_filters($tag, $value)
            [](BuiltinCall& c) { return c.args.size() < 2 ? Value() : c.args[1]; });
        add({"add_action", "add_filter", "add_shortcode"}, [](BuiltinCall& c) {
            // The CMS will invoke the handler; model it as an immediate call.
            if (c.arg_exprs.size() > 1 && c.arg_exprs[1].value) {
                const Value handler = c.args.size() > 1 ? c.args[1] : Value();
                if (handler.is_object() && handler.object_data()->closure_node) {
                    const auto* closure = static_cast<const php::Closure*>(
                        handler.object_data()->closure_node);
                    // Execute the closure with no arguments.
                    Frame body;
                    body.current_class = c.frame.current_class;
                    for (const auto& [name, value] : handler.object_data()->properties)
                        body.vars[name] = value;
                    c.in.exec_stmts(closure->body, body);
                } else if (handler.is_string()) {
                    if (const php::FunctionRef* ref =
                            c.in.project_.find_function(handler.to_string()))
                        c.in.call_user_function(*ref, {}, Value(), c.frame);
                }
            }
            return Value::boolean(true);
        });
        add({"extract"}, [](BuiltinCall& c) {
            if (!c.args.empty() && c.args[0].is_array())
                for (const auto& [key, value] : c.args[0].array_data()->entries)
                    *c.in.lvalue_variable("$" + key, c.frame) = value;
            return Value::integer(c.args.empty() ? 0 : static_cast<long>(c.args[0].array_size()));
        });
        add({"function_exists"}, [](BuiltinCall& c) {
            return Value::boolean(c.in.project_.find_function(c.str(0)) != nullptr);
        });
        add({"isset", "empty"}, [](BuiltinCall&) { return Value::boolean(false); });

        // --- opaque rows ---------------------------------------------------------------
        // Knowledge-base sanitizers, reverts and sinks with no concrete
        // semantics yet. No corpus pattern, fuzz mutation or regression input
        // calls them, so no validation verdict depends on them; each is an
        // input to the engine/interpreter audit (ROADMAP item 4).
        opaque({"mysqli_escape_string", "pg_escape_string", "sqlite_escape_string",
                "db_escape_string", "mysqli::real_escape_string"},
               "SQL escaper for a driver the stub database does not model");
        opaque({"boolval", "crc32", "hash", "base64_encode", "bin2hex", "dechex", "decoct",
                "decbin", "uuencode", "soundex", "metaphone"},
               "coercion, hash or encoding not modelled");
        opaque({"base64_decode"}, "decoder not modelled");
        opaque({"filter_var", "filter_input", "escapeshellarg", "escapeshellcmd"},
               "filter or shell escaper not modelled");
        opaque({"mysql_unbuffered_query", "mysql_db_query", "sqlite_query",
                "mysqli_multi_query", "mysqli_real_query", "db_query_range"},
               "query executor not modelled: its query is not captured");
        opaque({"esc_js", "esc_url", "esc_url_raw", "tag_escape", "wp_kses_data",
                "sanitize_title", "sanitize_email", "sanitize_key", "sanitize_file_name",
                "sanitize_html_class", "sanitize_user", "sanitize_mime_type"},
               "WordPress escaper or sanitizer not modelled");
        opaque({"check_markup", "filter_xss_admin", "check_url"},
               "Drupal filter not modelled");
        opaque({"drupal_set_title"}, "output sink not modelled: its output is not captured");
        opaque({"jdatabase::setquery", "jdatabase::escape", "jdatabase::quote",
                "jdatabasedriver::setquery", "jdatabasedriver::escape",
                "jdatabasedriver::quote", "jfilteroutput::cleantext"},
               "Joomla API not modelled: there is no stub Joomla object");
        opaque({"::get_results", "::get_var", "::get_row", "::get_col", "::prepare"},
               "any-receiver KB rule: the interpreter dispatches on the receiver's "
               "class, and only the wpdb:: rows have semantics");
        return t;
    }();
    return table;
}

std::optional<Value> Interpreter::call_builtin(std::string_view key,
                                               std::vector<Value>& args,
                                               const ArenaVector<php::Argument>& arg_exprs,
                                               Frame& frame) {
    const BuiltinTable& table = builtins();
    const auto row = table.find(key);
    if (row == table.end() || row->second.opaque()) return std::nullopt;
    BuiltinCall call{*this, args, arg_exprs, frame};
    return row->second.impl(call);
}

}  // namespace phpsafe::dynamic
