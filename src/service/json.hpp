// Nano-Sim — minimal JSON document model for the service wire protocol.
//
// The `nanosim serve` daemon speaks newline-delimited JSON, and the
// AnalysisSpec/AnalysisResult wire schema (service/wire.hpp) needs a
// (de)serialization substrate that round-trips IEEE doubles exactly —
// waveforms crossing the wire must compare bit-identical to an
// in-process run.  Nothing on the system provides that without a new
// dependency, so this is a deliberately small, std-only document model:
//
//  * Value — tagged union over null / bool / number / string / array /
//    object.  Objects are std::map (sorted keys), so dump() output is
//    deterministic — the same golden-output property obs::MetricsRegistry
//    established for its JSON export.
//  * parse() — strict recursive-descent parser.  Malformed or truncated
//    input THROWS ServiceError, never crashes and never returns a
//    partial document (the parser-fuzz contract the netlist parser
//    already follows).  Nesting depth is capped so a hostile client
//    cannot overflow the stack.
//  * dump() — numbers print via std::to_chars (shortest representation
//    that parses back to the same double), so dump/parse round-trips
//    are bit-exact.  Non-finite numbers have no JSON spelling and
//    serialize as null.
#ifndef NANOSIM_SERVICE_JSON_HPP
#define NANOSIM_SERVICE_JSON_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace nanosim::service::json {

class Value;

/// JSON array / object storage.  std::map keeps dump() deterministic
/// (sorted keys) and lookup simple; insertion order is not semantic in
/// the wire protocol.
using Array = std::vector<Value>;
using Object = std::map<std::string, Value, std::less<>>;

/// One JSON document node.
class Value {
public:
    Value() noexcept : data_(nullptr) {}
    Value(std::nullptr_t) noexcept : data_(nullptr) {}
    Value(bool b) noexcept : data_(b) {}
    Value(double d) noexcept : data_(d) {}
    Value(int i) noexcept : data_(static_cast<double>(i)) {}
    /// uint64 job ids / signatures are exact up to 2^53; anything larger
    /// is serialized as a decimal STRING by the callers that need it.
    Value(std::string s) noexcept : data_(std::move(s)) {}
    Value(const char* s) : data_(std::string(s)) {}
    Value(Array a) noexcept : data_(std::move(a)) {}
    Value(Object o) noexcept : data_(std::move(o)) {}

    [[nodiscard]] bool is_null() const noexcept {
        return std::holds_alternative<std::nullptr_t>(data_);
    }
    [[nodiscard]] bool is_bool() const noexcept {
        return std::holds_alternative<bool>(data_);
    }
    [[nodiscard]] bool is_number() const noexcept {
        return std::holds_alternative<double>(data_);
    }
    [[nodiscard]] bool is_string() const noexcept {
        return std::holds_alternative<std::string>(data_);
    }
    [[nodiscard]] bool is_array() const noexcept {
        return std::holds_alternative<Array>(data_);
    }
    [[nodiscard]] bool is_object() const noexcept {
        return std::holds_alternative<Object>(data_);
    }

    // Checked accessors: throw ServiceError on a kind mismatch — a
    // malformed wire message must fail loudly, not decay to a default.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const Array& as_array() const;
    [[nodiscard]] const Object& as_object() const;
    [[nodiscard]] Array& as_array();
    [[nodiscard]] Object& as_object();

    /// as_number() checked to be integral and within [0, 2^53].
    [[nodiscard]] std::uint64_t as_uint() const;
    /// as_number() checked to be integral and within int range.
    [[nodiscard]] int as_int() const;

    // ---- object conveniences (throw ServiceError unless is_object) ----

    /// Member pointer, nullptr when absent.
    [[nodiscard]] const Value* find(std::string_view key) const;
    /// Member reference; throws ServiceError when absent.
    [[nodiscard]] const Value& at(std::string_view key) const;
    [[nodiscard]] bool has(std::string_view key) const {
        return find(key) != nullptr;
    }
    /// Insert or overwrite a member (creates the object on a null value).
    void set(std::string key, Value v);

    /// Serialize (compact, deterministic).  Non-finite numbers → null.
    [[nodiscard]] std::string dump() const;

    /// Same kind and contents (numbers compare as doubles: -0 == 0).
    [[nodiscard]] bool operator==(const Value&) const = default;

private:
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
        data_;
};

/// Parse one complete JSON document.  Trailing whitespace is allowed,
/// trailing garbage is not.  Throws ServiceError (with a byte offset in
/// the message) on any malformed, truncated, or too-deeply-nested input.
[[nodiscard]] Value parse(std::string_view text);

/// Shortest round-trip decimal form of a double (std::to_chars);
/// non-finite values render as "null".
[[nodiscard]] std::string number_to_string(double v);

} // namespace nanosim::service::json

#endif // NANOSIM_SERVICE_JSON_HPP
