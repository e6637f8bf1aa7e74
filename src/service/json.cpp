#include "service/json.hpp"

#include "util/error.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace nanosim::service::json {
namespace {

/// Nesting cap for arrays/objects: deep enough for any wire message the
/// service emits (specs nest ~4 levels), shallow enough that hostile
/// input cannot exhaust the parser's call stack.
constexpr int k_max_depth = 64;

/// Doubles are exact integers up to 2^53; uint64 values above that
/// cannot travel as JSON numbers without silent rounding.
constexpr double k_max_exact_integer = 9007199254740992.0; // 2^53

[[noreturn]] void fail_kind(const char* want, const char* got) {
    throw ServiceError(std::string("json: expected ") + want + ", got " +
                       got);
}

const char* kind_name(const Value& v) {
    if (v.is_null()) return "null";
    if (v.is_bool()) return "boolean";
    if (v.is_number()) return "number";
    if (v.is_string()) return "string";
    if (v.is_array()) return "array";
    return "object";
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

void append_escaped(std::string& out, const std::string& s) {
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

/// Shortest round-trip form (std::to_chars), written straight into `out`:
/// no string per number.  Bare integers ("42") are valid JSON numbers
/// already; non-finite values have no spelling and print as null.
void append_number(std::string& out, double v) {
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[32];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    assert(ec == std::errc());
    (void)ec;
    out.append(buf, ptr);
}

void append_value(std::string& out, const Value& v) {
    if (v.is_null()) {
        out += "null";
    } else if (v.is_bool()) {
        out += v.as_bool() ? "true" : "false";
    } else if (v.is_number()) {
        append_number(out, v.as_number());
    } else if (v.is_string()) {
        append_escaped(out, v.as_string());
    } else if (v.is_array()) {
        out += '[';
        bool first = true;
        for (const Value& e : v.as_array()) {
            if (!first) out += ',';
            first = false;
            append_value(out, e);
        }
        out += ']';
    } else {
        out += '{';
        bool first = true;
        for (const auto& [key, member] : v.as_object()) {
            if (!first) out += ',';
            first = false;
            append_escaped(out, key);
            out += ':';
            append_value(out, member);
        }
        out += '}';
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value parse_document() {
        skip_ws();
        Value v = parse_value(0);
        skip_ws();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

private:
    std::string_view text_;
    std::size_t pos_ = 0;

    [[noreturn]] void fail(const std::string& why) const {
        throw ServiceError("json parse error at byte " +
                           std::to_string(pos_) + ": " + why);
    }

    [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
    [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

    void skip_ws() noexcept {
        while (!eof()) {
            char c = peek();
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    void expect(char c) {
        if (eof() || peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }

    Value parse_value(int depth) {
        if (depth > k_max_depth) fail("nesting too deep");
        if (eof()) fail("unexpected end of input");
        switch (peek()) {
        case '{': return parse_object(depth);
        case '[': return parse_array(depth);
        case '"': return Value(parse_string());
        case 't':
            if (consume_literal("true")) return Value(true);
            fail("invalid literal");
        case 'f':
            if (consume_literal("false")) return Value(false);
            fail("invalid literal");
        case 'n':
            if (consume_literal("null")) return Value(nullptr);
            fail("invalid literal");
        default: return Value(parse_number());
        }
    }

    Value parse_object(int depth) {
        expect('{');
        Object obj;
        skip_ws();
        if (!eof() && peek() == '}') {
            ++pos_;
            return Value(std::move(obj));
        }
        for (;;) {
            skip_ws();
            if (eof() || peek() != '"') fail("expected object key");
            std::string key = parse_string();
            skip_ws();
            expect(':');
            skip_ws();
            Value member = parse_value(depth + 1);
            if (!obj.emplace(std::move(key), std::move(member)).second)
                fail("duplicate object key");
            skip_ws();
            if (eof()) fail("unterminated object");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return Value(std::move(obj));
        }
    }

    Value parse_array(int depth) {
        expect('[');
        Array arr;
        skip_ws();
        if (!eof() && peek() == ']') {
            ++pos_;
            return Value(std::move(arr));
        }
        for (;;) {
            skip_ws();
            arr.push_back(parse_value(depth + 1));
            skip_ws();
            if (eof()) fail("unterminated array");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return Value(std::move(arr));
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            if (eof()) fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (eof()) fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': append_unicode_escape(out); break;
            default: fail("invalid escape character");
            }
        }
    }

    unsigned parse_hex4() {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_++];
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid hex digit in \\u escape");
        }
        return code;
    }

    void append_unicode_escape(std::string& out) {
        unsigned code = parse_hex4();
        if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
                fail("lone high surrogate");
            pos_ += 2;
            unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF)
                fail("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("lone low surrogate");
        }
        // UTF-8 encode.
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    double parse_number() {
        std::size_t start = pos_;
        if (!eof() && peek() == '-') ++pos_;
        if (eof() || peek() < '0' || peek() > '9')
            fail("invalid number");
        if (peek() == '0') {
            ++pos_; // leading zero must stand alone
        } else {
            while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
        }
        if (!eof() && peek() == '.') {
            ++pos_;
            if (eof() || peek() < '0' || peek() > '9')
                fail("digit required after decimal point");
            while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
            if (eof() || peek() < '0' || peek() > '9')
                fail("digit required in exponent");
            while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
        }
        double value = 0.0;
        const char* first = text_.data() + start;
        const char* last = text_.data() + pos_;
        auto [ptr, ec] = std::from_chars(first, last, value);
        if (ec == std::errc::result_out_of_range) {
            // |x| > DBL_MAX overflows to +-inf; JSON has no spelling for
            // that, so reject rather than round-trip through null.
            fail("number out of double range");
        }
        if (ec != std::errc() || ptr != last) fail("invalid number");
        return value;
    }
};

} // namespace

bool Value::as_bool() const {
    if (const bool* b = std::get_if<bool>(&data_)) return *b;
    fail_kind("boolean", kind_name(*this));
}

double Value::as_number() const {
    if (const double* d = std::get_if<double>(&data_)) return *d;
    fail_kind("number", kind_name(*this));
}

const std::string& Value::as_string() const {
    if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
    fail_kind("string", kind_name(*this));
}

const Array& Value::as_array() const {
    if (const Array* a = std::get_if<Array>(&data_)) return *a;
    fail_kind("array", kind_name(*this));
}

const Object& Value::as_object() const {
    if (const Object* o = std::get_if<Object>(&data_)) return *o;
    fail_kind("object", kind_name(*this));
}

Array& Value::as_array() {
    if (Array* a = std::get_if<Array>(&data_)) return *a;
    fail_kind("array", kind_name(*this));
}

Object& Value::as_object() {
    if (Object* o = std::get_if<Object>(&data_)) return *o;
    fail_kind("object", kind_name(*this));
}

std::uint64_t Value::as_uint() const {
    double d = as_number();
    if (!(d >= 0.0) || d > k_max_exact_integer || d != std::floor(d))
        throw ServiceError("json: expected non-negative integer, got " +
                           number_to_string(d));
    return static_cast<std::uint64_t>(d);
}

int Value::as_int() const {
    double d = as_number();
    if (d != std::floor(d) || d < std::numeric_limits<int>::min() ||
        d > std::numeric_limits<int>::max())
        throw ServiceError("json: expected integer, got " +
                           number_to_string(d));
    return static_cast<int>(d);
}

const Value* Value::find(std::string_view key) const {
    const Object& obj = as_object();
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
}

const Value& Value::at(std::string_view key) const {
    if (const Value* v = find(key)) return *v;
    throw ServiceError("json: missing required key \"" + std::string(key) +
                       "\"");
}

void Value::set(std::string key, Value v) {
    if (is_null()) data_ = Object{};
    as_object().insert_or_assign(std::move(key), std::move(v));
}

std::string Value::dump() const {
    std::string out;
    append_value(out, *this);
    return out;
}

Value parse(std::string_view text) {
    return Parser(text).parse_document();
}

std::string number_to_string(double v) {
    std::string s;
    append_number(s, v);
    return s;
}

} // namespace nanosim::service::json
