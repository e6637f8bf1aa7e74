// Nano-Sim — field tables: one (key, member) list per struct.
//
// A struct that crosses the service wire declares, beside itself and in
// its own namespace, one overload
//
//     constexpr auto field_table(std::type_identity<S>) {
//         return std::tuple{Field{"key", &S::member}, ...};
//     }
//
// listing its keys in declaration order.  The entries are member pointers,
// so one table reads any instance, a default-constructed one included.
// The wire codec (service/wire.cpp) and RunReport::to_json walk these
// tables: adding a field to such a struct means adding one table line.
// Std-only, as obs/report.hpp sits below everything.
#ifndef NANOSIM_UTIL_FIELDS_HPP
#define NANOSIM_UTIL_FIELDS_HPP

#include <string_view>
#include <tuple>
#include <type_traits>

namespace nanosim {

/// One table entry: the wire key and the member it names.
template <typename S, typename M>
struct Field {
    const char* key;
    M S::*member;
};

template <typename S, typename M>
Field(const char*, M S::*) -> Field<S, M>;

/// S has a field table (found by argument-dependent lookup).
template <typename S>
concept HasFields = requires { field_table(std::type_identity<S>{}); };

/// Call f(field) for each entry of S's table, in order.
template <HasFields S, typename F>
constexpr void for_each_field(F&& f) {
    std::apply([&f](const auto&... field) { (f(field), ...); },
               field_table(std::type_identity<S>{}));
}

/// `key` names a field of S.
template <HasFields S>
constexpr bool is_field_of(std::string_view key) {
    return std::apply(
        [key](const auto&... field) { return ((key == field.key) || ...); },
        field_table(std::type_identity<S>{}));
}

} // namespace nanosim

#endif // NANOSIM_UTIL_FIELDS_HPP
