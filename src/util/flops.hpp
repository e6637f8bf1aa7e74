// Nano-Sim — floating-point-operation accounting.
//
// The paper's Table I compares DC simulation cost between SWEC and the
// Modified Limiting Algorithm in *floating point operations*, not wall
// time.  To regenerate that table faithfully we instrument the linear
// solvers and device evaluations with an explicit operation counter.
//
// Design: a FlopCounter is a plain value object; the library also keeps a
// thread-local "current" counter that instrumented code charges into.  An
// engine scopes its run with FlopScope so that concurrent engines (e.g. the
// Monte-Carlo wrapper running many transients) each observe their own
// tally.
#ifndef NANOSIM_UTIL_FLOPS_HPP
#define NANOSIM_UTIL_FLOPS_HPP

#include <cstdint>
#include <string>

#include "util/fields.hpp"

namespace nanosim {

/// Tally of floating point work, split by broad category so that benches
/// can report "solver vs device-model" breakdowns.
struct FlopCounter {
    std::uint64_t add = 0;      ///< additions/subtractions
    std::uint64_t mul = 0;      ///< multiplications
    std::uint64_t div = 0;      ///< divisions
    std::uint64_t special = 0;  ///< exp/log/atan/sqrt and friends
    std::uint64_t lu_factor = 0;   ///< flops spent inside LU factorisations
    std::uint64_t lu_solve = 0;    ///< flops spent in triangular solves
    std::uint64_t device_eval = 0; ///< flops spent evaluating device models

    /// Total floating point operations, all categories.
    [[nodiscard]] std::uint64_t total() const noexcept {
        return add + mul + div + special;
    }

    FlopCounter& operator+=(const FlopCounter& rhs) noexcept {
        add += rhs.add;
        mul += rhs.mul;
        div += rhs.div;
        special += rhs.special;
        lu_factor += rhs.lu_factor;
        lu_solve += rhs.lu_solve;
        device_eval += rhs.device_eval;
        return *this;
    }

    /// Human-readable one-line summary (used by bench tables).
    [[nodiscard]] std::string summary() const;
};

constexpr auto field_table(std::type_identity<FlopCounter>) {
    return std::tuple{
        Field{"add", &FlopCounter::add},
        Field{"mul", &FlopCounter::mul},
        Field{"div", &FlopCounter::div},
        Field{"special", &FlopCounter::special},
        Field{"lu_factor", &FlopCounter::lu_factor},
        Field{"lu_solve", &FlopCounter::lu_solve},
        Field{"device_eval", &FlopCounter::device_eval}};
}

/// Access the thread-local counter that instrumented code charges into.
/// Never null: a default counter exists even outside any FlopScope.
[[nodiscard]] FlopCounter& current_flops() noexcept;

/// Charge helpers.  Costs of "special" functions are charged as one special
/// op each — Table I compares algorithms on the same device models, so any
/// consistent convention preserves the ratio.
inline void count_add(std::uint64_t n = 1) noexcept { current_flops().add += n; }
inline void count_mul(std::uint64_t n = 1) noexcept { current_flops().mul += n; }
inline void count_div(std::uint64_t n = 1) noexcept { current_flops().div += n; }
inline void count_special(std::uint64_t n = 1) noexcept {
    current_flops().special += n;
}
/// Charge a generic fused tally (adds and muls in equal measure), used by
/// dense kernels where counting individually would dominate runtime.
inline void count_fma(std::uint64_t n = 1) noexcept {
    auto& c = current_flops();
    c.add += n;
    c.mul += n;
}

/// RAII scope that swaps in a fresh counter on construction and restores
/// the previous one on destruction.  The scoped tally is readable during
/// and after the scope via `counter()`.
class FlopScope {
public:
    FlopScope();
    FlopScope(const FlopScope&) = delete;
    FlopScope& operator=(const FlopScope&) = delete;
    ~FlopScope();

    /// The tally accumulated inside this scope so far.
    [[nodiscard]] const FlopCounter& counter() const noexcept {
        return counter_;
    }

private:
    FlopCounter counter_;
    FlopCounter* previous_ = nullptr;
};

/// RAII scope whose work charges no counter: the tally inside it is
/// dropped on exit instead of merged into the enclosing scope.  For
/// set-up work whose cost depends on cache history (chord-table fills),
/// which must not leak into a run's flop total.
class FlopMute {
public:
    FlopMute();
    FlopMute(const FlopMute&) = delete;
    FlopMute& operator=(const FlopMute&) = delete;
    ~FlopMute();

private:
    FlopCounter scratch_;
    FlopCounter* previous_ = nullptr;
};

} // namespace nanosim

#endif // NANOSIM_UTIL_FLOPS_HPP
