// Nano-Sim — small BLAS-1 style helpers on linalg::Vector.
//
// All functions are flop-instrumented (see util/flops.hpp) so that engines
// built on top of them report faithful operation counts for Table I.
#ifndef NANOSIM_LINALG_VECOPS_HPP
#define NANOSIM_LINALG_VECOPS_HPP

#include "linalg/dense.hpp"

namespace nanosim::linalg {

/// y += alpha * x.  Sizes must match (throws SimError otherwise).
void axpy(double alpha, const Vector& x, Vector& y);

/// Dot product <x, y>.
[[nodiscard]] double dot(const Vector& x, const Vector& y);

/// Euclidean norm ||x||_2.
[[nodiscard]] double norm2(const Vector& x);

/// Max norm ||x||_inf.
[[nodiscard]] double norm_inf(const Vector& x) noexcept;

/// True when no entry is NaN or infinite.
[[nodiscard]] bool all_finite(const Vector& x) noexcept;

/// ||x - y||_inf; sizes must match.
[[nodiscard]] double max_abs_diff(const Vector& x, const Vector& y);

/// Element-wise x * alpha into a fresh vector.
[[nodiscard]] Vector scaled(const Vector& x, double alpha);

/// x + y into a fresh vector; sizes must match.
[[nodiscard]] Vector add(const Vector& x, const Vector& y);

/// x - y into a fresh vector; sizes must match.
[[nodiscard]] Vector subtract(const Vector& x, const Vector& y);

/// Linear ramp of n points from a to b inclusive (n >= 2), or {a} if n==1.
[[nodiscard]] Vector linspace(double a, double b, std::size_t n);

} // namespace nanosim::linalg

#endif // NANOSIM_LINALG_VECOPS_HPP
