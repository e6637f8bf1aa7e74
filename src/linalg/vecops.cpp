#include "linalg/vecops.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/flops.hpp"

namespace nanosim::linalg {

namespace {

void require_same_size(const Vector& x, const Vector& y, const char* who) {
    if (x.size() != y.size()) {
        throw SimError(std::string(who) + ": size mismatch");
    }
}

} // namespace

void axpy(double alpha, const Vector& x, Vector& y) {
    require_same_size(x, y, "axpy");
    for (std::size_t i = 0; i < x.size(); ++i) {
        y[i] += alpha * x[i];
    }
    count_fma(x.size());
}

double dot(const Vector& x, const Vector& y) {
    require_same_size(x, y, "dot");
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        acc += x[i] * y[i];
    }
    count_fma(x.size());
    return acc;
}

double norm2(const Vector& x) {
    count_special();
    return std::sqrt(dot(x, x));
}

// NaN operands must poison the max, not vanish into it: std::max(m, NaN)
// returns m, so a NaN iterate would read as a zero delta and let Newton
// loops "converge" on garbage.  Both norms propagate NaN instead.
bool all_finite(const Vector& x) noexcept {
    return std::all_of(x.begin(), x.end(),
                       [](double v) { return std::isfinite(v); });
}

double norm_inf(const Vector& x) noexcept {
    double m = 0.0;
    for (const double v : x) {
        if (std::isnan(v)) {
            return v;
        }
        m = std::max(m, std::abs(v));
    }
    return m;
}

double max_abs_diff(const Vector& x, const Vector& y) {
    require_same_size(x, y, "max_abs_diff");
    double m = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = std::abs(x[i] - y[i]);
        if (std::isnan(d)) {
            count_add(x.size());
            return d;
        }
        m = std::max(m, d);
    }
    count_add(x.size());
    return m;
}

Vector scaled(const Vector& x, double alpha) {
    Vector y(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        y[i] = alpha * x[i];
    }
    count_mul(x.size());
    return y;
}

Vector add(const Vector& x, const Vector& y) {
    require_same_size(x, y, "add");
    Vector z(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        z[i] = x[i] + y[i];
    }
    count_add(x.size());
    return z;
}

Vector subtract(const Vector& x, const Vector& y) {
    require_same_size(x, y, "subtract");
    Vector z(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        z[i] = x[i] - y[i];
    }
    count_add(x.size());
    return z;
}

Vector linspace(double a, double b, std::size_t n) {
    if (n == 0) {
        return {};
    }
    if (n == 1) {
        return {a};
    }
    Vector v(n);
    const double step = (b - a) / static_cast<double>(n - 1);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = a + step * static_cast<double>(i);
    }
    // Pin the endpoint exactly: accumulated rounding must not push the last
    // sample past b (sweep engines rely on v.back() == b).
    v.back() = b;
    return v;
}

} // namespace nanosim::linalg
