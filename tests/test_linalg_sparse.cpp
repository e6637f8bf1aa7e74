// Tests for sparse storage, sparse LU and the matrix exponential.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "core/ref_circuits.hpp"
#include "linalg/dense.hpp"
#include "linalg/expm.hpp"
#include "linalg/lu.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_lu.hpp"
#include "linalg/vecops.hpp"
#include "mna/mna.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace nanosim::linalg {

/// A SparseLu's factors with U transposed to columns, diagonal last: the
/// layout of the column-oriented back substitution.
struct SparseLuInspector {
    struct Columns {
        std::size_t n = 0;
        std::vector<std::size_t> perm; ///< new_to_old; empty = natural
        std::vector<std::size_t> pinv;
        std::vector<std::size_t> l_ptr;
        std::vector<std::size_t> l_prow;
        std::vector<double> l_val;
        std::vector<std::size_t> u_ptr;
        std::vector<std::size_t> u_row;
        std::vector<double> u_val;
        std::size_t longest_u_row = 0; ///< off-diagonal terms
    };

    static Columns columns(const SparseLu& lu) {
        Columns f;
        f.n = lu.n_;
        if (lu.permuted()) {
            f.perm = lu.perm_.new_to_old();
        }
        f.pinv = lu.pinv_;
        f.l_ptr = lu.l_ptr_;
        f.l_prow = lu.l_prow_;
        f.l_val = lu.l_val_;
        f.u_ptr.assign(f.n + 1, 0);
        for (std::size_t i = 0; i < f.n; ++i) {
            const std::size_t off = lu.u_ptr_[i + 1] - lu.u_ptr_[i] - 1;
            f.longest_u_row = std::max(f.longest_u_row, off);
            for (std::size_t q = lu.u_ptr_[i] + 1; q < lu.u_ptr_[i + 1]; ++q) {
                ++f.u_ptr[lu.u_col_[q] + 1];
            }
            ++f.u_ptr[i + 1]; // the diagonal
        }
        for (std::size_t j = 0; j < f.n; ++j) {
            f.u_ptr[j + 1] += f.u_ptr[j];
        }
        f.u_row.resize(f.u_ptr[f.n]);
        f.u_val.resize(f.u_ptr[f.n]);
        std::vector<std::size_t> next(f.u_ptr.begin(), f.u_ptr.end() - 1);
        for (std::size_t i = 0; i < f.n; ++i) {
            for (std::size_t q = lu.u_ptr_[i] + 1; q < lu.u_ptr_[i + 1]; ++q) {
                const std::size_t d = next[lu.u_col_[q]]++;
                f.u_row[d] = i;
                f.u_val[d] = lu.u_val_[q];
            }
        }
        for (std::size_t j = 0; j < f.n; ++j) {
            f.u_row[next[j]] = j;
            f.u_val[next[j]] = lu.u_val_[lu.u_ptr_[j]];
        }
        return f;
    }
};

namespace {

TEST(Triplets, AccumulatesDuplicates) {
    Triplets t(2, 2);
    t.add(0, 0, 1.0);
    t.add(0, 0, 2.5);
    t.add(1, 1, -1.0);
    const DenseMatrix d = t.to_dense();
    EXPECT_DOUBLE_EQ(d(0, 0), 3.5);
    EXPECT_DOUBLE_EQ(d(1, 1), -1.0);
    EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Triplets, BoundsChecked) {
    Triplets t(2, 2);
    EXPECT_THROW(t.add(2, 0, 1.0), SimError);
    EXPECT_THROW(t.add(0, 5, 1.0), SimError);
}

TEST(CsrMatrix, CompressesSortedAndSummed) {
    Triplets t(3, 3);
    t.add(2, 1, 4.0);
    t.add(0, 0, 1.0);
    t.add(2, 1, -1.0);
    t.add(1, 2, 7.0);
    const CsrMatrix m(t);
    EXPECT_EQ(m.nnz(), 3u);
    EXPECT_DOUBLE_EQ(m.at(2, 1), 3.0);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 7.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(CsrMatrix, MultiplyMatchesDense) {
    std::mt19937 gen(7);
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    Triplets t(6, 6);
    for (int k = 0; k < 14; ++k) {
        t.add(static_cast<std::size_t>(gen() % 6),
              static_cast<std::size_t>(gen() % 6), dist(gen));
    }
    const CsrMatrix sparse(t);
    const DenseMatrix dense = t.to_dense();
    Vector x(6);
    for (auto& v : x) {
        v = dist(gen);
    }
    EXPECT_LT(max_abs_diff(sparse.multiply(x), dense.multiply(x)), 1e-14);
}

TEST(SparseLu, SolvesSmallSystem) {
    Triplets t(2, 2);
    t.add(0, 0, 2.0);
    t.add(0, 1, 1.0);
    t.add(1, 0, 1.0);
    t.add(1, 1, 3.0);
    const SparseLu lu(t);
    const Vector x = lu.solve(Vector{3.0, 5.0});
    EXPECT_NEAR(x[0], 0.8, 1e-12);
    EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(SparseLu, PivotsOnZeroDiagonal) {
    Triplets t(2, 2);
    t.add(0, 1, 1.0);
    t.add(1, 0, 1.0);
    const SparseLu lu(t);
    const Vector x = lu.solve(Vector{2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLu, SingularThrows) {
    Triplets t(2, 2);
    t.add(0, 0, 1.0);
    t.add(0, 1, 2.0);
    t.add(1, 0, 2.0);
    t.add(1, 1, 4.0);
    EXPECT_THROW(SparseLu{t}, SingularMatrixError);
}

TEST(SparseLu, TridiagonalChain) {
    // Classic MNA-like ladder: tridiagonal SPD system.
    const std::size_t n = 50;
    Triplets t(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        t.add(i, i, 2.0);
        if (i + 1 < n) {
            t.add(i, i + 1, -1.0);
            t.add(i + 1, i, -1.0);
        }
    }
    Vector b(n, 1.0);
    const Vector x_sparse = SparseLu(t).solve(b);
    const Vector x_dense = lu_solve(t.to_dense(), b);
    EXPECT_LT(max_abs_diff(x_sparse, x_dense), 1e-9);
}

/// Property sweep: random sparse diagonally dominant systems agree with
/// the dense solver across sizes and densities.
class SparseVsDense
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SparseVsDense, SolutionsAgree) {
    const auto [n, density] = GetParam();
    std::mt19937 gen(99 + static_cast<unsigned>(n));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::uniform_real_distribution<double> coin(0.0, 1.0);

    Triplets t(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
    std::vector<double> row_sum(static_cast<std::size_t>(n), 0.0);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            if (i != j && coin(gen) < density) {
                const double v = dist(gen);
                t.add(static_cast<std::size_t>(i),
                      static_cast<std::size_t>(j), v);
                row_sum[static_cast<std::size_t>(i)] += std::abs(v);
            }
        }
    }
    for (int i = 0; i < n; ++i) {
        t.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i),
              row_sum[static_cast<std::size_t>(i)] + 1.0);
    }
    Vector b(static_cast<std::size_t>(n));
    for (auto& v : b) {
        v = dist(gen);
    }
    const Vector xs = SparseLu(t).solve(b);
    const Vector xd = lu_solve(t.to_dense(), b);
    EXPECT_LT(max_abs_diff(xs, xd), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDensities, SparseVsDense,
    ::testing::Combine(::testing::Values(4, 10, 25, 60),
                       ::testing::Values(0.05, 0.2, 0.5)));

// ---- the solve over row-major U ------------------------------------------

/// SparseLu's former solve, column-oriented over both factors: the
/// forward and back sweeps skip a column whose y_j is 0, 2 flops per
/// applied entry and 1 per division.  Kept verbatim (but for the field
/// names) as the bit-identity reference of the row-major kernel.
Vector column_solve(const SparseLuInspector::Columns& f, const Vector& b,
                    std::uint64_t& flops) {
    const std::size_t n_ = f.n;
    Vector pb = b;
    if (!f.perm.empty()) {
        for (std::size_t j = 0; j < n_; ++j) {
            pb[j] = b[f.perm[j]];
        }
    }
    Vector y;
    y.assign(n_, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
        y[f.pinv[i]] = pb[i];
    }
    for (std::size_t j = 0; j < n_; ++j) {
        const double yj = y[j];
        if (yj == 0.0) {
            continue;
        }
        const std::size_t lp_end = f.l_ptr[j + 1];
        for (std::size_t p = f.l_ptr[j]; p < lp_end; ++p) {
            y[f.l_prow[p]] -= f.l_val[p] * yj;
        }
        flops += 2 * (lp_end - f.l_ptr[j]);
    }
    for (std::size_t jj = n_; jj-- > 0;) {
        const std::size_t up = f.u_ptr[jj];
        const std::size_t up_end = f.u_ptr[jj + 1];
        const double ujj = f.u_val[up_end - 1];
        const double xj = y[jj] / ujj;
        y[jj] = xj;
        ++flops;
        if (xj == 0.0) {
            continue;
        }
        for (std::size_t k = up; k + 1 < up_end; ++k) {
            y[f.u_row[k]] -= f.u_val[k] * xj;
        }
        flops += 2 * (up_end - 1 - up);
    }
    if (f.perm.empty()) {
        return y;
    }
    Vector x(n_);
    for (std::size_t j = 0; j < n_; ++j) {
        x[f.perm[j]] = y[j];
    }
    return x;
}

/// A SparseLu of `a` under minimum-degree ordering, the sparse path's
/// choice on meshes and chains.
SparseLu min_degree_lu(const Triplets& a) {
    const CscForm csc = compress_columns(a);
    return SparseLu(a.rows(), csc.col_ptr, csc.row_idx, csc.values,
                    min_degree_ordering(a.rows(), csc.col_ptr, csc.row_idx));
}

/// The right-hand sides every solve test runs: dense, sparse (the zero
/// skip) and zero.
std::vector<Vector> test_rhs(std::size_t n, unsigned seed) {
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Vector dense(n);
    for (double& v : dense) {
        v = dist(gen);
    }
    Vector sparse(n, 0.0);
    for (std::size_t i = 0; i < n; i += 7) {
        sparse[i] = dist(gen);
    }
    return {dense, sparse, Vector(n, 0.0)};
}

/// k x k grid Laplacian with random conductances, a random grounded
/// shunt on every node (C/h of a step) and a mild asymmetry.
Triplets grid_laplacian(std::size_t k, unsigned seed) {
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> g(0.5, 2.0);
    std::uniform_real_distribution<double> shunt(0.01, 0.1);
    std::uniform_real_distribution<double> skew(0.9, 1.1);
    const std::size_t n = k * k;
    Triplets t(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        t.add(i, i, shunt(gen));
    }
    const auto edge = [&](std::size_t a, std::size_t b) {
        const double v = g(gen);
        t.add(a, a, v);
        t.add(b, b, v);
        t.add(a, b, -v * skew(gen));
        t.add(b, a, -v * skew(gen));
    };
    for (std::size_t r = 0; r < k; ++r) {
        for (std::size_t c = 0; c < k; ++c) {
            if (c + 1 < k) {
                edge(r * k + c, r * k + c + 1);
            }
            if (r + 1 < k) {
                edge(r * k + c, (r + 1) * k + c);
            }
        }
    }
    return t;
}

/// max |sparse - dense| / max |dense| over test_rhs, sparse LU under
/// minimum degree, at most 1e-12.
void expect_matches_dense(const Triplets& a, unsigned seed) {
    const SparseLu lu = min_degree_lu(a);
    const DenseLu dense(a.to_dense());
    for (const Vector& b : test_rhs(a.rows(), seed)) {
        const Vector xd = dense.solve(b);
        const Vector xs = lu.solve(b);
        EXPECT_LE(max_abs_diff(xs, xd), 1e-12 * norm_inf(xd));
    }
}

TEST(SparseLuRowSolve, GridLaplaciansMatchDenseLu) {
    for (const std::size_t k : {4U, 8U, 16U, 32U}) {
        const Triplets a = grid_laplacian(k, 17 + static_cast<unsigned>(k));
        if (k >= 8) {
            // The partial-sum path runs.
            EXPECT_GE(SparseLuInspector::columns(min_degree_lu(a))
                          .longest_u_row,
                      SparseLu::k_split_row)
                << k;
        }
        expect_matches_dense(a, static_cast<unsigned>(k));
    }
}

TEST(SparseLuRowSolve, RandomPatternsMatchDenseLu) {
    // Weak diagonal dominance: rows interchange during the factor.
    for (const unsigned seed : {1U, 2U, 3U, 4U, 5U}) {
        std::mt19937 gen(seed);
        std::uniform_real_distribution<double> dist(-1.0, 1.0);
        std::uniform_real_distribution<double> coin(0.0, 1.0);
        const std::size_t n = 40 + 40 * seed;
        const double density = 4.0 / static_cast<double>(n);
        Triplets t(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            t.add(i, i, 0.5 + coin(gen));
            for (std::size_t j = 0; j < n; ++j) {
                if (i != j && coin(gen) < density) {
                    t.add(i, j, dist(gen));
                }
            }
        }
        expect_matches_dense(t, seed);
    }
}

/// The step matrix of a 200-stage RTD chain: G + C/h + SWEC chords.
Triplets chain_step_matrix() {
    refckt::ChainSpec spec;
    spec.stages = 200;
    const Circuit ckt = refckt::rtd_chain(spec);
    const mna::MnaAssembler assembler(ckt);
    const auto n = static_cast<std::size_t>(assembler.unknowns());
    Triplets t(n, n);
    for (const auto& e : assembler.static_g().entries()) {
        t.add(e.row, e.col, e.value);
    }
    for (const auto& e : assembler.c_triplets().entries()) {
        t.add(e.row, e.col, e.value / 1e-11);
    }
    mna::MnaBuilder chords(assembler.num_nodes(), assembler.num_branches());
    assembler.stamp_swec_into(
        std::vector<double>(assembler.nonlinear_devices().size(), 1e-3),
        chords);
    for (const auto& e : chords.g().entries()) {
        t.add(e.row, e.col, e.value);
    }
    return t;
}

/// On a factor whose U rows are all shorter than k_split_row the row
/// kernel is the column kernel: the same bits and the same flops.
void expect_column_kernel_bits(const SparseLu& lu, unsigned seed) {
    const SparseLuInspector::Columns f = SparseLuInspector::columns(lu);
    ASSERT_LT(f.longest_u_row, SparseLu::k_split_row);
    for (const Vector& b : test_rhs(f.n, seed)) {
        std::uint64_t want_flops = 0;
        const Vector want = column_solve(f, b, want_flops);
        const std::uint64_t before = current_flops().lu_solve;
        const Vector got = lu.solve(b);
        EXPECT_EQ(current_flops().lu_solve - before, want_flops);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0);
    }
}

TEST(SparseLuRowSolve, ShortRowsSolveAsTheColumnKernel) {
    expect_column_kernel_bits(min_degree_lu(chain_step_matrix()), 1);
    // Natural order: the source branch pivots first.
    expect_column_kernel_bits(SparseLu(chain_step_matrix()), 2);
    expect_column_kernel_bits(min_degree_lu(grid_laplacian(3, 5)), 3);
    Triplets tri(50, 50);
    for (std::size_t i = 0; i < 50; ++i) {
        tri.add(i, i, 2.0);
        if (i + 1 < 50) {
            tri.add(i, i + 1, -1.0);
            tri.add(i + 1, i, -0.5);
        }
    }
    expect_column_kernel_bits(SparseLu(tri), 4);
}

TEST(Expm, ZeroMatrixGivesIdentity) {
    const DenseMatrix z(3, 3);
    const DenseMatrix e = expm(z);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_NEAR(e(i, j), i == j ? 1.0 : 0.0, 1e-14);
        }
    }
}

TEST(Expm, DiagonalMatrix) {
    DenseMatrix a(2, 2);
    a(0, 0) = 1.0;
    a(1, 1) = -2.0;
    const DenseMatrix e = expm(a);
    EXPECT_NEAR(e(0, 0), std::exp(1.0), 1e-12);
    EXPECT_NEAR(e(1, 1), std::exp(-2.0), 1e-12);
    EXPECT_NEAR(e(0, 1), 0.0, 1e-13);
}

TEST(Expm, NilpotentMatrixIsExact) {
    // exp([[0, a], [0, 0]]) = [[1, a], [0, 1]].
    DenseMatrix a(2, 2);
    a(0, 1) = 3.5;
    const DenseMatrix e = expm(a);
    EXPECT_NEAR(e(0, 0), 1.0, 1e-14);
    EXPECT_NEAR(e(0, 1), 3.5, 1e-12);
    EXPECT_NEAR(e(1, 0), 0.0, 1e-14);
}

TEST(Expm, RotationMatrix) {
    // exp([[0, -w], [w, 0]]) = rotation by w.
    const double w = 2.2;
    DenseMatrix a(2, 2);
    a(0, 1) = -w;
    a(1, 0) = w;
    const DenseMatrix e = expm(a);
    EXPECT_NEAR(e(0, 0), std::cos(w), 1e-11);
    EXPECT_NEAR(e(1, 0), std::sin(w), 1e-11);
}

TEST(Expm, InverseProperty) {
    DenseMatrix a{{0.3, -1.2, 0.0}, {0.7, 0.1, -0.4}, {0.0, 0.5, -0.6}};
    const DenseMatrix e = expm(a);
    DenseMatrix neg = a;
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            neg(i, j) = -a(i, j);
        }
    }
    const DenseMatrix prod = e.multiply(expm(neg));
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-10);
        }
    }
}

TEST(Expm, LargeNormUsesScaling) {
    DenseMatrix a(1, 1);
    a(0, 0) = 20.0; // forces many squarings
    EXPECT_NEAR(expm(a)(0, 0), std::exp(20.0), std::exp(20.0) * 1e-11);
}

} // namespace
} // namespace nanosim::linalg
