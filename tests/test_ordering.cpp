// Fill-reducing ordering layer (PR: ordering + 2-D mesh workloads).
//
//  * Permutation object: bijection validation, apply/invert round trips,
//    symmetric CSC pattern permutation + slot map.
//  * RCM / min-degree: produce valid permutations and strictly reduce
//    predicted and ACTUAL LU fill on 2-D mesh matrices (where natural
//    order is the known-bad case).
//  * SparseLu with a baked pre-permutation: solves, refactor contract
//    (fast path + degraded-pivot fallback) and transparent rhs/x
//    permutation.
//  * Ordered-vs-natural conformance: on every reference circuit's SWEC
//    per-step matrix, natural / RCM / min-degree solves agree to 1e-12.
//  * mna::SystemCache: dense path stays natural; sparse mesh path
//    auto-selects a fill-reducing ordering, reports it through the
//    engine results, and solves identically to a forced-natural cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/ref_circuits.hpp"
#include "devices/sources.hpp"
#include "engines/tran_swec.hpp"
#include "linalg/lu.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse_lu.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

using linalg::Ordering;
using linalg::Permutation;
using linalg::SparseLu;
using linalg::Triplets;
using linalg::Vector;

// ---- helpers --------------------------------------------------------------

/// Compressed form of a square triplet matrix (n + the CSC fields), via
/// the same linalg::compress_columns the solver itself caches.
struct CscPattern {
    std::size_t n = 0;
    std::vector<std::size_t> col_ptr;
    std::vector<std::size_t> row_idx;
    std::vector<double> values;
};

CscPattern compress(const Triplets& a) {
    linalg::CscForm csc = linalg::compress_columns(a);
    return CscPattern{csc.cols, std::move(csc.col_ptr),
                      std::move(csc.row_idx), std::move(csc.values)};
}

/// 2-D grid Laplacian + diagonal boost: the canonical fill stress case.
Triplets grid_matrix(int rows, int cols) {
    const auto n = static_cast<std::size_t>(rows * cols);
    Triplets a(n, n);
    auto id = [cols](int r, int c) {
        return static_cast<std::size_t>(r * cols + c);
    };
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            a.add(id(r, c), id(r, c), 4.5); // diagonally dominant
            if (c + 1 < cols) {
                a.add(id(r, c), id(r, c + 1), -1.0);
                a.add(id(r, c + 1), id(r, c), -1.0);
            }
            if (r + 1 < rows) {
                a.add(id(r, c), id(r + 1, c), -1.0);
                a.add(id(r + 1, c), id(r, c), -1.0);
            }
        }
    }
    return a;
}

// ---- Permutation ----------------------------------------------------------

TEST(Permutation, ValidatesBijection) {
    EXPECT_NO_THROW(Permutation({2, 0, 1}));
    EXPECT_THROW(Permutation({0, 0, 1}), SimError);   // duplicate
    EXPECT_THROW(Permutation({0, 3, 1}), SimError);   // out of range
    EXPECT_TRUE(Permutation{}.empty());
    EXPECT_TRUE(Permutation::identity(4).is_identity());
    EXPECT_FALSE(Permutation({1, 0}).is_identity());
}

TEST(Permutation, ApplyRoundTrip) {
    std::mt19937_64 rng(42);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 1 + rng() % 64;
        std::vector<std::size_t> p(n);
        std::iota(p.begin(), p.end(), std::size_t{0});
        std::shuffle(p.begin(), p.end(), rng);
        const Permutation perm(p);

        Vector v(n);
        for (auto& x : v) {
            x = std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
        }
        EXPECT_EQ(perm.apply_inverse(perm.apply(v)), v);
        EXPECT_EQ(perm.apply(perm.apply_inverse(v)), v);
        // inverse() swaps the two directions.
        EXPECT_EQ(perm.inverse().apply(v), perm.apply_inverse(v));
        // Mapping identities.
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(perm.old_to_new()[perm.new_to_old()[j]], j);
        }
    }
}

TEST(Permutation, PermutePatternMatchesDense) {
    Triplets a(4, 4);
    // Unsymmetric pattern with an empty spot.
    a.add(0, 0, 1.0);
    a.add(1, 0, 2.0);
    a.add(1, 1, 3.0);
    a.add(0, 2, 4.0);
    a.add(2, 2, 5.0);
    a.add(3, 3, 6.0);
    a.add(3, 1, 7.0);
    const CscPattern p = compress(a);

    const Permutation perm({3, 1, 0, 2});
    std::vector<std::size_t> col_ptr;
    std::vector<std::size_t> row_idx;
    std::vector<std::size_t> slot_map;
    perm.permute_pattern(p.col_ptr, p.row_idx, col_ptr, row_idx, slot_map);

    ASSERT_EQ(col_ptr.size(), 5u);
    ASSERT_EQ(row_idx.size(), p.row_idx.size());
    const auto dense = a.to_dense();
    for (std::size_t jc = 0; jc < 4; ++jc) {
        for (std::size_t s = col_ptr[jc]; s < col_ptr[jc + 1]; ++s) {
            // B(row, jc) must be A(q[row], q[jc]) and the slot map must
            // point at exactly that entry of the original value array.
            const std::size_t orig_row = perm.new_to_old()[row_idx[s]];
            const std::size_t orig_col = perm.new_to_old()[jc];
            EXPECT_EQ(p.values[slot_map[s]], dense(orig_row, orig_col));
            if (s > col_ptr[jc]) {
                EXPECT_LT(row_idx[s - 1], row_idx[s]) << "rows not sorted";
            }
        }
    }
}

// ---- orderings ------------------------------------------------------------

TEST(Orderings, ValidPermutationsOnGrid) {
    const Triplets a = grid_matrix(12, 12);
    const CscPattern p = compress(a);
    const Permutation rcm =
        linalg::reverse_cuthill_mckee(p.n, p.col_ptr, p.row_idx);
    const Permutation md =
        linalg::min_degree_ordering(p.n, p.col_ptr, p.row_idx);
    EXPECT_EQ(rcm.size(), p.n); // ctor validated the bijection
    EXPECT_EQ(md.size(), p.n);
    // Deterministic: same pattern, same order.
    EXPECT_EQ(rcm.new_to_old(),
              linalg::reverse_cuthill_mckee(p.n, p.col_ptr, p.row_idx)
                  .new_to_old());
    EXPECT_EQ(md.new_to_old(),
              linalg::min_degree_ordering(p.n, p.col_ptr, p.row_idx)
                  .new_to_old());
}

TEST(Orderings, PredictedFillExactOnTridiagonal) {
    // Tridiagonal: no fill in any order; L+U = 3n - 2.
    const std::size_t n = 30;
    Triplets a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        a.add(i, i, 4.0);
        if (i + 1 < n) {
            a.add(i, i + 1, -1.0);
            a.add(i + 1, i, -1.0);
        }
    }
    const CscPattern p = compress(a);
    EXPECT_EQ(linalg::predicted_fill(p.n, p.col_ptr, p.row_idx), 3 * n - 2);
    const SparseLu lu(a);
    EXPECT_EQ(lu.nnz_factors(), 3 * n - 2);
}

TEST(Orderings, ReduceFillOnGrid) {
    const Triplets a = grid_matrix(16, 16);
    const CscPattern p = compress(a);
    const Permutation rcm =
        linalg::reverse_cuthill_mckee(p.n, p.col_ptr, p.row_idx);
    const Permutation md =
        linalg::min_degree_ordering(p.n, p.col_ptr, p.row_idx);

    const std::size_t fill_nat =
        linalg::predicted_fill(p.n, p.col_ptr, p.row_idx);
    const std::size_t fill_rcm =
        linalg::predicted_fill(p.n, p.col_ptr, p.row_idx, rcm);
    const std::size_t fill_md =
        linalg::predicted_fill(p.n, p.col_ptr, p.row_idx, md);
    EXPECT_LT(std::min(fill_rcm, fill_md), fill_nat)
        << "no ordering reduces predicted fill on a 16x16 grid";

    // The prediction must track the ACTUAL factors: the matrix is
    // diagonally dominant, so partial pivoting keeps the diagonal and
    // the symbolic count is exact.
    const SparseLu nat(a);
    const SparseLu lu_rcm(a, rcm);
    const SparseLu lu_md(a, md);
    EXPECT_EQ(nat.nnz_factors(), fill_nat);
    EXPECT_EQ(lu_rcm.nnz_factors(), fill_rcm);
    EXPECT_EQ(lu_md.nnz_factors(), fill_md);
    EXPECT_LT(std::min(lu_rcm.nnz_factors(), lu_md.nnz_factors()),
              nat.nnz_factors());
}

// ---- SparseLu with a pre-permutation --------------------------------------

TEST(SparseLuOrdered, SolvesMatchDense) {
    const Triplets a = grid_matrix(9, 7);
    const CscPattern p = compress(a);
    Vector b(p.n);
    for (std::size_t i = 0; i < p.n; ++i) {
        b[i] = std::sin(static_cast<double>(i) * 0.7) + 0.2;
    }
    const Vector x_ref = linalg::DenseLu(a.to_dense()).solve(b);

    for (const auto& perm :
         {linalg::reverse_cuthill_mckee(p.n, p.col_ptr, p.row_idx),
          linalg::min_degree_ordering(p.n, p.col_ptr, p.row_idx)}) {
        const SparseLu lu(a, perm);
        EXPECT_TRUE(lu.permuted());
        const Vector x = lu.solve(b);
        ASSERT_EQ(x.size(), x_ref.size());
        for (std::size_t i = 0; i < p.n; ++i) {
            EXPECT_NEAR(x[i], x_ref[i], 1e-12) << "unknown " << i;
        }
    }
}

TEST(SparseLuOrdered, RefactorContractHolds) {
    const Triplets a = grid_matrix(10, 10);
    const CscPattern p = compress(a);
    const Permutation md =
        linalg::min_degree_ordering(p.n, p.col_ptr, p.row_idx);

    SparseLu lu(p.n, p.col_ptr, p.row_idx,
                std::span<const double>(p.values), md);
    EXPECT_EQ(lu.full_factor_count(), 1u);
    Vector b(p.n, 1.0);
    const Vector x0 = lu.solve(b);

    // Same caller-order values -> fast path, identical solve.
    EXPECT_TRUE(lu.refactor(std::span<const double>(p.values)));
    EXPECT_EQ(lu.fast_refactor_count(), 1u);
    EXPECT_EQ(lu.solve(b), x0);

    // Scaled values -> fast path, scaled solution.
    std::vector<double> scaled = p.values;
    for (double& v : scaled) {
        v *= 2.0;
    }
    EXPECT_TRUE(lu.refactor(std::span<const double>(scaled)));
    const Vector xs = lu.solve(b);
    for (std::size_t i = 0; i < p.n; ++i) {
        EXPECT_NEAR(xs[i], 0.5 * x0[i], 1e-12);
    }

    // Degraded pivot (zero out a diagonal) -> falls back to a full
    // re-pivoting factorisation but still solves.
    std::vector<double> degraded = p.values;
    for (std::size_t c = 0; c < p.n; ++c) {
        for (std::size_t k = p.col_ptr[c]; k < p.col_ptr[c + 1]; ++k) {
            if (p.row_idx[k] == c && c == p.n / 2) {
                degraded[k] = 1e-9; // was 4.5: pivot collapses
            }
        }
    }
    (void)lu.refactor(std::span<const double>(degraded));
    const Vector xd = lu.solve(b);
    Triplets ad(p.n, p.n);
    for (std::size_t c = 0; c < p.n; ++c) {
        for (std::size_t k = p.col_ptr[c]; k < p.col_ptr[c + 1]; ++k) {
            ad.add(p.row_idx[k], c, degraded[k]);
        }
    }
    const Vector xd_ref = linalg::DenseLu(ad.to_dense()).solve(b);
    for (std::size_t i = 0; i < p.n; ++i) {
        EXPECT_NEAR(xd[i], xd_ref[i], 1e-9 * std::abs(xd_ref[i]) + 1e-12);
    }

    // Triplet-refactor is meaningless in permuted space and must say so.
    EXPECT_THROW((void)lu.refactor(a), SimError);
}

// ---- ordered vs natural on the reference circuits -------------------------

struct RefCase {
    std::string name;
    std::function<Circuit()> make;
};

std::vector<RefCase> ref_cases() {
    return {
        {"rc_lowpass", [] { return refckt::rc_lowpass(); }},
        {"rtd_divider", [] { return refckt::rtd_divider(); }},
        {"nanowire_divider", [] { return refckt::nanowire_divider(); }},
        {"fet_rtd_inverter", [] { return refckt::fet_rtd_inverter(); }},
        {"rtd_chain_8", [] { return refckt::rtd_chain(); }},
        {"rtd_dff", [] { return refckt::rtd_dff(); }},
        {"rc_mesh_8x8", [] { return refckt::rc_mesh(8, 8); }},
        {"power_grid_8x8", [] { return refckt::power_grid(8, 8, 4); }},
    };
}

TEST(OrderedConformance, OrderedAndNaturalSolvesAgreeTo1e12) {
    for (const RefCase& c : ref_cases()) {
        const Circuit ckt = c.make();
        const mna::MnaAssembler assembler(ckt);
        const Triplets a = mna::swec_step_matrix(assembler, 1e-10);
        const CscPattern p = compress(a);

        Vector b(p.n);
        for (std::size_t i = 0; i < p.n; ++i) {
            b[i] = 1e-3 * std::cos(static_cast<double>(i) + 0.5);
        }
        const Vector x_nat = SparseLu(a).solve(b);
        double scale = 1.0;
        for (const double v : x_nat) {
            scale = std::max(scale, std::abs(v));
        }

        for (const auto& [name, perm] :
             {std::pair<std::string, Permutation>{
                  "rcm", linalg::reverse_cuthill_mckee(p.n, p.col_ptr,
                                                       p.row_idx)},
              {"min_degree", linalg::min_degree_ordering(p.n, p.col_ptr,
                                                         p.row_idx)}}) {
            const Vector x = SparseLu(a, perm).solve(b);
            for (std::size_t i = 0; i < p.n; ++i) {
                EXPECT_NEAR(x[i], x_nat[i], 1e-12 * scale)
                    << c.name << " / " << name << " unknown " << i;
            }
        }
    }
}

// ---- SystemCache integration ----------------------------------------------

TEST(SystemCacheOrdering, DensePathStaysNatural) {
    const Circuit ckt = refckt::rc_lowpass();
    const mna::MnaAssembler assembler(ckt);
    mna::SystemCache cache(assembler);
    EXPECT_TRUE(cache.dense_path());
    EXPECT_EQ(cache.stats().ordering, Ordering::natural);
    EXPECT_EQ(cache.stats().predicted_fill_natural, 0u);
}

TEST(SystemCacheOrdering, MeshAutoSelectsFillReducingOrdering) {
    // 16x16 mesh: 257 unknowns, far above the dense threshold.
    const Circuit ckt = refckt::rc_mesh(16, 16);
    const mna::MnaAssembler assembler(ckt);
    mna::SystemCache cache(assembler);
    ASSERT_FALSE(cache.dense_path());
    EXPECT_NE(cache.stats().ordering, Ordering::natural);
    EXPECT_GT(cache.stats().predicted_fill_natural, 0u);
    EXPECT_LT(cache.stats().predicted_fill_chosen,
              cache.stats().predicted_fill_natural);
}

TEST(SystemCacheOrdering, ForcedOrderingsSolveIdenticallyEnough) {
    const Circuit ckt = refckt::rc_mesh(12, 12);
    const mna::MnaAssembler assembler(ckt);
    const auto n = static_cast<std::size_t>(assembler.unknowns());
    const auto nl = assembler.nonlinear_devices().size();
    const std::vector<double> geq(nl, 1e-3);

    auto solve_with = [&](Ordering ordering) {
        mna::SystemCache::Options opt;
        opt.ordering = ordering;
        mna::SystemCache cache(assembler, opt);
        // Two solves so the second exercises refactor() under the
        // permutation.
        Vector last;
        for (int step = 0; step < 2; ++step) {
            Vector rhs = assembler.rhs(0.0);
            Stamper& st = cache.begin(1.0 / 1e-10, rhs);
            assembler.stamp_time_varying_into(0.0, st);
            assembler.stamp_swec_into(geq, st);
            last = cache.solve(rhs);
        }
        return last;
    };

    const Vector x_nat = solve_with(Ordering::natural);
    for (const Ordering o : {Ordering::rcm, Ordering::min_degree,
                             Ordering::automatic}) {
        const Vector x = solve_with(o);
        ASSERT_EQ(x.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(x[i], x_nat[i], 1e-12)
                << linalg::ordering_name(o) << " unknown " << i;
        }
    }
}

TEST(SystemCacheOrdering, EngineReportsOrderingStats) {
    const Circuit ckt = refckt::rc_mesh(16, 16);
    const mna::MnaAssembler assembler(ckt);
    engines::SwecTranOptions opt;
    opt.t_stop = 20e-9;
    const engines::TranResult res = engines::run_tran_swec(assembler, opt);
    EXPECT_GT(res.steps_accepted, 5);
    EXPECT_EQ(res.solver_dense_solves, 0u);
    EXPECT_NE(res.solver_ordering.ordering, Ordering::natural);
    EXPECT_GT(res.solver_ordering.pattern_nnz, 0u);
    EXPECT_GT(res.solver_ordering.factor_nnz, 0u);
    EXPECT_LT(res.solver_ordering.predicted_fill_chosen,
              res.solver_ordering.predicted_fill_natural);
    // The ordered path must not cost extra symbolic factorisations: every
    // later step is a pattern-reusing refactor or, where stale-factor
    // reuse pays (this mesh passes the gate), a refined reuse of the last
    // exact LU.
    EXPECT_LE(res.solver_full_factors, 2u);
    EXPECT_GE(res.solver_fast_refactors + res.solver_refactors_skipped,
              static_cast<std::size_t>(res.steps_accepted) - 2);
}

// ---- mesh generators ------------------------------------------------------

TEST(MeshCircuits, GeneratorsProduceValidCircuits) {
    const Circuit mesh = refckt::rc_mesh(4, 5);
    EXPECT_EQ(mesh.num_nodes(), 4 * 5 + 1); // grid + "in"
    EXPECT_NO_THROW(mna::MnaAssembler{mesh});

    const Circuit grid = refckt::power_grid(5, 4, 3);
    EXPECT_EQ(grid.num_nodes(), 5 * 4 + 1); // grid + "vdd"
    EXPECT_NO_THROW(mna::MnaAssembler{grid});

    EXPECT_THROW(refckt::rc_mesh(0, 4), NetlistError);
    EXPECT_THROW(refckt::power_grid(4, 4, 0), NetlistError);
}

} // namespace
} // namespace nanosim
