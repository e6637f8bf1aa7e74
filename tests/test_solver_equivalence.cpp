// Randomized solver-equivalence suite for the symbolic/numeric split.
//
// The contract under test (PR: pattern-reusing sparse solver path):
//
//  * refactor() on an UNCHANGED pattern with IDENTICAL values performs the
//    exact numeric operation sequence of a fresh factorisation, so the
//    solutions must agree BIT FOR BIT (memcmp, not a tolerance);
//  * refactor() with new values on the same pattern must stay within
//    direct-solve accuracy of a dense LU (residual-level agreement);
//  * a changed pattern or a degraded pivot must transparently fall back
//    to a full re-pivoting factorisation (returning false) and still
//    produce a correct solution;
//  * a failed fast-refactor attempt bills zero flops, and one fallback
//    counts as full_factors + 1 and pivot_fallbacks + 1 in SystemCache,
//    never as a fast refactor;
//  * refactor() is strictly faster than a fresh factorisation on RTD
//    chains of 100-800 stages (a wall-clock gate: minimum of repeated
//    runs, skipped under sanitizers).
//
// 200+ random sparse systems sweep size, density and conditioning.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "core/ref_circuits.hpp"
#include "linalg/lu.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_lu.hpp"
#include "linalg/vecops.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"
#include "timing_gate.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace nanosim::linalg {
namespace {

bool bit_identical(std::span<const double> a, std::span<const double> b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct RandomSystem {
    Triplets a{0, 0};
    Vector b;
};

/// Random diagonally dominant sparse system.  `row_scale_decades` spreads
/// row magnitudes over that many decades to vary conditioning;
/// occasionally emits duplicate coordinates to exercise stamping-style
/// accumulation.
RandomSystem make_system(std::mt19937& gen, std::size_t n, double density,
                         double row_scale_decades) {
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::uniform_real_distribution<double> coin(0.0, 1.0);

    RandomSystem sys{Triplets(n, n), Vector(n)};
    std::vector<double> row_sum(n, 0.0);
    std::vector<double> row_scale(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
        row_scale[i] =
            std::pow(10.0, row_scale_decades * (coin(gen) - 0.5));
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j || coin(gen) >= density) {
                continue;
            }
            const double v = dist(gen) * row_scale[i];
            if (coin(gen) < 0.1) { // duplicate coordinate, summed halves
                sys.a.add(i, j, 0.5 * v);
                sys.a.add(i, j, 0.5 * v);
            } else {
                sys.a.add(i, j, v);
            }
            row_sum[i] += std::abs(v);
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        sys.a.add(i, i, row_sum[i] + row_scale[i]);
    }
    for (auto& v : sys.b) {
        v = dist(gen);
    }
    return sys;
}

/// Same pattern, freshly drawn values (diagonal kept dominant so the
/// recorded pivot order stays usable).
Triplets redraw_values(std::mt19937& gen, const Triplets& a) {
    std::uniform_real_distribution<double> dist(0.5, 1.5);
    Triplets out(a.rows(), a.cols());
    for (const auto& e : a.entries()) {
        out.add(e.row, e.col, e.value * dist(gen));
    }
    return out;
}

TEST(SolverEquivalence, FreshVsRefactorBitIdenticalOn200RandomSystems) {
    std::mt19937 gen(20260728);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    int fast_paths = 0;
    for (int trial = 0; trial < 210; ++trial) {
        const std::size_t n = 4 + gen() % 77;       // 4 .. 80
        const double density = 0.02 + 0.5 * coin(gen);
        const double decades = 6.0 * coin(gen);     // up to ~1e6 spread
        const RandomSystem sys = make_system(gen, n, density, decades);

        const SparseLu fresh(sys.a);
        const Vector x_fresh = fresh.solve(sys.b);

        SparseLu reused(sys.a);
        const bool fast = reused.refactor(sys.a);
        EXPECT_TRUE(fast) << "trial " << trial
                          << ": identical values must take the fast path";
        fast_paths += fast ? 1 : 0;
        const Vector x_refactor = reused.solve(sys.b);

        ASSERT_TRUE(bit_identical(x_fresh, x_refactor))
            << "trial " << trial << " (n=" << n << ", density=" << density
            << "): refactor diverged from fresh factorisation";

        // Cross-check both against the dense solver.
        const Vector x_dense = lu_solve(sys.a.to_dense(), sys.b);
        EXPECT_LT(max_abs_diff(x_fresh, x_dense),
                  1e-8 * std::max(1.0, norm_inf(x_dense)))
            << "trial " << trial;
    }
    EXPECT_EQ(fast_paths, 210);
}

TEST(SolverEquivalence, RefactorWithNewValuesTracksDenseLu) {
    std::mt19937 gen(77);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t n = 8 + gen() % 57;
        const RandomSystem sys =
            make_system(gen, n, 0.05 + 0.3 * coin(gen), 3.0 * coin(gen));
        SparseLu lu(sys.a);

        for (int step = 0; step < 3; ++step) {
            const Triplets a2 = redraw_values(gen, sys.a);
            lu.refactor(a2); // fast or fallback — both must be correct
            const Vector x = lu.solve(sys.b);
            const Vector x_dense = lu_solve(a2.to_dense(), sys.b);
            EXPECT_LT(max_abs_diff(x, x_dense),
                      1e-8 * std::max(1.0, norm_inf(x_dense)))
                << "trial " << trial << " step " << step;
        }
    }
}

TEST(SolverEquivalence, RefactorIsBitStableAcrossRepeats) {
    // Refactoring the same values twice must be a fixed point: the
    // factors are rebuilt from scratch each numeric pass, never updated
    // incrementally.
    std::mt19937 gen(5);
    const RandomSystem sys = make_system(gen, 40, 0.2, 2.0);
    SparseLu lu(sys.a);
    const Vector x0 = lu.solve(sys.b);
    for (int k = 0; k < 5; ++k) {
        ASSERT_TRUE(lu.refactor(sys.a));
        ASSERT_TRUE(bit_identical(x0, lu.solve(sys.b))) << "repeat " << k;
    }
    EXPECT_EQ(lu.fast_refactor_count(), 5u);
    EXPECT_EQ(lu.full_factor_count(), 1u);
}

TEST(SolverEquivalence, PatternChangeFallsBackAndStillSolves) {
    Triplets a(3, 3);
    a.add(0, 0, 4.0);
    a.add(1, 1, 3.0);
    a.add(2, 2, 5.0);
    a.add(0, 1, 1.0);
    SparseLu lu(a);

    Triplets wider = a;
    wider.add(2, 0, 1.5); // new structural entry
    EXPECT_FALSE(lu.refactor(wider)) << "pattern change must not fast-path";
    const Vector b{1.0, 2.0, 3.0};
    const Vector x = lu.solve(b);
    const Vector x_dense = lu_solve(wider.to_dense(), b);
    EXPECT_LT(max_abs_diff(x, x_dense), 1e-12);

    // The new pattern is now the cached one: same triplets fast-path.
    EXPECT_TRUE(lu.refactor(wider));
    EXPECT_TRUE(bit_identical(lu.solve(b), x));
}

TEST(SolverEquivalence, DegradedPivotFallsBackToFullPivoting) {
    // First factor pivots on the large (0,0); the second value set makes
    // that entry tiny while (1,0) stays O(1) — keeping the stale pivot
    // would lose ~16 digits, so refactor() must detect the degradation,
    // re-pivot fully, and return false.
    Triplets a(2, 2);
    a.add(0, 0, 10.0);
    a.add(0, 1, 1.0);
    a.add(1, 0, 1.0);
    a.add(1, 1, 1.0);
    SparseLu lu(a);
    ASSERT_EQ(lu.full_factor_count(), 1u);

    Triplets degraded(2, 2);
    degraded.add(0, 0, 1e-14);
    degraded.add(0, 1, 1.0);
    degraded.add(1, 0, 1.0);
    degraded.add(1, 1, 1.0);
    EXPECT_FALSE(lu.refactor(degraded));
    EXPECT_EQ(lu.full_factor_count(), 2u);

    const Vector b{1.0, 2.0};
    const Vector x = lu.solve(b);
    const Vector x_dense = lu_solve(degraded.to_dense(), b);
    EXPECT_LT(max_abs_diff(x, x_dense), 1e-12);
}

TEST(SolverEquivalence, RefactorValueCountMismatchThrows) {
    Triplets a(2, 2);
    a.add(0, 0, 1.0);
    a.add(1, 1, 2.0);
    SparseLu lu(a);
    const std::vector<double> wrong{1.0, 2.0, 3.0};
    EXPECT_THROW(lu.refactor(std::span<const double>(wrong)), SimError);
}

TEST(SolverEquivalence, RefactorSingularMatrixThrows) {
    Triplets a(2, 2);
    a.add(0, 0, 1.0);
    a.add(0, 1, 2.0);
    a.add(1, 0, 3.0);
    a.add(1, 1, 1.0);
    SparseLu lu(a);
    Triplets singular(2, 2);
    singular.add(0, 0, 1.0);
    singular.add(0, 1, 2.0);
    singular.add(1, 0, 2.0);
    singular.add(1, 1, 4.0);
    EXPECT_THROW(lu.refactor(singular), SingularMatrixError);
}

TEST(SolverEquivalence, CscConstructorMatchesTripletConstructor) {
    std::mt19937 gen(11);
    const RandomSystem sys = make_system(gen, 30, 0.25, 1.0);
    const SparseLu from_triplets(sys.a);

    // Rebuild the same matrix through the CSC entry point.
    const auto& col_ptr = from_triplets.pattern_col_ptr();
    const auto& row_idx = from_triplets.pattern_row_idx();
    std::vector<double> values(row_idx.size(), 0.0);
    const DenseMatrix dense = sys.a.to_dense();
    for (std::size_t c = 0; c < 30; ++c) {
        for (std::size_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
            values[p] = dense(row_idx[p], c);
        }
    }
    const SparseLu from_csc(30, col_ptr, row_idx,
                            std::span<const double>(values));
    EXPECT_TRUE(
        bit_identical(from_triplets.solve(sys.b), from_csc.solve(sys.b)));
}

TEST(SolverEquivalence, CscConstructorRejectsMalformedPattern) {
    const std::vector<double> v{1.0, 2.0};
    EXPECT_THROW(SparseLu(2, {0, 1}, {0, 1}, std::span<const double>(v)),
                 SimError); // col_ptr too short
    EXPECT_THROW(SparseLu(2, {0, 2, 2}, {1, 0}, std::span<const double>(v)),
                 SimError); // rows unsorted within a column
    EXPECT_THROW(SparseLu(2, {0, 1, 2}, {0, 2}, std::span<const double>(v)),
                 SimError); // row out of range
}

// ---- degraded-pivot fallback on an ordered mesh ----------------------------

/// k x k 5-point grid Laplacian with a dominant diagonal.
Triplets laplacian2d(std::size_t k) {
    const std::size_t n = k * k;
    Triplets a(n, n);
    for (std::size_t r = 0; r < k; ++r) {
        for (std::size_t c = 0; c < k; ++c) {
            const std::size_t i = r * k + c;
            a.add(i, i, 8.0 + 0.01 * static_cast<double>(i % 7));
            if (r + 1 < k) {
                a.add(i, i + k, -1.0);
                a.add(i + k, i, -1.0);
            }
            if (c + 1 < k) {
                a.add(i, i + 1, -1.0);
                a.add(i + 1, i, -1.0);
            }
        }
    }
    return a;
}

/// Blow up both orientations of the grid edge (k, k+grid) to 1e9:
/// whichever of the two columns is eliminated later (under any
/// ordering), its recorded O(1) diagonal pivot drops below
/// k_refactor_pivot_ratio of the new below-diagonal candidate, so
/// refactor() must fall back to full re-pivoting.
Triplets degrade_pivot(const Triplets& a, std::size_t k, std::size_t grid) {
    Triplets out(a.rows(), a.cols());
    for (const auto& e : a.entries()) {
        const bool edge = (e.row == k + grid && e.col == k) ||
                          (e.row == k && e.col == k + grid);
        out.add(e.row, e.col, edge ? -1e9 : e.value);
    }
    return out;
}

/// Caller-order CSC pattern of a mesh plus its min-degree ordering (the
/// ordering SystemCache auto-selects for meshes).  A permuted SparseLu
/// only refactors through the span overload (values in caller slot
/// order), hence slots().
struct OrderedMesh {
    std::vector<std::size_t> col_ptr;
    std::vector<std::size_t> row_idx;
    Permutation perm;

    explicit OrderedMesh(const Triplets& a) {
        const SparseLu probe(a); // natural probe: caller-order pattern
        col_ptr = probe.pattern_col_ptr();
        row_idx = probe.pattern_row_idx();
        perm = min_degree_ordering(probe.order(), col_ptr, row_idx);
    }

    /// Values of `t` (which must share the pattern) in caller slot order.
    [[nodiscard]] std::vector<double> slots(const Triplets& t) const {
        std::vector<double> v(row_idx.size(), 0.0);
        for (const auto& e : t.entries()) {
            for (std::size_t p = col_ptr[e.col]; p < col_ptr[e.col + 1];
                 ++p) {
                if (row_idx[p] == e.row) {
                    v[p] += e.value;
                    break;
                }
            }
        }
        return v;
    }
};

TEST(SolverEquivalence, OrderedMeshFallbackMatchesFreshFactorisation) {
    const std::size_t k = 10;
    const Triplets a = laplacian2d(k);
    const Triplets degraded = degrade_pivot(a, 57, k);
    const OrderedMesh mesh(a);
    const std::vector<double> degraded_slots = mesh.slots(degraded);
    std::mt19937 gen(17);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Vector b(k * k);
    for (auto& v : b) {
        v = dist(gen);
    }

    SparseLu lu(a, mesh.perm);
    ASSERT_FALSE(lu.refactor(std::span<const double>(degraded_slots)));
    EXPECT_EQ(lu.full_factor_count(), 2u);
    EXPECT_EQ(lu.fast_refactor_count(), 0u);
    const Vector x = lu.solve(b);

    // The fallback is a full factorisation of the same values: bit for
    // bit what a fresh SparseLu under the same ordering computes.
    const SparseLu fresh(degraded, mesh.perm);
    EXPECT_TRUE(bit_identical(lu.l_values(), fresh.l_values()));
    EXPECT_TRUE(bit_identical(lu.u_values(), fresh.u_values()));
    EXPECT_TRUE(bit_identical(x, fresh.solve(b)));

    // The re-pivoted factorisation must still be correct...
    const Vector x_dense = lu_solve(degraded.to_dense(), b);
    EXPECT_LT(max_abs_diff(x, x_dense),
              1e-8 * std::max(1.0, norm_inf(x_dense)));
    // ...and is now the cached one: the same values take the fast path.
    ASSERT_TRUE(lu.refactor(std::span<const double>(degraded_slots)));
    EXPECT_TRUE(bit_identical(lu.solve(b), x));
}

TEST(SolverEquivalence, FailedAttemptBillsNoFlops) {
    // Counter-algebra regression (historical double-count): a failed fast
    // refactor must bill ZERO flops — the total billed by the whole
    // refactor() call equals a from-scratch full factorisation of the
    // same values.
    const std::size_t k = 10;
    const Triplets a = laplacian2d(k);
    const Triplets degraded = degrade_pivot(a, 57, k);
    const OrderedMesh mesh(a);
    const std::vector<double> degraded_slots = mesh.slots(degraded);
    const std::vector<double> a_slots = mesh.slots(a);

    std::uint64_t full_factor_flops = 0;
    {
        FlopScope scope;
        const SparseLu direct(degraded, mesh.perm);
        full_factor_flops = scope.counter().lu_factor;
    }
    ASSERT_GT(full_factor_flops, 0u);
    {
        SparseLu lu(a, mesh.perm);
        FlopScope scope;
        ASSERT_FALSE(lu.refactor(std::span<const double>(degraded_slots)));
        EXPECT_EQ(scope.counter().lu_factor, full_factor_flops)
            << "a failed attempt must bill nothing beyond the fallback "
               "full factorisation";
    }
    // A SUCCESSFUL fast refactor does bill factor work.
    {
        SparseLu lu(a, mesh.perm);
        FlopScope scope;
        ASSERT_TRUE(lu.refactor(std::span<const double>(a_slots)));
        EXPECT_GT(scope.counter().lu_factor, 0u);
    }
}

TEST(SolverEquivalence, SystemCacheFallbackCounterAlgebra) {
    // Drive a SystemCache through factor -> fast refactor -> pivot-
    // degrading restamp (a huge off-diagonal pair overwhelms the
    // recorded pivot).
    const Circuit ckt = refckt::rc_mesh(12, 12);
    const mna::MnaAssembler assembler(ckt);
    ASSERT_GT(assembler.unknowns(), 64); // sparse path
    const auto r0 = static_cast<std::size_t>(ckt.find_node("n0_0") - 1);
    const auto r1 = static_cast<std::size_t>(ckt.find_node("n0_1") - 1);
    mna::SystemCache cache(assembler);
    const std::vector<double> geq(assembler.nonlinear_devices().size(), 1e-3);

    const auto step = [&](bool degrade) {
        Vector rhs = assembler.rhs(0.0);
        Stamper& st = cache.begin(1.0 / 1e-10, rhs);
        assembler.stamp_time_varying_into(0.0, st);
        assembler.stamp_swec_into(geq, st);
        if (degrade) {
            // Both orientations of an existing mesh edge: whichever
            // column position survives the ordering, the recorded pivot
            // degrades below k_refactor_pivot_ratio of the new candidate.
            cache.add_entry(r0, r1, -1e9);
            cache.add_entry(r1, r0, -1e9);
        }
        return cache.solve(rhs);
    };
    const Vector x_full = step(false);     // first solve: full factor
    const Vector x_fast = step(false);     // unchanged values: fast refactor
    const Vector x_degraded = step(true);  // degraded pivot: fallback

    // One fallback = full_factors + 1 and pivot_fallbacks + 1; the fast
    // counter never moves on a fallback.
    EXPECT_EQ(cache.stats().full_factors, 2u);
    EXPECT_EQ(cache.stats().pivot_fallbacks, 1u);
    EXPECT_EQ(cache.stats().fast_refactors, 1u);
    EXPECT_TRUE(bit_identical(x_full, x_fast));
    EXPECT_FALSE(bit_identical(x_full, x_degraded));
}

TEST(SolverEquivalence, RefactorFasterThanFreshFactorOnRtdChains) {
    // What the split buys: on the SWEC step matrix of an RTD chain, a
    // refactor along the recorded reach sets and pivots is strictly
    // cheaper than a fresh factorisation (triplet sort + symbolic DFS +
    // pivot search + numeric sweep).  Values drift each repetition, as
    // chord conductances do step to step.
    if (timing::sanitized()) {
        GTEST_SKIP() << timing::k_sanitized_skip;
    }
    constexpr int k_calls = 10;
    for (const int stages : {100, 200, 400, 800}) {
        refckt::ChainSpec spec;
        spec.stages = stages;
        const Circuit ckt = refckt::rtd_chain(spec);
        const mna::MnaAssembler assembler(ckt);
        const Triplets a = mna::swec_step_matrix(assembler, 1e-10);

        const double factor_s = timing::min_seconds(5, [&a] {
            for (int i = 0; i < k_calls; ++i) {
                const SparseLu fresh(a);
            }
        });
        SparseLu lu(a);
        std::vector<double> values = compress_columns(a).values;
        const double refactor_s = timing::min_seconds(5, [&] {
            for (int i = 0; i < k_calls; ++i) {
                for (double& v : values) {
                    v *= 1.0 + 1e-9;
                }
                (void)lu.refactor(std::span<const double>(values));
            }
        });
        EXPECT_LT(refactor_s, factor_s)
            << stages << " stages: refactor " << refactor_s / k_calls * 1e6
            << " us, fresh factor " << factor_s / k_calls * 1e6 << " us";
    }
}

} // namespace
} // namespace nanosim::linalg
