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
//  * Set-up cost: min-degree gives the permutation of the reference
//    rescan-every-node algorithm on chains, grids, a power grid and
//    random patterns, and its time, RCM's and the mesh generator's grow
//    about linearly with the pattern.
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
#include "timing_gate.hpp"
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

/// The minimum-degree ordering as it was before its pivot selection came
/// off a keyed heap: a linear scan of every node per pivot and a sorted
/// merge per clique member.  Kept verbatim as the oracle the production
/// ordering must reproduce exactly.
std::vector<std::vector<std::size_t>>
reference_adjacency(std::size_t n, const std::vector<std::size_t>& col_ptr,
                    const std::vector<std::size_t>& row_idx) {
    std::vector<std::vector<std::size_t>> adj(n);
    for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
            const std::size_t r = row_idx[p];
            if (r != c) {
                adj[c].push_back(r);
                adj[r].push_back(c);
            }
        }
    }
    for (auto& list : adj) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    return adj;
}

std::vector<std::size_t>
reference_min_degree(std::size_t n, const std::vector<std::size_t>& col_ptr,
                     const std::vector<std::size_t>& row_idx) {
    constexpr std::size_t k_npos = static_cast<std::size_t>(-1);
    auto adj = reference_adjacency(n, col_ptr, row_idx);

    std::vector<bool> alive(n, true);
    std::vector<std::size_t> degree(n);
    for (std::size_t v = 0; v < n; ++v) {
        degree[v] = adj[v].size();
    }

    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<std::size_t> clique;   // alive neighbours of the pivot
    std::vector<std::size_t> merged;

    for (std::size_t step = 0; step < n; ++step) {
        // Least external degree, ties on index (linear scan: the MNA
        // systems this serves are a few thousand unknowns).
        std::size_t v = k_npos;
        for (std::size_t u = 0; u < n; ++u) {
            if (alive[u] && (v == k_npos || degree[u] < degree[v])) {
                v = u;
            }
        }
        order.push_back(v);
        alive[v] = false;

        clique.clear();
        for (const std::size_t u : adj[v]) {
            if (alive[u]) {
                clique.push_back(u);
            }
        }
        // Eliminating v connects its neighbours into a clique; dead
        // entries are swept out of each list during the merge so the
        // graph never accumulates corpses.
        for (const std::size_t u : clique) {
            merged.clear();
            auto it_a = adj[u].begin();
            const auto end_a = adj[u].end();
            auto it_c = clique.begin();
            const auto end_c = clique.end();
            while (it_a != end_a || it_c != end_c) {
                std::size_t next;
                if (it_c == end_c ||
                    (it_a != end_a && *it_a <= *it_c)) {
                    next = *it_a;
                    if (it_c != end_c && *it_c == next) {
                        ++it_c;
                    }
                    ++it_a;
                    if (!alive[next]) {
                        continue;
                    }
                } else {
                    next = *it_c++;
                }
                if (next != u) {
                    merged.push_back(next);
                }
            }
            adj[u].assign(merged.begin(), merged.end());
            degree[u] = adj[u].size();
        }
        adj[v].clear();
        adj[v].shrink_to_fit();
    }
    return order;
}

/// CSC pattern of n unknowns from (row, col) coordinates (any order,
/// duplicates allowed).
CscPattern pattern_of(std::size_t n,
                      const std::vector<std::pair<std::size_t, std::size_t>>&
                          coords) {
    Triplets a(n, n);
    for (const auto& [row, col] : coords) {
        a.add(row, col, 1.0);
    }
    return compress(a);
}

/// A path of n nodes, node k at label[k].
CscPattern chain_pattern(const std::vector<std::size_t>& label) {
    std::vector<std::pair<std::size_t, std::size_t>> coords;
    for (std::size_t k = 0; k < label.size(); ++k) {
        coords.emplace_back(label[k], label[k]);
        if (k + 1 < label.size()) {
            coords.emplace_back(label[k], label[k + 1]);
            coords.emplace_back(label[k + 1], label[k]);
        }
    }
    return pattern_of(label.size(), coords);
}

std::vector<std::size_t> natural_labels(std::size_t n) {
    std::vector<std::size_t> label(n);
    std::iota(label.begin(), label.end(), std::size_t{0});
    return label;
}

/// A rows x cols grid plus one voltage-source branch row on node 0: the
/// unsymmetric (branch, node) / (node, branch) pair with no diagonal.
CscPattern grid_with_branch_pattern(int rows, int cols) {
    const CscPattern g = compress(grid_matrix(rows, cols));
    std::vector<std::pair<std::size_t, std::size_t>> coords;
    for (std::size_t c = 0; c < g.n; ++c) {
        for (std::size_t p = g.col_ptr[c]; p < g.col_ptr[c + 1]; ++p) {
            coords.emplace_back(g.row_idx[p], c);
        }
    }
    coords.emplace_back(g.n, 0);
    coords.emplace_back(0, g.n);
    return pattern_of(g.n + 1, coords);
}

/// `components` groups of random symmetric edges over n nodes, with
/// every `isolated_stride`-th node left without any entry.
CscPattern random_pattern(std::size_t n, std::size_t components,
                          std::size_t edges, std::size_t isolated_stride,
                          std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::size_t> live;
    for (std::size_t v = 0; v < n; ++v) {
        if (v % isolated_stride != 0) {
            live.push_back(v);
        }
    }
    std::shuffle(live.begin(), live.end(), rng);
    std::vector<std::pair<std::size_t, std::size_t>> coords;
    const std::size_t per = std::max<std::size_t>(1, live.size() / components);
    for (std::size_t e = 0; e < edges && !live.empty(); ++e) {
        const std::size_t group = rng() % components;
        const std::size_t lo = std::min(group * per, live.size() - 1);
        const std::size_t hi = group + 1 == components
                                   ? live.size()
                                   : std::min(lo + per, live.size());
        const std::size_t a = live[lo + rng() % (hi - lo)];
        const std::size_t b = live[lo + rng() % (hi - lo)];
        coords.emplace_back(a, a);
        coords.emplace_back(a, b);
        coords.emplace_back(b, a);
    }
    return pattern_of(n, coords);
}

TEST(Orderings, MinDegreeMatchesReference) {
    std::vector<std::pair<std::string, CscPattern>> cases;
    std::mt19937_64 rng(2005);
    for (const std::size_t n : {2u, 3u, 5u, 17u, 202u, 802u, 3202u}) {
        cases.emplace_back("chain " + std::to_string(n),
                           chain_pattern(natural_labels(n)));
        std::vector<std::size_t> label = natural_labels(n);
        std::shuffle(label.begin(), label.end(), rng);
        cases.emplace_back("relabelled chain " + std::to_string(n),
                           chain_pattern(label));
    }
    for (const auto& [rows, cols] : std::vector<std::pair<int, int>>{
             {4, 4}, {7, 13}, {16, 16}, {32, 32}, {64, 64}}) {
        cases.emplace_back("grid " + std::to_string(rows) + "x" +
                               std::to_string(cols) + " + branch",
                           grid_with_branch_pattern(rows, cols));
    }
    {
        const Circuit ckt = refckt::power_grid(24, 24, 6);
        const mna::MnaAssembler assembler(ckt);
        cases.emplace_back("power_grid 24x24",
                           compress(mna::swec_step_matrix(assembler, 1e-10)));
    }
    cases.emplace_back("random 1", random_pattern(1, 1, 0, 1, 1));
    cases.emplace_back("random 60", random_pattern(60, 3, 80, 7, 2));
    cases.emplace_back("random 400", random_pattern(400, 5, 900, 11, 3));
    cases.emplace_back("random 1500", random_pattern(1500, 9, 2600, 5, 4));
    cases.emplace_back("random dense 200",
                       random_pattern(200, 2, 3000, 13, 5));

    for (const auto& [name, p] : cases) {
        SCOPED_TRACE(name);
        EXPECT_EQ(linalg::min_degree_ordering(p.n, p.col_ptr, p.row_idx)
                      .new_to_old(),
                  reference_min_degree(p.n, p.col_ptr, p.row_idx));
    }
}

TEST(Orderings, MinDegreeTimeGrowsLinearlyOnChains) {
    if (timing::sanitized()) {
        GTEST_SKIP() << timing::k_sanitized_skip;
    }
    // A chain 4x as long must cost at most 8x: a pivot search that
    // rescans every node costs 16x (14-16x measured before the keyed
    // heap; about 4x after).
    const CscPattern small = chain_pattern(natural_labels(3202));
    const CscPattern large = chain_pattern(natural_labels(12802));
    const auto order = [](const CscPattern& p) {
        return [&p] {
            (void)linalg::min_degree_ordering(p.n, p.col_ptr, p.row_idx);
        };
    };
    EXPECT_LE(timing::growth_ratio(8.0, 3, 7, order(small), order(large)),
              8.0)
        << "ordering time of 12 802 nodes over 3 202 nodes";
}

TEST(Orderings, RcmTimeGrowsLinearlyWithComponents) {
    if (timing::sanitized()) {
        GTEST_SKIP() << timing::k_sanitized_skip;
    }
    // n nodes in n/2 two-node components: 4x the nodes must cost at most
    // 8x.  A BFS that resets the level of every node costs O(n) per
    // component, 16x here (602 ms at 32 000 isolated nodes before each
    // BFS reset only its own last visit; 2.6 ms after).
    const auto pairs = [](std::size_t n) {
        std::vector<std::pair<std::size_t, std::size_t>> coords;
        for (std::size_t v = 0; v + 1 < n; v += 2) {
            coords.emplace_back(v, v);
            coords.emplace_back(v + 1, v + 1);
            coords.emplace_back(v, v + 1);
            coords.emplace_back(v + 1, v);
        }
        return pattern_of(n, coords);
    };
    const CscPattern small = pairs(4000);
    const CscPattern large = pairs(16000);
    const auto order = [](const CscPattern& p) {
        return [&p] {
            (void)linalg::reverse_cuthill_mckee(p.n, p.col_ptr, p.row_idx);
        };
    };
    EXPECT_LE(timing::growth_ratio(8.0, 3, 7, order(small), order(large)),
              8.0)
        << "ordering time of 16 000 nodes over 4 000 nodes";
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
    mna::SystemCache cache(assembler);
    const engines::TranResult res =
        engines::run_tran_swec(assembler, opt, nullptr, &cache);
    const mna::SystemCache::Stats& s = cache.stats();
    EXPECT_GT(res.steps_accepted, 5);
    EXPECT_EQ(s.dense_solves, 0u);
    EXPECT_NE(s.ordering, Ordering::natural);
    EXPECT_GT(s.pattern_nnz, 0u);
    EXPECT_GT(s.factor_nnz, 0u);
    EXPECT_LT(s.predicted_fill_chosen, s.predicted_fill_natural);
    // The ordered path must not cost extra symbolic factorisations: every
    // later step is a pattern-reusing refactor or, where stale-factor
    // reuse pays (this mesh passes the gate), a refined reuse of the last
    // exact LU.
    EXPECT_LE(s.full_factors, 2u);
    EXPECT_GE(s.fast_refactors + s.refactors_skipped,
              static_cast<std::size_t>(res.steps_accepted) - 2);
}

TEST(SystemCacheOrdering, OffPatternStampExtendsThePattern) {
    // A stamp between two nodes no device joins escapes the frozen
    // pattern: that step solves through the triplet path and re-freezes
    // the pattern with the new coordinates sorted in, so the same stamp
    // on the next step finds its slots.
    const Circuit ckt = refckt::rc_mesh(10, 10);
    const mna::MnaAssembler assembler(ckt);
    mna::SystemCache cache(assembler);
    ASSERT_FALSE(cache.dense_path());
    const NodeId a = ckt.find_node("n0_0");
    const NodeId b = ckt.find_node("n9_9");
    const std::size_t nnz = cache.pattern_nnz();
    const auto solve_with_bridge = [&] {
        Vector rhs(static_cast<std::size_t>(assembler.unknowns()), 0.0);
        rhs[static_cast<std::size_t>(a - 1)] = 1e-3;
        cache.begin(1e9, rhs).conductance(a, b, 1e-2);
        return cache.solve(rhs);
    };
    const Vector first = solve_with_bridge();
    EXPECT_EQ(cache.stats().pattern_rebuilds, 1u);
    EXPECT_EQ(cache.pattern_nnz(), nnz + 2); // (a, b) and (b, a)
    const Vector second = solve_with_bridge();
    EXPECT_EQ(cache.stats().pattern_rebuilds, 1u);
    ASSERT_EQ(second.size(), first.size());
    double scale = 0.0;
    for (const double v : first) {
        scale = std::max(scale, std::abs(v));
    }
    EXPECT_GT(std::abs(first[static_cast<std::size_t>(b - 1)]), 0.0);
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_NEAR(second[i], first[i], 1e-12 * scale) << "unknown " << i;
    }
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

TEST(MeshCircuits, BuildTimeGrowsLinearlyWithTheMesh) {
    if (timing::sanitized()) {
        GTEST_SKIP() << timing::k_sanitized_skip;
    }
    // 64x64 has 10.24x the nodes of 20x20 and must build in at most 25x
    // the time: a device-name check that scans every earlier device costs
    // ~100x (97-109x measured before the name index; 6-14x after).
    EXPECT_LE(timing::growth_ratio(
                  25.0, 3, 7, [] { (void)refckt::rc_mesh(20, 20); },
                  [] { (void)refckt::rc_mesh(64, 64); }),
              25.0)
        << "build time of a 64x64 mesh over a 20x20 mesh";
}

} // namespace
} // namespace nanosim
