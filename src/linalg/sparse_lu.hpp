// Nano-Sim — sparse LU factorisation (Gilbert-Peierls, partial pivoting)
// with a KLU-style symbolic/numeric split.
//
// Left-looking column LU over a compressed-sparse-column view.  Each
// column of A is solved against the already-computed L by a depth-first
// reachability pass (the Gilbert-Peierls trick: the nonzero pattern of
// L\b is the set of nodes reachable from pattern(b) in the graph of L),
// then the largest remaining entry is chosen as the pivot.
//
// The first (full) factorisation records its symbolic analysis — the CSC
// pattern of A, every column's elimination reach set in topological order,
// and the pivot sequence.  refactor() then redoes only the numeric sweep:
// scatter the new values, eliminate along the recorded reach sets, keep
// the recorded pivots.  When the values are unchanged this reproduces the
// full factorisation bit for bit (same operations in the same order); when
// a reused pivot degrades below `refactor_pivot_ratio` of its column's
// magnitude the call transparently falls back to a full re-pivoting
// factorisation (and reports it via the return value / counters).
//
// solve() runs the forward substitution by columns of L and the back
// substitution as one dot product per row of U, which the factorisations
// store row-major (see k_split_row).
//
// This is the same algorithm family as SPICE's sparse1.3 / KLU and scales
// to the RTD-chain benchmarks; for tiny systems the dense path wins and
// engines pick automatically (see mna::SystemCache / mna::solve_system).
// The numeric sweep is serial on purpose: circuit matrices are too sparse
// for supernodal kernels (KLU's observation) and a level-scheduled
// parallel sweep measured slower than serial, so threads live at the
// Monte-Carlo trial and sweep-campaign level.
#ifndef NANOSIM_LINALG_SPARSE_LU_HPP
#define NANOSIM_LINALG_SPARSE_LU_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse.hpp"

namespace nanosim::linalg {

/// Sparse LU of a square matrix with row partial pivoting: P A = L U —
/// optionally of the symmetrically pre-permuted matrix A(q,q) with a
/// fill-reducing ordering q (linalg/ordering.hpp).  The pre-permutation
/// is baked into the symbolic analysis: fresh factorisation and
/// refactor() both operate in permuted space (values still arrive in the
/// CALLER's pattern order and are gathered through a slot map), and
/// solve() permutes rhs/x transparently, so callers never see q.
class SparseLu {
public:
    /// Factor from a triplet list.  Throws SingularMatrixError when a
    /// column has no usable pivot (magnitude below pivot_tol * max|A|).
    explicit SparseLu(const Triplets& a, double pivot_tol = 1e-13);

    /// Triplet factorisation with a fill-reducing pre-permutation.
    SparseLu(const Triplets& a, const Permutation& ordering,
             double pivot_tol = 1e-13);

    /// Factor directly from a CSC pattern + parallel value array (rows
    /// sorted and unique within each column; values[k] belongs to
    /// row_idx[k]).  This is the allocation-free entry point used by
    /// mna::SystemCache, whose slot maps keep values in exactly this
    /// order across time steps.
    SparseLu(std::size_t n, std::vector<std::size_t> col_ptr,
             std::vector<std::size_t> row_idx, std::span<const double> values,
             double pivot_tol = 1e-13);

    /// CSC factorisation with a fill-reducing pre-permutation: factors
    /// A(q,q) where q = ordering.new_to_old().  `values` (here and in
    /// every later refactor(values)) stay in the ORIGINAL col_ptr/row_idx
    /// slot order.  An empty ordering means natural order.
    SparseLu(std::size_t n, std::vector<std::size_t> col_ptr,
             std::vector<std::size_t> row_idx, std::span<const double> values,
             const Permutation& ordering, double pivot_tol = 1e-13);

    [[nodiscard]] std::size_t order() const noexcept { return n_; }

    /// Fill-in: nonzeros in L + U (diagonal counted once).
    [[nodiscard]] std::size_t nnz_factors() const noexcept {
        return l_val_.size() + u_val_.size();
    }

    /// Numeric refactorisation with new values in the cached CSC pattern
    /// order.  Returns true when the fast pattern-reusing path was taken;
    /// false when a degraded pivot forced a full re-pivoting
    /// factorisation.  Throws SingularMatrixError if even the full path
    /// finds no usable pivot.
    bool refactor(std::span<const double> values);

    /// Refactor from a triplet list.  When the compressed pattern matches
    /// the cached one this forwards to the fast path above; a changed
    /// pattern triggers a full symbolic + numeric factorisation (returns
    /// false).
    bool refactor(const Triplets& a);

    /// Solve A x = b (rhs/x in original numbering; any pre-permutation
    /// is applied and undone internally).
    [[nodiscard]] Vector solve(const Vector& b) const;

    // ---- cached symbolic pattern (for slot mapping) ----
    // NOTE: with a pre-permutation these describe the INTERNAL (permuted)
    // pattern; without one they are exactly the caller's pattern.
    [[nodiscard]] const std::vector<std::size_t>&
    pattern_col_ptr() const noexcept {
        return col_ptr_;
    }
    [[nodiscard]] const std::vector<std::size_t>&
    pattern_row_idx() const noexcept {
        return row_idx_;
    }
    [[nodiscard]] std::size_t pattern_nnz() const noexcept {
        return row_idx_.size();
    }

    /// True when a fill-reducing pre-permutation is baked in.
    [[nodiscard]] bool permuted() const noexcept { return !perm_.empty(); }

    // ---- instrumentation ----
    /// Full (symbolic + pivoting) factorisations performed so far.
    [[nodiscard]] std::size_t full_factor_count() const noexcept {
        return full_factors_;
    }
    /// Fast pattern-reusing refactorisations performed so far.
    [[nodiscard]] std::size_t fast_refactor_count() const noexcept {
        return fast_refactors_;
    }
    /// Flops charged by the most recent successful factorisation (full
    /// or refactor) — what the next refactor of similar values costs.
    [[nodiscard]] std::uint64_t last_factor_flops() const noexcept {
        return last_factor_flops_;
    }
    /// Factor values in flat storage order — bit-identity tests memcmp
    /// these.
    [[nodiscard]] std::span<const double> l_values() const noexcept {
        return l_val_;
    }
    [[nodiscard]] std::span<const double> u_values() const noexcept {
        return u_val_;
    }

    /// A reused pivot must stay above this fraction of its column's
    /// largest candidate magnitude or refactor() falls back to full
    /// re-pivoting (KLU uses the same style of threshold pivoting).
    static constexpr double k_refactor_pivot_ratio = 1e-3;

    /// solve()'s back substitution sums a row of U with at least this many
    /// off-diagonal terms in four partial sums, every term executed; a
    /// shorter row keeps one running sum over descending columns and
    /// skips the terms whose x_j is 0, so a factor with only short rows
    /// solves bit for bit as a column-oriented sweep does.  Flops: 2 per
    /// executed term, 1 per division.
    static constexpr std::size_t k_split_row = 4;

private:
    /// Reads the factors in tests.
    friend struct SparseLuInspector;

    struct Entry {
        std::size_t row;
        double value;
    };

    /// Compress `a` into the cached CSC pattern (duplicates summed);
    /// returns the summed values in pattern order.
    std::vector<double> set_pattern_from_triplets(const Triplets& a);
    /// Rewrite the cached pattern as A(q,q) and build the slot map that
    /// gathers caller-order values into permuted order.
    void bake_permutation(const Permutation& ordering);
    /// Caller-order values -> internal (permuted) order; identity pass-
    /// through without a permutation.
    [[nodiscard]] std::span<const double>
    to_internal(std::span<const double> values);
    void factor_full(std::span<const double> values);
    [[nodiscard]] bool try_refactor_numeric(std::span<const double> values);
    /// Compile the column-wise factors factor_full() assembled into the
    /// flat arrays + refactor gather plan below.
    void flatten_factors(const std::vector<std::vector<Entry>>& lcols,
                         const std::vector<std::vector<Entry>>& ucols);
    /// L U y' = y in place: `y` enters as P b (indexed by pivot position)
    /// and leaves as the solution in the internal numbering.
    void substitute(Vector& y) const;

    std::size_t n_ = 0;
    double pivot_tol_ = 1e-13;

    // CSC pattern of A — in permuted space when perm_ is non-empty (rows
    // sorted and unique within each column).
    std::vector<std::size_t> col_ptr_;
    std::vector<std::size_t> row_idx_;

    // Fill-reducing pre-permutation (empty = natural order) and the slot
    // gather map: internal slot s holds the caller's slot user_slot_[s].
    Permutation perm_;
    std::vector<std::size_t> user_slot_;
    std::vector<double> perm_values_; // gather scratch (hot path: no alloc)
    mutable Vector perm_y_;           // solve() permuted-solution scratch

    std::vector<std::size_t> pinv_;      // pinv_[orig_row] = permuted position
    std::vector<std::size_t> pivot_row_; // pivot_row_[j] = orig row of pivot j

    // ---- factors.  L, by columns, holds the strictly-below-diagonal
    // entries (unit diagonal implicit); U, by rows, the entries with
    // column >= the row.  Patterns are structural (exact numeric zeros
    // are kept) so they stay valid across refactorisations, and L's
    // entries sit in the order factor_full() discovered them, so
    // refactor() is operation-for-operation the fresh factorisation. ----
    std::vector<std::size_t> l_ptr_;  // n_ + 1
    std::vector<std::size_t> l_row_;  // ORIGINAL row index per L entry
    std::vector<std::size_t> l_prow_; // pinv_[l_row_] (solve fast path)
    std::vector<double> l_val_;
    // U row-major in pivot space: row i's diagonal at u_ptr_[i], then its
    // off-diagonal entries by descending column (the back substitution's
    // order).  Only the substitution reads U; refactor() writes it
    // through the gather plan.
    std::vector<std::size_t> u_ptr_; // n_ + 1
    std::vector<std::size_t> u_col_; // pivot-space column per U entry
    std::vector<double> u_val_;
    /// Refactor gather plan, parallel to reach_nodes_: where column j's
    /// reach position lands.  dst >= 0: u_val_[dst] (incl. the diagonal);
    /// dst < 0: l_val_[~dst], scaled by 1/ujj on the way in.
    std::vector<std::ptrdiff_t> gather_dst_;

    // Recorded symbolic analysis: reach_nodes_[reach_ptr_[j] ..
    // reach_ptr_[j+1]) is column j's reach set in DFS postorder
    // (eliminate in reverse order).
    std::vector<std::size_t> reach_ptr_;
    std::vector<std::size_t> reach_nodes_;

    std::size_t full_factors_ = 0;
    std::size_t fast_refactors_ = 0;
    std::uint64_t last_factor_flops_ = 0;

    // Numeric-sweep scratch for refactor(); kept as a member so the hot
    // path allocates nothing.  Invariant: all-zero between calls (every
    // exit path of try_refactor_numeric restores the zeros it wrote).
    std::vector<double> work_;
};

} // namespace nanosim::linalg

#endif // NANOSIM_LINALG_SPARSE_LU_HPP
