#include "linalg/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/flops.hpp"

namespace nanosim::linalg {

namespace {

constexpr std::size_t k_unassigned = std::numeric_limits<std::size_t>::max();

/// Max |v| over a value array (0 for an empty one).
double max_abs_value(std::span<const double> values) noexcept {
    double m = 0.0;
    for (const double v : values) {
        m = std::max(m, std::abs(v));
    }
    return m;
}

} // namespace

std::vector<double> SparseLu::set_pattern_from_triplets(const Triplets& a) {
    if (a.rows() != a.cols()) {
        throw SimError("SparseLu: matrix must be square");
    }
    n_ = a.rows();
    CscForm csc = compress_columns(a);
    col_ptr_ = std::move(csc.col_ptr);
    row_idx_ = std::move(csc.row_idx);
    return std::move(csc.values);
}

SparseLu::SparseLu(const Triplets& a, double pivot_tol)
    : SparseLu(a, Permutation{}, pivot_tol) {}

SparseLu::SparseLu(const Triplets& a, const Permutation& ordering,
                   double pivot_tol)
    : pivot_tol_(pivot_tol) {
    const std::vector<double> values = set_pattern_from_triplets(a);
    bake_permutation(ordering);
    factor_full(to_internal(values));
}

SparseLu::SparseLu(std::size_t n, std::vector<std::size_t> col_ptr,
                   std::vector<std::size_t> row_idx,
                   std::span<const double> values, double pivot_tol)
    : SparseLu(n, std::move(col_ptr), std::move(row_idx), values,
               Permutation{}, pivot_tol) {}

SparseLu::SparseLu(std::size_t n, std::vector<std::size_t> col_ptr,
                   std::vector<std::size_t> row_idx,
                   std::span<const double> values, const Permutation& ordering,
                   double pivot_tol)
    : n_(n),
      pivot_tol_(pivot_tol),
      col_ptr_(std::move(col_ptr)),
      row_idx_(std::move(row_idx)) {
    if (col_ptr_.size() != n_ + 1 || col_ptr_.front() != 0 ||
        col_ptr_.back() != row_idx_.size() || values.size() != row_idx_.size()) {
        throw SimError("SparseLu: inconsistent CSC pattern");
    }
    for (std::size_t c = 0; c < n_; ++c) {
        if (col_ptr_[c + 1] < col_ptr_[c]) {
            throw SimError("SparseLu: CSC col_ptr not monotonic");
        }
        for (std::size_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
            if (row_idx_[p] >= n_ ||
                (p > col_ptr_[c] && row_idx_[p] <= row_idx_[p - 1])) {
                throw SimError("SparseLu: CSC rows must be sorted, unique "
                               "and in range");
            }
        }
    }
    bake_permutation(ordering);
    factor_full(to_internal(values));
}

void SparseLu::bake_permutation(const Permutation& ordering) {
    if (ordering.empty() || ordering.is_identity()) {
        return; // natural order: zero-overhead path
    }
    if (ordering.size() != n_) {
        throw SimError("SparseLu: ordering size does not match the matrix");
    }
    perm_ = ordering;
    std::vector<std::size_t> perm_col_ptr;
    std::vector<std::size_t> perm_row_idx;
    perm_.permute_pattern(col_ptr_, row_idx_, perm_col_ptr, perm_row_idx,
                          user_slot_);
    col_ptr_ = std::move(perm_col_ptr);
    row_idx_ = std::move(perm_row_idx);
}

std::span<const double> SparseLu::to_internal(std::span<const double> values) {
    if (user_slot_.empty()) {
        return values;
    }
    perm_values_.resize(user_slot_.size());
    for (std::size_t s = 0; s < user_slot_.size(); ++s) {
        perm_values_[s] = values[user_slot_[s]];
    }
    return perm_values_;
}

void SparseLu::factor_full(std::span<const double> values) {
    const double tol = pivot_tol_ * std::max(max_abs_value(values), 1e-300);

    // The DFS discovers each column's pattern incrementally, so the
    // factors are assembled column-wise here and compiled into the flat
    // arrays once at the end.
    std::vector<std::vector<Entry>> lcols(n_);
    std::vector<std::vector<Entry>> ucols(n_);
    pinv_.assign(n_, k_unassigned);
    pivot_row_.assign(n_, k_unassigned);
    reach_ptr_.assign(n_ + 1, 0);
    reach_nodes_.clear();

    std::vector<double> x(n_, 0.0);
    std::vector<std::size_t> mark(n_, k_unassigned); // stamp = current col
    std::vector<std::size_t> postorder;
    postorder.reserve(n_);
    // Explicit DFS stack of (node, next-child-index) to avoid recursion on
    // long RTD chains.
    std::vector<std::pair<std::size_t, std::size_t>> dfs_stack;

    std::uint64_t flops = 0;

    for (std::size_t j = 0; j < n_; ++j) {
        // --- Symbolic: pattern of L^{-1} A(:,j) via DFS through L. ---
        postorder.clear();
        for (std::size_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p) {
            const std::size_t start = row_idx_[p];
            if (mark[start] == j) {
                continue;
            }
            dfs_stack.emplace_back(start, 0);
            mark[start] = j;
            while (!dfs_stack.empty()) {
                auto& [node, child] = dfs_stack.back();
                const std::size_t k = pinv_[node];
                bool descended = false;
                if (k != k_unassigned) {
                    const auto& lcol = lcols[k];
                    while (child < lcol.size()) {
                        const std::size_t next = lcol[child].row;
                        ++child;
                        if (mark[next] != j) {
                            mark[next] = j;
                            dfs_stack.emplace_back(next, 0);
                            descended = true;
                            break;
                        }
                    }
                }
                if (!descended &&
                    (k == k_unassigned || child >= lcols[k].size())) {
                    postorder.push_back(node);
                    dfs_stack.pop_back();
                }
            }
        }
        // Record the reach set so refactor() can skip this whole DFS.
        reach_nodes_.insert(reach_nodes_.end(), postorder.begin(),
                            postorder.end());
        reach_ptr_[j + 1] = reach_nodes_.size();

        // --- Numeric: scatter A(:,j), then eliminate in topological
        // (reverse-postorder) order. ---
        for (std::size_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p) {
            x[row_idx_[p]] += values[p];
        }
        for (auto it = postorder.rbegin(); it != postorder.rend(); ++it) {
            const std::size_t i = *it;
            const std::size_t k = pinv_[i];
            if (k == k_unassigned) {
                continue;
            }
            const double xi = x[i];
            if (xi == 0.0) {
                continue;
            }
            for (const Entry& e : lcols[k]) {
                x[e.row] -= e.value * xi;
            }
            flops += 2 * lcols[k].size();
        }

        // --- Pivot selection among non-pivotal rows. ---
        std::size_t pivot_row = k_unassigned;
        double pivot_mag = 0.0;
        for (const std::size_t i : postorder) {
            if (pinv_[i] != k_unassigned) {
                continue;
            }
            const double mag = std::abs(x[i]);
            if (mag > pivot_mag) {
                pivot_mag = mag;
                pivot_row = i;
            }
        }
        if (pivot_row == k_unassigned || pivot_mag < tol) {
            std::ostringstream os;
            os << "SparseLu: singular matrix at column " << j << " (pivot "
               << pivot_mag << " < tol " << tol << ")";
            throw SingularMatrixError(os.str());
        }
        const double ujj = x[pivot_row];
        pinv_[pivot_row] = j;
        pivot_row_[j] = pivot_row;

        // --- Gather into L(:,j) and U(:,j); clear the work array.  The
        // full *structural* reach set is kept (exact zeros included) so
        // the recorded pattern stays a valid superset for any later
        // value set fed to refactor(). ---
        auto& lcol = lcols[j];
        auto& ucol = ucols[j];
        for (const std::size_t i : postorder) {
            const double xi = x[i];
            x[i] = 0.0;
            if (i == pivot_row) {
                continue;
            }
            const std::size_t k = pinv_[i];
            if (k != k_unassigned && k < j) {
                ucol.push_back(Entry{k, xi});
            } else {
                lcol.push_back(Entry{i, xi / ujj});
                ++flops;
            }
        }
        ucol.push_back(Entry{j, ujj}); // diagonal last by construction
    }

    ++full_factors_;
    last_factor_flops_ = flops;
    auto& counter = current_flops();
    counter.lu_factor += flops;
    counter.mul += flops / 2;
    counter.add += flops / 2;

    flatten_factors(lcols, ucols);
}

void SparseLu::flatten_factors(const std::vector<std::vector<Entry>>& lcols,
                               const std::vector<std::vector<Entry>>& ucols) {
    std::size_t l_nnz = 0;
    l_ptr_.assign(n_ + 1, 0);
    for (std::size_t j = 0; j < n_; ++j) {
        l_nnz += lcols[j].size();
        l_ptr_[j + 1] = l_nnz;
    }
    l_row_.resize(l_nnz);
    l_prow_.resize(l_nnz);
    l_val_.resize(l_nnz);
    for (std::size_t j = 0; j < n_; ++j) {
        std::size_t lp = l_ptr_[j];
        for (const Entry& e : lcols[j]) {
            l_row_[lp] = e.row;
            l_prow_[lp] = pinv_[e.row];
            l_val_[lp] = e.value;
            ++lp;
        }
    }

    // U row-major: pivot row i holds its diagonal first, then its
    // off-diagonal entries by descending column — the order in which a
    // column-oriented back substitution applies them.  `u_dst` records
    // where each column's entries land, in the order the build pushed
    // them (diagonal last).
    std::vector<std::size_t> u_col_begin(n_ + 1, 0);
    u_ptr_.assign(n_ + 1, 0);
    for (std::size_t j = 0; j < n_; ++j) {
        u_col_begin[j + 1] = u_col_begin[j] + ucols[j].size();
        for (const Entry& e : ucols[j]) {
            ++u_ptr_[e.row + 1];
        }
    }
    for (std::size_t i = 0; i < n_; ++i) {
        u_ptr_[i + 1] += u_ptr_[i];
    }
    const std::size_t u_nnz = u_ptr_[n_];
    u_col_.resize(u_nnz);
    u_val_.resize(u_nnz);
    std::vector<std::size_t> u_dst(u_nnz);
    std::vector<std::size_t> next(u_ptr_.begin(), u_ptr_.end() - 1);
    for (std::size_t i = 0; i < n_; ++i) {
        ++next[i]; // the diagonal's slot
    }
    for (std::size_t j = n_; j-- > 0;) {
        const std::vector<Entry>& col = ucols[j];
        for (std::size_t k = 0; k < col.size(); ++k) {
            const std::size_t row = col[k].row;
            const std::size_t q = row == j ? u_ptr_[j] : next[row]++;
            u_col_[q] = j;
            u_val_[q] = col[k].value;
            u_dst[u_col_begin[j] + k] = q;
        }
    }

    // Refactor gather plan: column j's reach positions are visited in the
    // same order the build pushed L/U entries (reach order == postorder),
    // so L destinations are the column's next free slot and U
    // destinations the recorded row-major slots; the pivot position maps
    // onto the U diagonal.
    gather_dst_.assign(reach_nodes_.size(), 0);
    for (std::size_t j = 0; j < n_; ++j) {
        std::size_t lp = l_ptr_[j];
        std::size_t up = u_col_begin[j];
        for (std::size_t it = reach_ptr_[j]; it < reach_ptr_[j + 1]; ++it) {
            const std::size_t i = reach_nodes_[it];
            if (i == pivot_row_[j]) {
                gather_dst_[it] = static_cast<std::ptrdiff_t>(u_ptr_[j]);
            } else if (pinv_[i] < j) {
                gather_dst_[it] = static_cast<std::ptrdiff_t>(u_dst[up++]);
            } else {
                gather_dst_[it] = ~static_cast<std::ptrdiff_t>(lp++);
            }
        }
    }
}

bool SparseLu::try_refactor_numeric(std::span<const double> values) {
    const double tol = pivot_tol_ * std::max(max_abs_value(values), 1e-300);

    if (work_.size() != n_) {
        work_.assign(n_, 0.0);
    }
    std::vector<double>& x = work_;
    std::uint64_t flops = 0;

    // factor_full()'s column sweep minus the DFS: the same operations in
    // the same order, so the factors stay bit-identical.
    for (std::size_t j = 0; j < n_; ++j) {
        const std::size_t reach_begin = reach_ptr_[j];
        const std::size_t reach_end = reach_ptr_[j + 1];

        // Scatter A(:,j) and eliminate along the recorded reach set.
        for (std::size_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p) {
            x[row_idx_[p]] += values[p];
        }
        for (std::size_t it = reach_end; it-- > reach_begin;) {
            const std::size_t i = reach_nodes_[it];
            const std::size_t k = pinv_[i];
            if (k >= j) { // not yet pivotal at this column
                continue;
            }
            const double xi = x[i];
            if (xi == 0.0) {
                continue;
            }
            const std::size_t lp_end = l_ptr_[k + 1];
            for (std::size_t p = l_ptr_[k]; p < lp_end; ++p) {
                x[l_row_[p]] -= l_val_[p] * xi;
            }
            flops += 2 * (lp_end - l_ptr_[k]);
        }

        // Pivot check: keep the recorded pivot unless it degraded.
        const std::size_t pivot_row = pivot_row_[j];
        const double pivot_mag = std::abs(x[pivot_row]);
        double cand_max = 0.0;
        for (std::size_t it = reach_begin; it < reach_end; ++it) {
            const std::size_t i = reach_nodes_[it];
            if (pinv_[i] >= j) {
                cand_max = std::max(cand_max, std::abs(x[i]));
            }
        }
        if (pivot_mag < tol ||
            pivot_mag < k_refactor_pivot_ratio * cand_max) {
            // Degraded: restore x's zero invariant and bill NOTHING for
            // the attempt — the caller's fallback full factorisation
            // accounts for this step's factor cost exactly once.
            for (std::size_t it = reach_begin; it < reach_end; ++it) {
                x[reach_nodes_[it]] = 0.0;
            }
            return false;
        }
        const double ujj = x[pivot_row];

        // Gather through the precomputed destination plan.
        for (std::size_t it = reach_begin; it < reach_end; ++it) {
            const std::size_t i = reach_nodes_[it];
            const double xi = x[i];
            x[i] = 0.0;
            const std::ptrdiff_t dst = gather_dst_[it];
            if (dst >= 0) {
                u_val_[static_cast<std::size_t>(dst)] = xi;
            } else {
                l_val_[static_cast<std::size_t>(~dst)] = xi / ujj;
                ++flops;
            }
        }
    }

    ++fast_refactors_;
    last_factor_flops_ = flops;
    auto& counter = current_flops();
    counter.lu_factor += flops;
    counter.mul += flops / 2;
    counter.add += flops / 2;
    return true;
}

bool SparseLu::refactor(std::span<const double> values) {
    if (values.size() != row_idx_.size()) {
        throw SimError("SparseLu::refactor: value count does not match the "
                       "cached pattern");
    }
    const std::span<const double> internal = to_internal(values);
    if (try_refactor_numeric(internal)) {
        return true;
    }
    factor_full(internal);
    return false;
}

bool SparseLu::refactor(const Triplets& a) {
    if (a.rows() != a.cols() || a.rows() != n_) {
        throw SimError("SparseLu::refactor: matrix shape mismatch");
    }
    if (permuted()) {
        // The cached pattern lives in permuted space; comparing it against
        // a freshly compressed caller pattern is meaningless.  The cached
        // CSC paths (SystemCache) use refactor(values) instead.
        throw SimError("SparseLu::refactor(Triplets): not supported with a "
                       "fill-reducing pre-permutation");
    }
    // Compress into (col, row)-sorted summed form and compare patterns.
    const std::vector<std::size_t> old_col_ptr = col_ptr_;
    const std::vector<std::size_t> old_row_idx = row_idx_;
    const std::vector<double> values = set_pattern_from_triplets(a);
    if (col_ptr_ == old_col_ptr && row_idx_ == old_row_idx) {
        return refactor(std::span<const double>(values));
    }
    // Pattern changed: the symbolic analysis is stale; redo everything.
    factor_full(values);
    return false;
}

Vector SparseLu::solve(const Vector& b) const {
    if (b.size() != n_) {
        throw SimError("SparseLu::solve: rhs size mismatch");
    }
    Vector x(n_);
    if (!permuted()) {
        // y = P b, substituted in place: y[j] ends as x_j.
        for (std::size_t i = 0; i < n_; ++i) {
            x[pinv_[i]] = b[i];
        }
        substitute(x);
        return x;
    }
    // A(q,q) x' = b(q): one gather composes q with the row pivots, one
    // scatter undoes q.  The intermediate reuses member scratch —
    // engines call this every accepted step, so like refactor() the
    // permuted path allocates nothing beyond the returned vector.
    const std::vector<std::size_t>& q = perm_.new_to_old();
    Vector& y = perm_y_;
    y.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
        y[pinv_[k]] = b[q[k]];
    }
    substitute(y);
    for (std::size_t k = 0; k < n_; ++k) {
        x[q[k]] = y[k];
    }
    return x;
}

namespace {

/// sum_p val[p] * y[col[p]] over [begin, end) in four partial sums; every
/// term executes, zeros included.
double row_dot(const double* val, const std::size_t* col, std::size_t begin,
               std::size_t end, const double* y) noexcept {
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    std::size_t p = begin;
    for (; p + 4 <= end; p += 4) {
        s0 += val[p] * y[col[p]];
        s1 += val[p + 1] * y[col[p + 1]];
        s2 += val[p + 2] * y[col[p + 2]];
        s3 += val[p + 3] * y[col[p + 3]];
    }
    for (; p < end; ++p) {
        s0 += val[p] * y[col[p]];
    }
    return (s0 + s1) + (s2 + s3);
}

} // namespace

void SparseLu::substitute(Vector& y) const {
    std::uint64_t flops = 0;

    // Forward substitution, column-oriented over the flat L: unit
    // diagonal implicit, pivot-space rows precomputed (l_prow_).
    for (std::size_t j = 0; j < n_; ++j) {
        const double yj = y[j];
        if (yj == 0.0) {
            continue;
        }
        const std::size_t lp_end = l_ptr_[j + 1];
        for (std::size_t p = l_ptr_[j]; p < lp_end; ++p) {
            y[l_prow_[p]] -= l_val_[p] * yj;
        }
        flops += 2 * (lp_end - l_ptr_[j]);
    }
    // Back substitution, one dot product per row of the row-major U.  A
    // row shorter than k_split_row keeps one running sum over descending
    // columns and skips the terms whose x_j is 0: the operations, in
    // order, of a column-oriented sweep.
    bool nonzero_x = false;
    for (std::size_t i = n_; i-- > 0;) {
        const std::size_t diag = u_ptr_[i];
        const std::size_t begin = diag + 1;
        // While every x_j solved so far is 0 (a zero rhs, or the zero
        // tail of a sparse one) no term executes.
        const std::size_t end = nonzero_x ? u_ptr_[i + 1] : begin;
        double s = y[i];
        if (end - begin < k_split_row) {
            for (std::size_t p = begin; p < end; ++p) {
                const double xj = y[u_col_[p]];
                if (xj != 0.0) {
                    s -= u_val_[p] * xj;
                    flops += 2;
                }
            }
        } else {
            s -= row_dot(u_val_.data(), u_col_.data(), begin, end, y.data());
            flops += 2 * (end - begin);
        }
        y[i] = s / u_val_[diag];
        ++flops;
        nonzero_x = nonzero_x || y[i] != 0.0;
    }

    auto& counter = current_flops();
    counter.lu_solve += flops;
    counter.mul += flops / 2;
    counter.add += flops / 2;
}

} // namespace nanosim::linalg
