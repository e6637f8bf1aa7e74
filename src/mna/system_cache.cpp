#include "mna/system_cache.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>
#include <optional>
#include <utility>

#include "linalg/lu.hpp"
#include "linalg/vecops.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"
#include "util/flops.hpp"

namespace nanosim::mna {

using obs::ScopedTimer;

namespace {

/// `linalg.factor_alloc` fail point: simulate an allocation failure
/// inside a factorisation (the catch below turns real and injected
/// bad_allocs alike into a diagnosed AnalysisError).
void maybe_inject_factor_alloc() {
    if (failpoints::enabled()) {
        static auto& fp = failpoints::site("linalg.factor_alloc");
        if (fp.fire()) {
            throw std::bad_alloc();
        }
    }
}

/// Maps device-level stamps onto matrix coordinates exactly like
/// MnaBuilder (ground rows dropped, node n -> row n-1, branch b -> row
/// num_nodes + b), forwarding to entry()/rhs_add() hooks.  Shared by the
/// pattern dry-run recorder and the per-step scatter stamper.
class CoordStamper : public Stamper {
public:
    explicit CoordStamper(int num_nodes) : num_nodes_(num_nodes) {}

    void conductance(NodeId a, NodeId b, double g) override {
        if (a != k_ground) {
            entry(node_row(a), node_row(a), g);
        }
        if (b != k_ground) {
            entry(node_row(b), node_row(b), g);
        }
        if (a != k_ground && b != k_ground) {
            entry(node_row(a), node_row(b), -g);
            entry(node_row(b), node_row(a), -g);
        }
    }

    void conductance_entry(NodeId row, NodeId col, double g) override {
        if (row == k_ground || col == k_ground) {
            return;
        }
        entry(node_row(row), node_row(col), g);
    }

    void capacitance(NodeId, NodeId, double) override {
        // The C matrix is frozen at assembly time; a reactive stamp in a
        // per-step restamp would be a device-model bug.
        throw AnalysisError(
            "SystemCache: capacitance() is not a per-step stamp");
    }

    void rhs_current(NodeId node, double i) override {
        if (node == k_ground) {
            return;
        }
        rhs_add(node_row(node), i);
    }

    void branch_incidence(NodeId node, int branch, double sign) override {
        if (node == k_ground) {
            return;
        }
        entry(node_row(node), branch_row(branch), sign);
    }

    void branch_voltage_coeff(int branch, NodeId node,
                              double coeff) override {
        if (node == k_ground) {
            return;
        }
        entry(branch_row(branch), node_row(node), coeff);
    }

    void branch_reactive(int, int, double) override {
        throw AnalysisError(
            "SystemCache: branch_reactive() is not a per-step stamp");
    }

    void branch_rhs(int branch, double value) override {
        rhs_add(branch_row(branch), value);
    }

protected:
    virtual void entry(std::size_t row, std::size_t col, double value) = 0;
    virtual void rhs_add(std::size_t row, double value) = 0;

private:
    [[nodiscard]] std::size_t node_row(NodeId n) const noexcept {
        return static_cast<std::size_t>(n - 1);
    }
    [[nodiscard]] std::size_t branch_row(int b) const noexcept {
        return static_cast<std::size_t>(num_nodes_ + b);
    }

    int num_nodes_;
};

/// Dry-run stamper: records which coordinates a stamp source touches.
class PatternRecorder final : public CoordStamper {
public:
    PatternRecorder(int num_nodes,
                    std::vector<std::pair<std::size_t, std::size_t>>& coords)
        : CoordStamper(num_nodes), coords_(&coords) {}

protected:
    void entry(std::size_t row, std::size_t col, double) override {
        coords_->emplace_back(row, col);
    }
    void rhs_add(std::size_t, double) override {}

private:
    std::vector<std::pair<std::size_t, std::size_t>>* coords_;
};

} // namespace

std::vector<std::pair<std::size_t, std::size_t>>
union_stamp_pattern(const MnaAssembler& assembler) {
    const auto n = static_cast<std::size_t>(assembler.unknowns());
    std::vector<std::pair<std::size_t, std::size_t>> coords;
    for (const auto& e : assembler.static_g().entries()) {
        coords.emplace_back(e.row, e.col);
    }
    for (const auto& e : assembler.c_triplets().entries()) {
        coords.emplace_back(e.row, e.col);
    }
    // Node diagonals are always structural: the SWEC DC continuation adds
    // pseudo-capacitances there, and keeping them guarantees a pivot slot
    // for every KCL row.
    for (int i = 0; i < assembler.num_nodes(); ++i) {
        const auto r = static_cast<std::size_t>(i);
        coords.emplace_back(r, r);
    }
    PatternRecorder recorder(assembler.num_nodes(), coords);
    assembler.stamp_time_varying_into(0.0, recorder);
    const std::size_t nl = assembler.nonlinear_devices().size();
    if (nl > 0) {
        const std::vector<double> geq(nl, 1.0);
        assembler.stamp_swec_into(geq, recorder);
        const linalg::Vector x0(n, 0.0);
        assembler.stamp_nr_into(x0, recorder);
    }
    // CSC order: by column, then row; duplicates collapse.
    std::sort(coords.begin(), coords.end(),
              [](const auto& a, const auto& b) {
                  return a.second != b.second ? a.second < b.second
                                              : a.first < b.first;
              });
    coords.erase(std::unique(coords.begin(), coords.end()), coords.end());
    return coords;
}

namespace {

/// FNV-1a accumulator shared by the signature functions (they must emit
/// bit-identical hashes for the same coordinate stream).
struct Fnv1a {
    std::uint64_t h = 14695981039346656037ULL;
    void mix(std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffULL;
            h *= 1099511628211ULL;
        }
    }
};

} // namespace

std::uint64_t stamp_pattern_signature(
    std::size_t unknowns,
    const std::vector<std::pair<std::size_t, std::size_t>>& coords) {
    Fnv1a fnv;
    fnv.mix(static_cast<std::uint64_t>(unknowns));
    for (const auto& [row, col] : coords) {
        fnv.mix(static_cast<std::uint64_t>(row));
        fnv.mix(static_cast<std::uint64_t>(col));
    }
    return fnv.h;
}

std::uint64_t stamp_pattern_signature(const MnaAssembler& assembler) {
    return stamp_pattern_signature(
        static_cast<std::size_t>(assembler.unknowns()),
        union_stamp_pattern(assembler));
}

/// Per-step stamper: scatters matrix writes into the cached slot array
/// and rhs writes into the vector bound by begin().
class SystemCache::ScatterStamper final : public CoordStamper {
public:
    ScatterStamper(SystemCache& owner, int num_nodes)
        : CoordStamper(num_nodes), owner_(&owner) {}

    void bind(linalg::Vector* rhs) noexcept { rhs_ = rhs; }

protected:
    void entry(std::size_t row, std::size_t col, double value) override {
        owner_->add_entry(row, col, value);
    }
    void rhs_add(std::size_t row, double value) override {
        (*rhs_)[row] += value;
    }

private:
    SystemCache* owner_;
    linalg::Vector* rhs_ = nullptr;
};

SystemCache::SystemCache(const MnaAssembler& assembler, Options options)
    // Union pattern dry-run: everything any engine may stamp per step.
    // Signature 0 = "hash the frozen pattern for me" (at construction
    // the frozen pattern IS the union pattern, in the same CSC order).
    : SystemCache(assembler, options, union_stamp_pattern(assembler), 0) {}

SystemCache::SystemCache(
    const MnaAssembler& assembler, Options options,
    std::vector<std::pair<std::size_t, std::size_t>> coords,
    std::uint64_t signature)
    : assembler_(&assembler),
      options_(options),
      n_(static_cast<std::size_t>(assembler.unknowns())),
      signature_(signature) {
    freeze_pattern(std::move(coords));
    if (signature_ == 0) {
        signature_ = frozen_pattern_signature();
    }
    stamper_ = std::make_unique<ScatterStamper>(*this, assembler.num_nodes());
    if (dense_path()) {
        dense_ = linalg::DenseMatrix(n_, n_);
    }
}

std::uint64_t SystemCache::frozen_pattern_signature() const {
    // Identical stream to stamp_pattern_signature(n, coords): CSC
    // traversal yields (row, col) pairs sorted by column then row —
    // exactly union_stamp_pattern's order.
    Fnv1a fnv;
    fnv.mix(static_cast<std::uint64_t>(n_));
    for (std::size_t c = 0; c < n_; ++c) {
        for (std::size_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
            fnv.mix(static_cast<std::uint64_t>(row_idx_[p]));
            fnv.mix(static_cast<std::uint64_t>(c));
        }
    }
    return fnv.h;
}

void SystemCache::rebind(const MnaAssembler& assembler) {
    if (static_cast<std::size_t>(assembler.unknowns()) != n_) {
        throw AnalysisError(
            "SystemCache::rebind: unknown count changed; build a fresh "
            "cache");
    }
    std::vector<std::pair<std::size_t, std::size_t>> coords =
        union_stamp_pattern(assembler);
    bool fits = true;
    for (const auto& [row, col] : coords) {
        if (row >= n_ || col >= n_ || slot_of(row, col) == k_npos) {
            fits = false;
            break;
        }
    }
    assembler_ = &assembler;
    signature_ = stamp_pattern_signature(n_, coords);
    if (fits) {
        // Same structure (possibly a subset of an overflow-extended
        // pattern): keep the symbolic analysis and ordering, refresh the
        // value baselines only.  The next solve is a numeric refactor.
        // The stamp program still recompiles — it caches device pointers
        // and parameter addresses of the assembler it was built against.
        const ScopedTimer timer(stats_.analyze_s, "analyze");
        refresh_baselines();
        rebuild_program();
        reuse_armed_ = false; // new baselines: the old LU is not this run's
    } else {
        freeze_pattern(std::move(coords));
    }
}

SystemCache::~SystemCache() = default;

void SystemCache::freeze_pattern(
    std::vector<std::pair<std::size_t, std::size_t>> coords) {
    // The symbolic-analysis bucket: pattern freeze + ordering selection
    // + StampProgram compilation (the previously unattributed first-step
    // cost the CLI "step time:" line under-counted).
    const ScopedTimer timer(stats_.analyze_s, "analyze");
    // CSC order: by column, then row; duplicates collapse.
    std::sort(coords.begin(), coords.end(),
              [](const auto& a, const auto& b) {
                  return a.second != b.second ? a.second < b.second
                                              : a.first < b.first;
              });
    coords.erase(std::unique(coords.begin(), coords.end()), coords.end());

    col_ptr_.assign(n_ + 1, 0);
    row_idx_.clear();
    row_idx_.reserve(coords.size());
    for (const auto& [row, col] : coords) {
        if (row >= n_ || col >= n_) {
            throw AnalysisError("SystemCache: stamp coordinate out of range");
        }
        row_idx_.push_back(row);
        ++col_ptr_[col + 1];
    }
    for (std::size_t c = 0; c < n_; ++c) {
        col_ptr_[c + 1] += col_ptr_[c];
    }

    diag_slots_.resize(
        static_cast<std::size_t>(assembler_->num_nodes()));
    for (std::size_t i = 0; i < diag_slots_.size(); ++i) {
        diag_slots_[i] = slot_of(i, i); // always structural (union pattern)
    }

    refresh_baselines();
    lu_.reset(); // symbolic analysis is tied to the pattern
    reuse_armed_ = false;
    choose_ordering();
    rebuild_program();
}

void SystemCache::rebuild_program() {
    program_.reset();
    if (!options_.use_stamp_program) {
        return;
    }
    program_ = std::make_unique<StampProgram>(
        *assembler_, [this](std::size_t row, std::size_t col) {
            const std::size_t s = slot_of(row, col);
            return s == k_npos ? StampProgram::k_npos : s;
        });
}

void SystemCache::refresh_baselines() {
    // Baseline slot arrays (static G and C in pattern order).
    static_values_.assign(row_idx_.size(), 0.0);
    for (const auto& e : assembler_->static_g().entries()) {
        static_values_[slot_of(e.row, e.col)] += e.value;
    }
    c_values_.assign(row_idx_.size(), 0.0);
    for (const auto& e : assembler_->c_triplets().entries()) {
        c_values_[slot_of(e.row, e.col)] += e.value;
    }
    values_.assign(row_idx_.size(), 0.0);
}

void SystemCache::choose_ordering() {
    stats_.pattern_nnz = row_idx_.size();
    ordering_ = linalg::Permutation{};
    stats_.ordering = linalg::Ordering::natural;
    stats_.predicted_fill_natural = 0;
    stats_.predicted_fill_chosen = 0;
    stats_.factor_nnz = 0; // stale until the new pattern's LU exists
    if (dense_path()) {
        return; // dense LU has no fill to reduce
    }

    const std::size_t fill_natural =
        linalg::predicted_fill(n_, col_ptr_, row_idx_);
    stats_.predicted_fill_natural = fill_natural;
    stats_.predicted_fill_chosen = fill_natural;

    auto adopt = [&](linalg::Ordering which, linalg::Permutation perm,
                     std::size_t fill) {
        stats_.ordering = which;
        stats_.predicted_fill_chosen = fill;
        ordering_ = std::move(perm);
    };

    switch (options_.ordering) {
    case linalg::Ordering::natural:
        return;
    case linalg::Ordering::rcm: {
        linalg::Permutation rcm =
            linalg::reverse_cuthill_mckee(n_, col_ptr_, row_idx_);
        const std::size_t fill =
            linalg::predicted_fill(n_, col_ptr_, row_idx_, rcm);
        adopt(linalg::Ordering::rcm, std::move(rcm), fill);
        return;
    }
    case linalg::Ordering::min_degree: {
        linalg::Permutation md =
            linalg::min_degree_ordering(n_, col_ptr_, row_idx_);
        const std::size_t fill =
            linalg::predicted_fill(n_, col_ptr_, row_idx_, md);
        adopt(linalg::Ordering::min_degree, std::move(md), fill);
        return;
    }
    case linalg::Ordering::automatic:
        break;
    }

    // Auto-select: least predicted fill wins; natural keeps ties (it is
    // free — no gather, no rhs permutation).
    linalg::Permutation rcm =
        linalg::reverse_cuthill_mckee(n_, col_ptr_, row_idx_);
    const std::size_t fill_rcm =
        linalg::predicted_fill(n_, col_ptr_, row_idx_, rcm);
    linalg::Permutation md =
        linalg::min_degree_ordering(n_, col_ptr_, row_idx_);
    const std::size_t fill_md =
        linalg::predicted_fill(n_, col_ptr_, row_idx_, md);
    if (fill_md < fill_natural && fill_md <= fill_rcm) {
        adopt(linalg::Ordering::min_degree, std::move(md), fill_md);
    } else if (fill_rcm < fill_natural) {
        adopt(linalg::Ordering::rcm, std::move(rcm), fill_rcm);
    }
}

std::size_t SystemCache::slot_of(std::size_t row,
                                 std::size_t col) const noexcept {
    const auto begin = row_idx_.begin() +
                       static_cast<std::ptrdiff_t>(col_ptr_[col]);
    const auto end = row_idx_.begin() +
                     static_cast<std::ptrdiff_t>(col_ptr_[col + 1]);
    const auto it = std::lower_bound(begin, end, row);
    if (it == end || *it != row) {
        return k_npos;
    }
    return static_cast<std::size_t>(it - row_idx_.begin());
}

Stamper& SystemCache::begin(double reactive_scale, linalg::Vector& rhs) {
    if (rhs.size() != n_) {
        throw AnalysisError("SystemCache::begin: rhs size mismatch");
    }
    const ScopedTimer timer(stats_.stamp_s, "stamp");
    overflow_.clear();
    for (std::size_t s = 0; s < values_.size(); ++s) {
        values_[s] = static_values_[s] + reactive_scale * c_values_[s];
    }
    bound_rhs_ = &rhs;
    stamper_->bind(&rhs);
    return *stamper_;
}

void SystemCache::eval_chords(std::span<const double> x,
                              std::span<const double> dvdt, bool with_rate,
                              std::span<double> geq,
                              std::span<double> geq_rate) {
    const ScopedTimer timer(stats_.eval_s, "eval");
    const NodeVoltages v = assembler_->view(x);
    const NodeVoltages rate_view = assembler_->view(dvdt);
    if (program_ != nullptr) {
        program_->eval_chords(v, rate_view, with_rate, geq, geq_rate);
        return;
    }
    const auto& nonlinear = assembler_->nonlinear_devices();
    for (std::size_t k = 0; k < nonlinear.size(); ++k) {
        geq[k] = nonlinear[k]->swec_conductance(v);
        if (!geq_rate.empty()) {
            geq_rate[k] =
                with_rate
                    ? nonlinear[k]->swec_conductance_rate(v, rate_view)
                    : 0.0;
        }
    }
}

linalg::Vector
SystemCache::rhs(double t, const MnaAssembler::NoiseRealization* noise) {
    const ScopedTimer timer(stats_.stamp_s, "stamp");
    if (program_ != nullptr && program_->rhs_fast()) {
        linalg::Vector out;
        program_->eval_rhs(t, noise, out);
        return out;
    }
    return assembler_->rhs(t, noise);
}

void SystemCache::add_history(const linalg::Vector& x, double h,
                              linalg::Vector& rhs) {
    const ScopedTimer timer(stats_.stamp_s, "stamp");
    const linalg::Vector cx = assembler_->c_csr().multiply(x);
    for (std::size_t i = 0; i < n_; ++i) {
        rhs[i] += cx[i] / h;
    }
}

void SystemCache::restamp_time_varying(double t) {
    const ScopedTimer timer(stats_.stamp_s, "stamp");
    if (program_ != nullptr) {
        program_->apply_time_varying(t, values_, *stamper_);
    } else {
        assembler_->stamp_time_varying_into(t, *stamper_);
    }
}

void SystemCache::restamp_swec(std::span<const double> geq) {
    const ScopedTimer timer(stats_.stamp_s, "stamp");
    if (program_ != nullptr) {
        program_->apply_swec(geq, values_, *stamper_);
    } else {
        assembler_->stamp_swec_into(geq, *stamper_);
    }
}

linalg::Vector SystemCache::multiply(std::span<const double> x) const {
    linalg::Vector y(n_, 0.0);
    for (std::size_t c = 0; c < n_; ++c) {
        for (std::size_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
            y[row_idx_[p]] += values_[p] * x[c];
        }
    }
    count_fma(row_idx_.size());
    return y;
}

void SystemCache::restamp_nr(std::span<const double> x) {
    const ScopedTimer timer(stats_.stamp_s, "stamp");
    if (program_ != nullptr) {
        if (bound_rhs_ == nullptr) {
            throw AnalysisError("SystemCache::restamp_nr: no begin() rhs");
        }
        program_->apply_nr(x, values_, *bound_rhs_, *stamper_);
    } else {
        assembler_->stamp_nr_into(x, *stamper_);
    }
}

void SystemCache::restamp_nortons(std::span<const double> g,
                                  std::span<const double> ioff) {
    const ScopedTimer timer(stats_.stamp_s, "stamp");
    if (!norton_fast() || bound_rhs_ == nullptr) {
        throw AnalysisError(
            "SystemCache::restamp_nortons: norton fast path unavailable");
    }
    program_->apply_nortons(g, ioff, values_, *bound_rhs_);
}

void SystemCache::add_node_diag(std::size_t node_row, double value) {
    values_[diag_slots_[node_row]] += value;
}

void SystemCache::swec_gdiag(double t, std::span<const double> geq,
                             std::span<double> gdiag) {
    const ScopedTimer timer(stats_.stamp_s, "stamp");
    if (program_ != nullptr && program_->gdiag_fast()) {
        program_->add_swec_gdiag(t, geq, gdiag);
        return;
    }
    // Legacy pass: stamp time-varying + SWEC contributions into a
    // scratch builder and keep the node-diagonal entries (exactly the
    // historical per-step block of run_tran_swec).
    const auto nn = static_cast<std::size_t>(assembler_->num_nodes());
    MnaBuilder scratch(assembler_->num_nodes(), assembler_->num_branches());
    assembler_->stamp_time_varying_into(t, scratch);
    assembler_->stamp_swec_into(geq, scratch);
    for (const auto& e : scratch.g().entries()) {
        if (e.row == e.col && e.row < nn) {
            gdiag[e.row] += e.value;
        }
    }
}

double SystemCache::device_step_bound(std::span<const double> x,
                                      std::span<const double> dvdt,
                                      std::span<const double> geq,
                                      std::span<const double> geq_rate,
                                      double eps) {
    const ScopedTimer timer(stats_.eval_s, "eval");
    const NodeVoltages v = assembler_->view(x);
    const NodeVoltages rate = assembler_->view(dvdt);
    if (program_ != nullptr) {
        return program_->device_step_bound(v, rate, geq, geq_rate, eps);
    }
    double bound = std::numeric_limits<double>::infinity();
    for (const Device* dev : assembler_->nonlinear_devices()) {
        bound = std::min(bound, dev->step_limit(v, rate, eps));
    }
    return bound;
}

void SystemCache::configure_tables(const TableConfig& cfg) {
    if (program_ == nullptr) {
        return; // legacy baseline: closed forms only
    }
    // Bindings survive a closed-form interlude (the DC march before each
    // Monte-Carlo trial), so re-enabling the same config costs nothing.
    if (cfg.enabled &&
        !(program_->tables_bound() && cfg == bound_table_cfg_)) {
        stats_.tables_built += program_->bind_tables(table_store_, cfg);
        bound_table_cfg_ = cfg;
    }
    program_->use_tables(cfg.enabled);
}

void SystemCache::add_entry(std::size_t row, std::size_t col, double value) {
    const std::size_t s = slot_of(row, col);
    if (s == k_npos) {
        // Outside the frozen pattern: buffer it; solve() falls back to
        // the triplet path for this step and re-freezes the pattern.
        overflow_.push_back(linalg::Triplet{row, col, value});
        return;
    }
    values_[s] += value;
}

linalg::Vector SystemCache::solve(const linalg::Vector& rhs) {
    ++stats_.steps;

    if (failpoints::enabled()) {
        // `linalg.singular_pivot`: a pivot collapsed below tolerance —
        // exactly the SingularMatrixError the factoriser raises itself.
        static auto& fp_pivot = failpoints::site("linalg.singular_pivot");
        if (fp_pivot.fire()) {
            throw SingularMatrixError(
                "fail-point linalg.singular_pivot fired");
        }
        // `mna.pattern_overflow`: force the escaped-the-frozen-pattern
        // slow path (triplet solve + pattern re-freeze) with a no-op
        // stamp — the value plane is unchanged.
        static auto& fp_overflow = failpoints::site("mna.pattern_overflow");
        if (fp_overflow.fire() && overflow_.empty() && n_ > 0) {
            overflow_.push_back(linalg::Triplet{0, 0, 0.0});
        }
    }

    // Factor-time distribution (metrics on only): registered once, then
    // the cached reference is a couple of relaxed atomics per solve.
    obs::Histogram* factor_hist = nullptr;
    if (obs::metrics_enabled()) {
        static obs::Histogram& h =
            obs::metrics().histogram("cache.factor_s", obs::time_buckets());
        factor_hist = &h;
    }

    if (!overflow_.empty()) {
        linalg::Vector x;
        std::vector<std::pair<std::size_t, std::size_t>> coords;
        {
            const ScopedTimer timer(stats_.factor_s, "factor", "cache",
                                    factor_hist);
            linalg::Triplets t(n_, n_);
            for (std::size_t c = 0; c < n_; ++c) {
                for (std::size_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
                    t.add(row_idx_[p], c, values_[p]);
                }
            }
            coords.reserve(row_idx_.size() + overflow_.size());
            for (std::size_t c = 0; c < n_; ++c) {
                for (std::size_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
                    coords.emplace_back(row_idx_[p], c);
                }
            }
            for (const auto& o : overflow_) {
                t.add(o.row, o.col, o.value);
                coords.emplace_back(o.row, o.col);
            }
            overflow_.clear();
            x = solve_system(t, rhs, options_.dense_threshold);
        }
        // The re-freeze bills its own time to analyze_s (it IS symbolic
        // analysis), so it runs outside the factor scope.
        freeze_pattern(std::move(coords));
        ++stats_.pattern_rebuilds;
        if (obs::metrics_enabled()) {
            static obs::Counter& c =
                obs::metrics().counter("cache.pattern_rebuilds");
            c.inc();
        }
        return x;
    }

    if (dense_path()) {
        std::optional<linalg::DenseLu> lu;
        try {
            const ScopedTimer timer(stats_.factor_s, "factor", "cache",
                                    factor_hist);
            maybe_inject_factor_alloc();
            dense_.set_zero();
            for (std::size_t c = 0; c < n_; ++c) {
                for (std::size_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
                    dense_(row_idx_[p], c) += values_[p];
                }
            }
            lu.emplace(dense_, options_.pivot_tol);
        } catch (const std::bad_alloc&) {
            throw AnalysisError(
                "SystemCache::solve: factor allocation failed");
        }
        ++stats_.dense_solves;
        const ScopedTimer timer(stats_.solve_s, "solve");
        return lu->solve(rhs);
    }

    if (reuse_armed_) {
        linalg::Vector x;
        if (try_refine(rhs, x)) {
            ++stats_.refactors_skipped;
            return x;
        }
        // Only a successful exact factor re-arms reuse, so a failing
        // factor (singular, NaN) leaves the rescue ladder on exact solves.
        reuse_armed_ = false;
    }

    try {
        const ScopedTimer timer(stats_.factor_s, "factor", "cache",
                                factor_hist);
        maybe_inject_factor_alloc();
        if (!lu_) {
            lu_ = std::make_unique<linalg::SparseLu>(
                n_, col_ptr_, row_idx_, std::span<const double>(values_),
                ordering_, options_.pivot_tol);
            ++stats_.full_factors;
        } else if (lu_->refactor(std::span<const double>(values_))) {
            ++stats_.fast_refactors;
        } else {
            ++stats_.full_factors;
            ++stats_.pivot_fallbacks;
            if (obs::metrics_enabled()) {
                static obs::Counter& c =
                    obs::metrics().counter("cache.pivot_fallbacks");
                c.inc();
            }
        }
    } catch (const std::bad_alloc&) {
        // A half-built factor must not be trusted by the next refactor.
        lu_.reset();
        throw AnalysisError("SystemCache::solve: factor allocation failed");
    }
    // Re-read every step: a degraded-pivot fallback re-pivots and can
    // change the factor fill.
    stats_.factor_nnz = lu_->nnz_factors();
    // Reuse pays when the refactor just paid for costs at least the
    // whole sweep budget: k sweeps of one correction solve + one residual.
    const std::uint64_t sweep_flops =
        2 * static_cast<std::uint64_t>(lu_->nnz_factors() + row_idx_.size());
    reuse_armed_ = options_.reuse_factor &&
                   lu_->last_factor_flops() >= k_refine_sweeps * sweep_flops;
    const ScopedTimer timer(stats_.solve_s, "solve");
    return lu_->solve(rhs);
}

bool SystemCache::try_refine(const linalg::Vector& rhs, linalg::Vector& x) {
    const ScopedTimer timer(stats_.solve_s, "refine");
    // ||A||_inf, and the screen for an empty row or column: such an A is
    // singular, and a consistent rhs could still refine to a small
    // residual — the exact factor must diagnose it instead.
    row_abs_.assign(n_, 0.0);
    for (std::size_t c = 0; c < n_; ++c) {
        double col_abs = 0.0;
        for (std::size_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
            const double a = std::abs(values_[p]);
            row_abs_[row_idx_[p]] += a;
            col_abs += a;
        }
        if (col_abs == 0.0) {
            return false;
        }
    }
    double norm_a = 0.0;
    for (const double r : row_abs_) {
        if (r == 0.0) {
            return false;
        }
        norm_a = std::max(norm_a, r);
    }
    const double norm_b = linalg::norm_inf(rhs);

    x = lu_->solve(rhs);
    double prev_norm = std::numeric_limits<double>::infinity();
    for (std::size_t sweep = 0;; ++sweep) {
        // r = b - A x against the current values (no zero skipping, so a
        // NaN anywhere in A or x reaches the norm).
        residual_ = rhs;
        for (std::size_t c = 0; c < n_; ++c) {
            const double xc = x[c];
            for (std::size_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
                residual_[row_idx_[p]] -= values_[p] * xc;
            }
        }
        count_fma(row_idx_.size());
        const double r_norm = linalg::norm_inf(residual_);
        const double scale = norm_a * linalg::norm_inf(x) + norm_b;
        if (!std::isfinite(r_norm) || !std::isfinite(scale)) {
            return false;
        }
        if (r_norm <= k_refine_tol * scale) {
            stats_.max_backward_error =
                std::max(stats_.max_backward_error,
                         scale > 0.0 ? r_norm / scale : 0.0);
            return true;
        }
        if (sweep == k_refine_sweeps ||
            r_norm > k_refine_contraction * prev_norm) {
            return false;
        }
        prev_norm = r_norm;
        const linalg::Vector dx = lu_->solve(residual_);
        for (std::size_t i = 0; i < n_; ++i) {
            x[i] += dx[i];
        }
        ++stats_.refine_sweeps;
    }
}

} // namespace nanosim::mna
