// Nano-Sim — cached per-step MNA system with an in-place restamp path.
//
// The SWEC observation (paper Sec. 3): the sparsity pattern of the
// per-step linear system  (G_static + G_dynamic + s C) x = b  never
// changes during a transient — only the chord conductances and the
// reactive scale s = 1/h move.  The seed engines nevertheless rebuilt a
// fresh triplet list and re-ran the full symbolic LU every step.
//
// SystemCache fixes that end to end:
//
//  * at construction it dry-runs every stamp source the engines can apply
//    (static G, the C matrix, time-varying devices, SWEC chords, NR
//    linearisations, node-diagonal pseudo-elements) against the assembler,
//    freezes the UNION sparsity pattern as a CSC index and hashes it into
//    signature() (rebind() re-hashes the new assembly's pattern);
//  * begin(scale, rhs) resets the value array to  static + scale * C  in
//    one linear pass and hands back a Stamper whose writes scatter
//    straight into the cached slots (binary search within one column) —
//    no triplets, no allocation;
//  * solve() auto-selects dense LU at or below mna::k_dense_threshold
//    unknowns and otherwise factors once, then reuses the symbolic
//    analysis through SparseLu::refactor() on later steps (both LUs at
//    their default pivot tolerance);
//  * where a refactor costs at least k_refine_sweeps residual-correction
//    sweeps, solve() reuses the last exact LU across steps instead: it
//    solves with the stale factor and refines x += LU^-1 (b - A x) until
//    the componentwise backward error reaches k_refine_tol, and refactors
//    exactly only when a sweep fails to contract the residual, the sweep
//    budget runs out, or the residual is not finite.  Every engine run
//    (start_run()), rebind and pattern freeze starts from an exact
//    factor, so no output depends on what the cache solved before;
//  * a stamp that misses the frozen pattern (possible only for exotic
//    devices whose stamp pattern changes at runtime) is not lost: it is
//    buffered, the step is solved through the legacy triplet path, and
//    the pattern is re-frozen including the new coordinates so subsequent
//    steps are fast again.
//
// An engine called without a cache builds one for its run (a SWEC
// transient solves its start-from-DC operating point on it too); a
// SimSession builds one at its first run and passes it to every run.
// Its Stats are the one accumulator of the solver work: a run's share is
// the delta SimSession takes into the RunReport, and the counters let
// tests assert which path ran: on a healthy run every solve() lands in
// exactly one of full_factors / fast_refactors / refactors_skipped /
// dense_solves / pattern_rebuilds.
#ifndef NANOSIM_MNA_SYSTEM_CACHE_HPP
#define NANOSIM_MNA_SYSTEM_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "devices/tabulated.hpp"
#include "linalg/dense.hpp"
#include "linalg/ordering.hpp"
#include "linalg/sparse_lu.hpp"
#include "mna/mna.hpp"
#include "mna/stamp_program.hpp"
#include "obs/report.hpp"

namespace nanosim::mna {

/// SystemCache's construction-time knobs (the name SystemCache::Options
/// is the one callers use; the struct lives at namespace scope so that
/// the constructor can default it).
struct SystemCacheOptions {
    /// Node ordering for the sparse path.  `automatic` compares
    /// predicted fill of natural vs RCM vs minimum-degree at freeze
    /// time; the explicit values force one (tests / benches).
    linalg::Ordering ordering = linalg::Ordering::automatic;
    /// Compile a StampProgram at pattern-freeze time (the default):
    /// per-step restamps and chord evaluations run through flat
    /// slot/SoA plans with zero virtual dispatch.  `false` keeps the
    /// legacy virtual-stamping path — the reference the program is
    /// tested bit-identical against.
    bool use_stamp_program = true;
    /// Reuse the last exact sparse LU across steps with residual-
    /// checked refinement where that pays (the default).  `false`
    /// refactors exactly on every sparse step — the reference the
    /// reuse path is tested against.
    bool reuse_factor = true;
};

/// Pattern-frozen per-step system: restamp values in place, solve through
/// a cached (dense or pattern-reusing sparse) factorisation.  On the
/// sparse path the cache additionally selects a fill-reducing node
/// ordering at pattern-freeze time (linalg/ordering.hpp): RCM and
/// minimum-degree candidates are scored by predicted factor fill against
/// natural order, and the winner is baked into the SparseLu's symbolic
/// analysis — 2-D mesh / power-grid topologies keep their refactor cost
/// near-linear instead of re-paying O(n^1.5) fill every accepted step.
class SystemCache {
public:
    using Options = SystemCacheOptions;

    /// Stale-factor refinement constants (fixed, not per workload): a
    /// solve is accepted once its componentwise backward error
    /// max_i |b - A x|_i / (|A| |x| + |b|)_i is at most k_refine_tol;
    /// each sweep must shrink ||b - A x||_inf by k_refine_contraction; at
    /// most k_refine_sweeps sweeps run before the exact refactor takes
    /// over.  Reuse is armed only when a refactor costs at least
    /// k_refine_sweeps sweeps of 2 nnz(L+U) + 2 nnz(A) flops.
    ///
    /// k_refine_tol is sized to the step's own data.  An x with
    /// componentwise backward error w solves exactly a system whose every
    /// stamped entry and source is perturbed by at most a relative w
    /// (Oettli-Prager; Arioli, Demmel & Duff 1989), and the stamped
    /// chords already carry the tables' 1e-6 relative error, on top of
    /// the eq. (5) predictor.  1e-12 is six decades below that.
    static constexpr double k_refine_tol = 1e-12;
    static constexpr double k_refine_contraction = 0.25;
    static constexpr std::size_t k_refine_sweeps = 4;

    /// Dry-runs every stamp source against `assembler`, freezes the
    /// union pattern and hashes it into signature().
    explicit SystemCache(const MnaAssembler& assembler,
                         Options options = {});
    ~SystemCache();

    SystemCache(const SystemCache&) = delete;
    SystemCache& operator=(const SystemCache&) = delete;

    /// Start a step:  A := G_static + reactive_scale * C.  Dynamic rhs
    /// contributions written through the returned Stamper accumulate into
    /// `rhs` (which the caller pre-fills with sources etc.).  The
    /// reference stays valid until the next begin().
    Stamper& begin(double reactive_scale, linalg::Vector& rhs);

    /// Direct matrix-coordinate add (row/col already in MNA numbering) —
    /// for per-node pseudo-elements such as the SWEC DC continuation's
    /// artificial capacitance.  Only valid between begin() and solve().
    void add_entry(std::size_t row, std::size_t col, double value);

    /// Solve for the current values: dense LU at or below the dense
    /// threshold; otherwise the last exact sparse LU plus refinement when
    /// reuse is armed, falling back to a factor (first step, or after a
    /// pattern extension) or pattern-reusing refactor.  `rhs` is the
    /// vector passed to begin() after all dynamic contributions.
    [[nodiscard]] linalg::Vector solve(const linalg::Vector& rhs);

    /// Start an engine run: the next sparse solve factors exactly, so the
    /// run's results never depend on the factor an earlier run left.
    void start_run() noexcept { reuse_armed_ = false; }

    /// Zero Stats::max_backward_error — scopes the peak to one analysis.
    void reset_backward_error_peak() noexcept {
        stats_.max_backward_error = 0.0;
    }

    // ---- engine-facing fast paths ------------------------------------
    // Each method routes through the compiled StampProgram when one
    // exists and falls back to the legacy virtual stamping path
    // otherwise, so engines contain a single code path.  The restamp_*
    // calls are only valid between begin() and solve().

    /// True when per-step work runs through a compiled StampProgram.
    [[nodiscard]] bool has_program() const noexcept {
        return program_ != nullptr;
    }

    /// Chord conductances (and rates when `with_rate`) of every
    /// nonlinear device at state x, parallel to nonlinear_devices().
    /// Usable outside begin()/solve().  Time lands in Stats::eval_s.
    void eval_chords(std::span<const double> x,
                     std::span<const double> dvdt, bool with_rate,
                     std::span<double> geq, std::span<double> geq_rate);

    /// Source vector b(t) — the compiled rhs plan (sources only, no
    /// scratch builder, no virtual sweep over rhs-inert devices) when
    /// available, MnaAssembler::rhs otherwise.  Usable outside
    /// begin()/solve().
    [[nodiscard]] linalg::Vector
    rhs(double t,
        const MnaAssembler::NoiseRealization* noise = nullptr);

    /// rhs += (C x) / h: the backward-Euler history term of a step of
    /// size h from state x, through the assembler's CSR C.  Usable
    /// outside begin()/solve(); time lands in Stats::stamp_s.
    void add_history(const linalg::Vector& x, double h,
                     linalg::Vector& rhs);

    /// Restamp all time-varying linear devices at time t.
    void restamp_time_varying(double t);

    /// Restamp SWEC chord conductances (parallel to nonlinear_devices()).
    void restamp_swec(std::span<const double> geq);

    /// A x for the current values (after begin() and the restamps) — the
    /// explicit Euler-Maruyama drift G(t) x when begin() had scale 0.
    [[nodiscard]] linalg::Vector multiply(std::span<const double> x) const;

    /// Restamp the Newton-Raphson linearisation at trial point x
    /// (tangents into the matrix, Norton currents into the rhs bound by
    /// begin()).  The device models' evaluation bills to eval_s and the
    /// scatter to stamp_s (the legacy virtual path bills both to
    /// stamp_s).
    void restamp_nr(std::span<const double> x);

    /// True when restamp_nortons covers every nonlinear device (PWL
    /// fast path; requires a program).
    [[nodiscard]] bool norton_fast() const noexcept {
        return program_ != nullptr && program_->norton_fast();
    }

    /// Restamp per-device Norton pairs (PWL): conductance g[k] across
    /// device k's principal nodes, offset current ioff[k] into its rhs
    /// rows.  Only valid when norton_fast().
    void restamp_nortons(std::span<const double> g,
                         std::span<const double> ioff);

    /// values[(row,row)] += value via the precomputed node-diagonal slot
    /// (the SWEC DC continuation's pseudo-capacitance; no slot search).
    void add_node_diag(std::size_t node_row, double value);

    /// ADD the node-diagonal conductance sums of time-varying stamps at
    /// time t plus SWEC chords `geq` into gdiag (size num_nodes) — the
    /// eq. (12) step-bound input.
    void swec_gdiag(double t, std::span<const double> geq,
                    std::span<double> gdiag);

    /// Device half of the eq. (12) step bound at state x.  With a
    /// program, the chord-rate device classes reuse the step's already-
    /// evaluated geq/geq_rate (no model re-evaluation); the legacy
    /// fallback is the historical virtual Device::step_limit sweep.
    [[nodiscard]] double device_step_bound(std::span<const double> x,
                                           std::span<const double> dvdt,
                                           std::span<const double> geq,
                                           std::span<const double> geq_rate,
                                           double eps);

    /// Enable/disable tabulated chord models for eval_chords (SWEC
    /// transients enable them, the SWEC DC march disables them).  Tables
    /// are built once per (device class, params, grid) through the
    /// cache's TableStore, fill lazily as lookups visit their segments,
    /// and are shared across every later analysis on this cache
    /// (Monte-Carlo trials, sweep points).  A table mutates as it is
    /// read, so it is confined to this cache: one thread at a time, like
    /// the rest of the cache.  Ignored on caches without a program (the
    /// legacy baseline).
    void configure_tables(const TableConfig& cfg);

    /// Devices currently evaluating through a table.
    [[nodiscard]] std::size_t tabulated_devices() const noexcept {
        return program_ != nullptr ? program_->tabulated_devices() : 0;
    }

    /// Cumulative since construction: the obs::SolverWork counters and
    /// time split (one run's share is stats().since(before)), plus the
    /// solve() count and the ordering decision.
    struct Stats : obs::SolverWork {
        std::size_t steps = 0; ///< solve() calls
        // ---- ordering decision (sparse path; natural/0 on dense) ----
        linalg::Ordering ordering = linalg::Ordering::natural; ///< chosen
        std::size_t pattern_nnz = 0;           ///< frozen pattern nonzeros
        std::size_t predicted_fill_natural = 0;///< symbolic L+U, natural
        std::size_t predicted_fill_chosen = 0; ///< symbolic L+U, chosen
        std::size_t factor_nnz = 0;            ///< actual L+U of the LU
    };
    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

    /// Accumulators of the engine-side layers (Stats::step_s and
    /// Stats::record_s, plus Stats::solve_s for a solve the engine runs
    /// on a factor of its own and Stats::eval_s for device models the
    /// engine evaluates itself), billed with obs::ScopedTimer so that
    /// every layer of a run lands in one Stats, on every worker's cache.
    [[nodiscard]] double& eval_clock() noexcept { return stats_.eval_s; }
    [[nodiscard]] double& step_clock() noexcept { return stats_.step_s; }
    [[nodiscard]] double& record_clock() noexcept { return stats_.record_s; }
    [[nodiscard]] double& solve_clock() noexcept { return stats_.solve_s; }

    [[nodiscard]] std::size_t unknowns() const noexcept { return n_; }
    [[nodiscard]] std::size_t pattern_nnz() const noexcept {
        return row_idx_.size();
    }
    /// 64-bit FNV-1a of the unknown count and the union stamp pattern
    /// this cache was built (or last rebound) against; an overflow
    /// re-freeze leaves it unchanged.  Equal signatures mean per-step
    /// systems of identical sparsity structure.
    [[nodiscard]] std::uint64_t signature() const noexcept {
        return signature_;
    }

    /// Re-point the cache at a (re-)assembled circuit.  When the new
    /// assembly's union stamp pattern fits inside the frozen pattern the
    /// symbolic LU analysis and ordering survive — only the static/
    /// reactive baselines are refreshed (a parameter tweak + reassemble
    /// costs a numeric refactor, not a new symbolic analysis).  A
    /// pattern that no longer fits triggers a full re-freeze.  Throws
    /// AnalysisError when the unknown count changed (the cache cannot be
    /// salvaged; build a fresh one).
    void rebind(const MnaAssembler& assembler);
    /// True when this system is small enough for the dense auto-select.
    [[nodiscard]] bool dense_path() const noexcept {
        return n_ <= k_dense_threshold;
    }

private:
    class ScatterStamper;

    /// Freeze the union pattern from a coordinate list in CSC order
    /// (by column, then row) without duplicates, refresh the
    /// static/reactive baseline slot arrays, and (sparse path) select the
    /// fill-reducing ordering for the new pattern.
    void freeze_pattern(
        const std::vector<std::pair<std::size_t, std::size_t>>& coords);

    /// Refill static_values_/c_values_ from the bound assembler (pattern
    /// unchanged) — the cheap half of a rebind.
    void refresh_baselines();

    /// (Re)compile the StampProgram against the current assembler and
    /// frozen pattern (no-op on the legacy baseline).  Any bound tables
    /// are dropped; the next configure_tables() re-attaches them from
    /// the store.
    void rebuild_program();

    /// Score natural/RCM/min-degree on the frozen pattern and stash the
    /// winner in ordering_ / stats_ (no-op on the dense path).
    void choose_ordering();

    /// Slot of (row, col) in the CSC pattern, or npos when absent.
    [[nodiscard]] std::size_t slot_of(std::size_t row,
                                      std::size_t col) const noexcept;

    /// Solve with the last exact LU and refine against the current
    /// values.  False (x unspecified) when the exact refactor must take
    /// over: a sweep failed to contract, the budget ran out, the residual
    /// is not finite, or A has an empty row or column.
    [[nodiscard]] bool try_refine(const linalg::Vector& rhs,
                                  linalg::Vector& x);

    static constexpr std::size_t k_npos = static_cast<std::size_t>(-1);

    const MnaAssembler* assembler_;
    Options options_;
    std::size_t n_ = 0;
    std::uint64_t signature_ = 0;

    // Frozen CSC pattern and the per-step value array (pattern order).
    std::vector<std::size_t> col_ptr_;
    std::vector<std::size_t> row_idx_;
    std::vector<double> values_;
    // Baselines in pattern order: A = static_values_ + scale * c_values_.
    std::vector<double> static_values_;
    std::vector<double> c_values_;

    // Stamps that missed the frozen pattern this step (rare; triggers the
    // legacy solve + a pattern re-freeze).
    std::vector<linalg::Triplet> overflow_;

    /// Node-diagonal slots (always structural), for add_node_diag.
    std::vector<std::size_t> diag_slots_;

    /// Compiled per-step execution plan (null on the legacy baseline).
    std::unique_ptr<StampProgram> program_;
    /// This cache's chord tables + the config the program's table slots
    /// were last bound under.
    TableStore table_store_;
    TableConfig bound_table_cfg_;

    /// rhs vector bound by the last begin() (restamp targets).
    linalg::Vector* bound_rhs_ = nullptr;

    std::unique_ptr<ScatterStamper> stamper_;
    linalg::Permutation ordering_; // empty = natural
    std::unique_ptr<linalg::SparseLu> lu_;
    /// The next sparse solve may reuse lu_ (set after an exact factor
    /// whose cost passes the reuse gate; cleared by start_run/rebind).
    bool reuse_armed_ = false;
    // Refinement scratch: residual, |A| |x| and |A| row sums.
    linalg::Vector residual_;
    linalg::Vector abs_ax_;
    std::vector<double> row_abs_;
    linalg::DenseMatrix dense_; // dense-path work matrix
    Stats stats_;
};

} // namespace nanosim::mna

#endif // NANOSIM_MNA_SYSTEM_CACHE_HPP
