// Nano-Sim — result types shared by the analysis engines.
#ifndef NANOSIM_ENGINES_RESULTS_HPP
#define NANOSIM_ENGINES_RESULTS_HPP

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/waveform.hpp"
#include "linalg/dense.hpp"
#include "linalg/ordering.hpp"
#include "netlist/circuit.hpp"
#include "obs/report.hpp"
#include "util/flops.hpp"

namespace nanosim::engines {

/// Fill-reducing-ordering decision of a cached solver (mna::SystemCache),
/// reported by every engine that runs through one.  All zero / natural on
/// the dense path.
struct SolverOrderingStats {
    linalg::Ordering ordering = linalg::Ordering::natural;
    std::size_t pattern_nnz = 0;            ///< frozen stamp pattern
    std::size_t predicted_fill_natural = 0; ///< symbolic L+U, natural order
    std::size_t predicted_fill_chosen = 0;  ///< symbolic L+U, chosen order
    std::size_t factor_nnz = 0;             ///< actual L+U of the sparse LU

    [[nodiscard]] const char* name() const noexcept {
        return linalg::ordering_name(ordering);
    }
};

constexpr auto field_table(std::type_identity<SolverOrderingStats>) {
    using S = SolverOrderingStats;
    return std::tuple{
        Field{"ordering", &S::ordering},
        Field{"pattern_nnz", &S::pattern_nnz},
        Field{"predicted_fill_natural", &S::predicted_fill_natural},
        Field{"predicted_fill_chosen", &S::predicted_fill_chosen},
        Field{"factor_nnz", &S::factor_nnz}};
}

/// Copy the ordering decision out of a cache's Stats (templated so this
/// header stays independent of mna/system_cache.hpp).
template <typename CacheStats>
[[nodiscard]] SolverOrderingStats make_ordering_stats(const CacheStats& s) {
    return SolverOrderingStats{s.ordering, s.pattern_nnz,
                               s.predicted_fill_natural,
                               s.predicted_fill_chosen, s.factor_nnz};
}

/// Solver-cache work spent inside one analysis (deltas, not lifetime
/// totals of a cache).  full_factors counts symbolic + pivoting
/// factorisations — the quantity a persistent SimSession cache drives to
/// zero for repeat analyses on an unchanged circuit.  On a healthy run
/// every cached solve lands in exactly one of full_factors /
/// fast_refactors / refactors_skipped / dense_solves / pattern_rebuilds.
struct SolverWork {
    std::size_t full_factors = 0;
    std::size_t fast_refactors = 0;
    /// Sparse solves answered by the last exact LU plus refinement.
    std::size_t refactors_skipped = 0;
    std::size_t dense_solves = 0;
    /// refactor() pivot-degradation fallbacks (subset of full_factors).
    std::size_t pivot_fallbacks = 0;
    /// Stamp-pattern misses that forced a re-freeze (exotic devices only).
    std::size_t pattern_rebuilds = 0;
    /// Residual-correction sweeps on the stale factor (incl. attempts
    /// that fell back to an exact refactor).
    std::size_t refine_sweeps = 0;
    /// Largest normwise backward error of an accepted refined solve.
    double max_backward_error = 0.0;
    // ---- wall-time attribution of the per-step work (seconds) ----
    // analyze_s: symbolic analysis — pattern freeze, ordering selection,
    // stamp-program compile (previously unattributed, so the printed
    // split under-counted the first step); eval_s: device-model
    // evaluation (chord conductances / rates); stamp_s: in-place
    // restamps + step-bound diagonals; factor_s: LU factorisations/
    // refactorisations; solve_s: triangular solves and refinement.
    double analyze_s = 0.0;
    double eval_s = 0.0;
    double stamp_s = 0.0;
    double factor_s = 0.0;
    double solve_s = 0.0;
    /// Chord tables built during this run (0 = reused or disabled).
    std::size_t tables_built = 0;

    /// Sum another run's work into this one (peak: the larger).
    SolverWork& operator+=(const SolverWork& o) noexcept {
        full_factors += o.full_factors;
        fast_refactors += o.fast_refactors;
        refactors_skipped += o.refactors_skipped;
        dense_solves += o.dense_solves;
        pivot_fallbacks += o.pivot_fallbacks;
        pattern_rebuilds += o.pattern_rebuilds;
        refine_sweeps += o.refine_sweeps;
        max_backward_error = std::max(max_backward_error, o.max_backward_error);
        analyze_s += o.analyze_s;
        eval_s += o.eval_s;
        stamp_s += o.stamp_s;
        factor_s += o.factor_s;
        solve_s += o.solve_s;
        tables_built += o.tables_built;
        return *this;
    }
};

constexpr auto field_table(std::type_identity<SolverWork>) {
    return std::tuple{
        Field{"full_factors", &SolverWork::full_factors},
        Field{"fast_refactors", &SolverWork::fast_refactors},
        Field{"refactors_skipped", &SolverWork::refactors_skipped},
        Field{"dense_solves", &SolverWork::dense_solves},
        Field{"pivot_fallbacks", &SolverWork::pivot_fallbacks},
        Field{"pattern_rebuilds", &SolverWork::pattern_rebuilds},
        Field{"refine_sweeps", &SolverWork::refine_sweeps},
        Field{"max_backward_error", &SolverWork::max_backward_error},
        Field{"analyze_s", &SolverWork::analyze_s},
        Field{"eval_s", &SolverWork::eval_s},
        Field{"stamp_s", &SolverWork::stamp_s},
        Field{"factor_s", &SolverWork::factor_s},
        Field{"solve_s", &SolverWork::solve_s},
        Field{"tables_built", &SolverWork::tables_built}};
}

/// A cache's work between two Stats snapshots (templated, like
/// make_ordering_stats).  The backward-error peak is `after`'s: callers
/// scope it with SystemCache::reset_backward_error_peak().
template <typename CacheStats>
[[nodiscard]] SolverWork solver_work(const CacheStats& before,
                                     const CacheStats& after) {
    SolverWork w;
    w.full_factors = after.full_factors - before.full_factors;
    w.fast_refactors = after.fast_refactors - before.fast_refactors;
    w.refactors_skipped = after.refactors_skipped - before.refactors_skipped;
    w.dense_solves = after.dense_solves - before.dense_solves;
    w.pivot_fallbacks = after.pivot_fallbacks - before.pivot_fallbacks;
    w.pattern_rebuilds = after.pattern_rebuilds - before.pattern_rebuilds;
    w.refine_sweeps = after.refine_sweeps - before.refine_sweeps;
    w.max_backward_error = after.max_backward_error;
    w.analyze_s = after.analyze_s - before.analyze_s;
    w.eval_s = after.eval_s - before.eval_s;
    w.stamp_s = after.stamp_s - before.stamp_s;
    w.factor_s = after.factor_s - before.factor_s;
    w.solve_s = after.solve_s - before.solve_s;
    w.tables_built = after.tables_built - before.tables_built;
    return w;
}

/// Fill an engine result's solver_* fields with a cache's work over the
/// run (`before` = the stats() snapshot taken at its start).
template <typename Result, typename CacheStats>
void record_solver_work(Result& result, const CacheStats& before,
                        const CacheStats& after) {
    result.solver_full_factors = after.full_factors - before.full_factors;
    result.solver_fast_refactors =
        after.fast_refactors - before.fast_refactors;
    result.solver_refactors_skipped =
        after.refactors_skipped - before.refactors_skipped;
    result.solver_dense_solves = after.dense_solves - before.dense_solves;
    result.solver_refine_sweeps = after.refine_sweeps - before.refine_sweeps;
    result.solver_max_backward_error = after.max_backward_error;
    result.solver_ordering = make_ordering_stats(after);
}

/// Outcome of a single operating-point solve.
struct DcResult {
    linalg::Vector x;            ///< unknown vector [v_nodes; i_branches]
    bool converged = false;
    /// True when an AnalysisObserver cancelled the solve cooperatively;
    /// `x` is the last iterate reached before the abort.
    bool aborted = false;
    bool oscillation_detected = false; ///< NR cycling (the Fig. 2 failure)
    int iterations = 0;          ///< NR iterations (or SWEC pseudo-steps)
    double residual = 0.0;       ///< final update norm
    FlopCounter flops;           ///< work spent in this solve
    /// Cached-solver instrumentation (mna::SystemCache): full symbolic
    /// factorisations vs. pattern-reusing refactors vs. refined reuses of
    /// the last factor vs. dense-path solves spent inside this analysis
    /// (all zero on non-cached engines); see SolverWork for the rest.
    std::size_t solver_full_factors = 0;
    std::size_t solver_fast_refactors = 0;
    std::size_t solver_refactors_skipped = 0;
    std::size_t solver_dense_solves = 0;
    std::size_t solver_refine_sweeps = 0;
    double solver_max_backward_error = 0.0;
    /// Ordering chosen by the cached solver (natural on dense path).
    SolverOrderingStats solver_ordering;
    /// Iterate history (filled when options.record_trace is set);
    /// trace[k] is the unknown vector after iteration k.
    std::vector<linalg::Vector> trace;
};

constexpr auto field_table(std::type_identity<DcResult>) {
    using S = DcResult;
    return std::tuple{
        Field{"x", &S::x},
        Field{"converged", &S::converged},
        Field{"aborted", &S::aborted},
        Field{"oscillation_detected", &S::oscillation_detected},
        Field{"iterations", &S::iterations},
        Field{"residual", &S::residual},
        Field{"flops", &S::flops},
        Field{"solver_full_factors", &S::solver_full_factors},
        Field{"solver_fast_refactors", &S::solver_fast_refactors},
        Field{"solver_refactors_skipped", &S::solver_refactors_skipped},
        Field{"solver_dense_solves", &S::solver_dense_solves},
        Field{"solver_refine_sweeps", &S::solver_refine_sweeps},
        Field{"solver_max_backward_error", &S::solver_max_backward_error},
        Field{"solver_ordering", &S::solver_ordering},
        Field{"trace", &S::trace}};
}

/// Outcome of a DC sweep: one solution per sweep value.
struct SweepResult {
    std::vector<double> values;               ///< swept source values
    std::vector<linalg::Vector> solutions;    ///< per-point solutions
    std::vector<bool> converged;              ///< per-point status
    int total_iterations = 0;
    /// True when an AnalysisObserver cancelled the sweep; values/
    /// solutions/converged hold the points completed before the abort.
    bool aborted = false;
    FlopCounter flops;

    /// Number of sweep points that failed to converge.
    [[nodiscard]] int failures() const noexcept {
        int n = 0;
        for (const bool ok : converged) {
            n += ok ? 0 : 1;
        }
        return n;
    }
};

constexpr auto field_table(std::type_identity<SweepResult>) {
    return std::tuple{
        Field{"values", &SweepResult::values},
        Field{"solutions", &SweepResult::solutions},
        Field{"converged", &SweepResult::converged},
        Field{"total_iterations", &SweepResult::total_iterations},
        Field{"aborted", &SweepResult::aborted},
        Field{"flops", &SweepResult::flops}};
}

/// Outcome of a transient run.
struct TranResult {
    /// One waveform per non-ground node, label "v(<name>)", index
    /// = NodeId - 1.
    std::vector<analysis::Waveform> node_waves;
    /// True when an AnalysisObserver cancelled the run cooperatively; the
    /// waveforms hold every step accepted before the abort (t_end < t_stop).
    bool aborted = false;
    int steps_accepted = 0;
    int steps_rejected = 0;
    int nr_iterations = 0;       ///< total NR iterations (0 for SWEC)
    int nonconverged_steps = 0;  ///< steps accepted without convergence
    double min_dt_used = 0.0;
    double max_dt_used = 0.0;
    /// Max a-posteriori local error estimate seen (paper eq. 10).  The
    /// max spikes at regenerative switching events (the state
    /// accelerates beyond any history-based estimate for one step);
    /// avg_local_error tracks typical step-control quality.
    double max_local_error = 0.0;
    double avg_local_error = 0.0;
    /// Which bound limited each accepted step (sums to steps_accepted).
    /// Adaptive engines attribute the winning constraint per step; the
    /// fixed-step baselines count everything under `fixed`.
    obs::StepBoundCounts step_bounds;
    /// Rescue-ladder outcomes (dt-backoff -> gmin -> source stepping)
    /// taken when a step failed to solve; zero on a healthy run.
    obs::RescueCounts rescues;
    FlopCounter flops;
    /// Cached-solver instrumentation (mna::SystemCache): the accepted-step
    /// loop should show full_factors == 1 and fast_refactors +
    /// refactors_skipped ~ steps on the sparse path (dense_solves ~ steps
    /// below the dense threshold).
    std::size_t solver_full_factors = 0;
    std::size_t solver_fast_refactors = 0;
    std::size_t solver_refactors_skipped = 0;
    std::size_t solver_dense_solves = 0;
    std::size_t solver_refine_sweeps = 0;
    double solver_max_backward_error = 0.0;
    /// Ordering chosen by the cached solver (natural on dense path).
    SolverOrderingStats solver_ordering;

    /// Waveform of a node by name (throws NetlistError if unknown).
    [[nodiscard]] const analysis::Waveform&
    node(const Circuit& circuit, const std::string& name) const {
        const NodeId id = circuit.find_node(name);
        return node_waves.at(static_cast<std::size_t>(id - 1));
    }
};

constexpr auto field_table(std::type_identity<TranResult>) {
    using S = TranResult;
    return std::tuple{
        Field{"node_waves", &S::node_waves},
        Field{"aborted", &S::aborted},
        Field{"steps_accepted", &S::steps_accepted},
        Field{"steps_rejected", &S::steps_rejected},
        Field{"nr_iterations", &S::nr_iterations},
        Field{"nonconverged_steps", &S::nonconverged_steps},
        Field{"min_dt_used", &S::min_dt_used},
        Field{"max_dt_used", &S::max_dt_used},
        Field{"max_local_error", &S::max_local_error},
        Field{"avg_local_error", &S::avg_local_error},
        Field{"step_bounds", &S::step_bounds},
        Field{"rescues", &S::rescues},
        Field{"flops", &S::flops},
        Field{"solver_full_factors", &S::solver_full_factors},
        Field{"solver_fast_refactors", &S::solver_fast_refactors},
        Field{"solver_refactors_skipped", &S::solver_refactors_skipped},
        Field{"solver_dense_solves", &S::solver_dense_solves},
        Field{"solver_refine_sweeps", &S::solver_refine_sweeps},
        Field{"solver_max_backward_error", &S::solver_max_backward_error},
        Field{"solver_ordering", &S::solver_ordering}};
}

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_RESULTS_HPP
