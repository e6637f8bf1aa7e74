// Nano-Sim — result types shared by the analysis engines.
#ifndef NANOSIM_ENGINES_RESULTS_HPP
#define NANOSIM_ENGINES_RESULTS_HPP

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

/// Copy the ordering decision out of a cache's Stats (templated so this
/// header stays independent of mna/system_cache.hpp).
template <typename CacheStats>
[[nodiscard]] SolverOrderingStats make_ordering_stats(const CacheStats& s) {
    return SolverOrderingStats{s.ordering, s.pattern_nnz,
                               s.predicted_fill_natural,
                               s.predicted_fill_chosen, s.factor_nnz};
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
    /// factorisations vs. pattern-reusing refactors vs. dense-path solves
    /// spent inside this analysis (all zero on non-cached engines).
    std::size_t solver_full_factors = 0;
    std::size_t solver_fast_refactors = 0;
    std::size_t solver_dense_solves = 0;
    /// Ordering chosen by the cached solver (natural on dense path).
    SolverOrderingStats solver_ordering;
    /// Iterate history (filled when options.record_trace is set);
    /// trace[k] is the unknown vector after iteration k.
    std::vector<linalg::Vector> trace;
};

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
    /// loop should show full_factors == 1 and fast_refactors ~ steps on
    /// the sparse path (dense_solves ~ steps below the dense threshold).
    std::size_t solver_full_factors = 0;
    std::size_t solver_fast_refactors = 0;
    std::size_t solver_dense_solves = 0;
    /// Ordering chosen by the cached solver (natural on dense path).
    SolverOrderingStats solver_ordering;

    /// Waveform of a node by name (throws NetlistError if unknown).
    [[nodiscard]] const analysis::Waveform&
    node(const Circuit& circuit, const std::string& name) const {
        const NodeId id = circuit.find_node(name);
        return node_waves.at(static_cast<std::size_t>(id - 1));
    }
};

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_RESULTS_HPP
