// Nano-Sim — result types shared by the analysis engines.
#ifndef NANOSIM_ENGINES_RESULTS_HPP
#define NANOSIM_ENGINES_RESULTS_HPP

#include <string>
#include <vector>

#include "analysis/waveform.hpp"
#include "linalg/dense.hpp"
#include "netlist/circuit.hpp"
#include "obs/report.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace nanosim::engines {

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
    /// = NodeId - 1, every one on the same time axis object (the engines
    /// record each accepted time once).  A run given a node list
    /// (run_tran_swec's `record`) leaves the other entries empty.
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

    /// Waveform of a node by name.  Throws NetlistError when the name is
    /// unknown, names ground, or names a node this run did not record.
    [[nodiscard]] const analysis::Waveform&
    node(const Circuit& circuit, const std::string& name) const {
        const NodeId id = circuit.find_node(name);
        if (id == k_ground) {
            throw NetlistError("TranResult::node: '" + name +
                               "' is ground, which has no waveform");
        }
        const auto index = static_cast<std::size_t>(id - 1);
        if (index >= node_waves.size() || node_waves[index].empty()) {
            throw NetlistError("TranResult::node: node '" + name +
                               "' was not recorded by this run");
        }
        return node_waves[index];
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
        Field{"flops", &S::flops}};
}

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_RESULTS_HPP
