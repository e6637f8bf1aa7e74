// Nano-Sim — Euler-Maruyama stochastic transient engine (paper Sec. 4).
//
// Integrates the circuit SDE (paper eqs. 13/17)
//
//     C dX = (b(t) - G(t) X) dt + B dW(t)
//
// with the Euler-Maruyama update (eq. 18, Ito convention):
//
//     X_{j+1} = X_j + dt C^{-1} (b - G X_j) + C^{-1} B  dW_j ,
//
// where B has one column per white-noise current source (entries follow
// the ISource injection convention) and dW_j ~ N(0, dt) are Wiener
// increments.  G(t) is refreshed each step: time-varying linear devices
// by their known G(t), nonlinear devices by their SWEC chord conductance
// at the current state — this is how the paper's two contributions
// compose ("Since G is time variant, Equation (13) also includes cases
// with the nonlinear nanodevices").
//
// Schemes:
//  * explicit  — the paper's eq. (18).  Requires an invertible C (every
//    node must carry capacitance and the circuit must have no branch
//    unknowns); C is factored once.
//  * implicit  — stochastic backward Euler,
//        (C/dt + G) X_{j+1} = (C/dt) X_j + b + B dW_j / dt,
//    unconditionally stable and tolerant of singular C.  Offered as the
//    production default and as the ablation contrast for the stability
//    study of the explicit scheme.
#ifndef NANOSIM_ENGINES_EM_ENGINE_HPP
#define NANOSIM_ENGINES_EM_ENGINE_HPP

#include <span>

#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "mna/mna.hpp"
#include "stochastic/rng.hpp"
#include "stochastic/stats.hpp"
#include "stochastic/wiener.hpp"

namespace nanosim::engines {

/// Integration scheme for the SDE.
enum class EmScheme {
    explicit_em, ///< paper eq. (18)
    implicit_be, ///< stochastic backward Euler
};

/// EM engine options.
struct EmOptions {
    double t_stop = 0.0; ///< horizon [s] (required)
    double dt = 0.0;     ///< uniform step [s] (required)
    EmScheme scheme = EmScheme::explicit_em;
    bool swec_update = true; ///< refresh chord conductances per step
    bool start_from_dc = false;
    linalg::Vector initial; ///< explicit IC (size = unknowns)
};

/// One sample path result: per-node waveforms on the uniform grid.
struct EmPathResult {
    std::vector<analysis::Waveform> node_waves;
    FlopCounter flops;
};

/// Ensemble result for one observed node.
struct EmEnsembleResult {
    std::vector<double> grid;          ///< time samples (L+1 points)
    analysis::Waveform mean;           ///< E[V_node(t)]
    analysis::Waveform stddev;         ///< sqrt(Var[V_node(t)])
    stochastic::EnsembleStats stats;   ///< full per-point + peak stats
    /// True when an AnalysisObserver cancelled the ensemble; statistics
    /// cover the paths completed before the abort.
    bool aborted = false;
    FlopCounter flops;
};

constexpr auto field_table(std::type_identity<EmEnsembleResult>) {
    return std::tuple{
        Field{"grid", &EmEnsembleResult::grid},
        Field{"mean", &EmEnsembleResult::mean},
        Field{"stddev", &EmEnsembleResult::stddev},
        Field{"stats", &EmEnsembleResult::stats},
        Field{"aborted", &EmEnsembleResult::aborted},
        Field{"flops", &EmEnsembleResult::flops}};
}

/// Euler-Maruyama engine bound to one assembled circuit.
class EmEngine {
public:
    /// Validates options and (for the explicit scheme) that C is usable.
    EmEngine(const mna::MnaAssembler& assembler, const EmOptions& options);

    /// Number of grid steps L = t_stop / dt.
    [[nodiscard]] std::size_t steps() const noexcept { return steps_; }

    /// The validated options this engine was built with.
    [[nodiscard]] const EmOptions& options() const noexcept {
        return options_;
    }

    /// Run one path, sampling Wiener increments from `rng`.
    [[nodiscard]] EmPathResult run_path(stochastic::Rng& rng) const;

    /// Run one path against SUPPLIED Wiener paths (one per noise source,
    /// each with exactly steps() increments) — the hook for strong
    /// (path-wise) comparison against a reference solution.
    [[nodiscard]] EmPathResult
    run_path(std::span<const stochastic::WienerPath> paths) const;

    /// Run an ensemble and aggregate the voltage of `node`.  `observer`
    /// gets per-path trial callbacks and may cancel between paths.
    [[nodiscard]] EmEnsembleResult
    run_ensemble(int num_paths, stochastic::Rng& rng, NodeId node,
                 const AnalysisObserver* observer = nullptr) const;

private:
    [[nodiscard]] linalg::Vector initial_state() const;
    void check_explicit_feasible() const;

    const mna::MnaAssembler* assembler_;
    EmOptions options_;
    std::size_t steps_ = 0;
};

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_EM_ENGINE_HPP
