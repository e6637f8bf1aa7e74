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
// with the nonlinear nanodevices").  Every step restamps G(t) in place
// through an mna::SystemCache, as every transient engine does (chords
// from the cache's chord tables).
//
// Schemes:
//  * explicit  — the paper's eq. (18).  Requires an invertible C (every
//    node must carry capacitance and the circuit must have no branch
//    unknowns); C is fixed, so the engine factors it once and every
//    path, on every worker, solves with that factor.
//  * implicit  — stochastic backward Euler,
//        (C/dt + G) X_{j+1} = (C/dt) X_j + b + B dW_j / dt,
//    unconditionally stable and tolerant of singular C; it solves
//    through the cache's refactor and stale-factor reuse.  Offered as
//    the production default and as the ablation contrast for the
//    stability study of the explicit scheme.
#ifndef NANOSIM_ENGINES_EM_ENGINE_HPP
#define NANOSIM_ENGINES_EM_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "linalg/sparse_lu.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"
#include "runtime/execution_policy.hpp"
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
    bool start_from_dc = false;
    linalg::Vector initial; ///< explicit IC (size = unknowns)
};

/// One sample path result: per-node waveforms on the uniform grid,
/// sharing one time axis.
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
    /// Solver work on the caches the driver built (as McResult::solver).
    obs::SolverWork solver;
};

/// `solver` is not on the wire: the run's RunReport carries its solver
/// work, this share included.
constexpr auto field_table(std::type_identity<EmEnsembleResult>) {
    return std::tuple{
        Field{"grid", &EmEnsembleResult::grid},
        Field{"mean", &EmEnsembleResult::mean},
        Field{"stddev", &EmEnsembleResult::stddev},
        Field{"stats", &EmEnsembleResult::stats},
        Field{"aborted", &EmEnsembleResult::aborted},
        Field{"flops", &EmEnsembleResult::flops}};
}

class EmEngine;

/// Run a `num_paths` ensemble of `engine` and aggregate the voltage of
/// `node`, on min(policy workers, num_paths) workers of the worker loop
/// run_monte_carlo uses (both live in monte_carlo.cpp): worker 0 on
/// `cache` (a SimSession's; one is built when null), every other worker
/// on a cache it builds.  The start_from_dc operating point is solved
/// once, on that cache, before the paths are dispatched.  Path p draws
/// its increments from SeedSequence(seed).stream(p) and paths reduce in
/// path order, so the result is bit-identical at any worker count.
/// `observer` gets per-path callbacks (from the workers when there are
/// several) and may cancel between paths.
[[nodiscard]] EmEnsembleResult
run_em_ensemble(const EmEngine& engine, int num_paths, std::uint64_t seed,
                NodeId node,
                const runtime::ExecutionPolicy& policy =
                    runtime::ExecutionPolicy{1},
                const AnalysisObserver* observer = nullptr,
                mna::SystemCache* cache = nullptr);

/// Euler-Maruyama engine bound to one assembled circuit.
class EmEngine {
public:
    /// Validates options and (for the explicit scheme) that C is usable;
    /// the explicit scheme factors C here.
    EmEngine(const mna::MnaAssembler& assembler, const EmOptions& options);

    /// Number of grid steps L = t_stop / dt.
    [[nodiscard]] std::size_t steps() const noexcept { return steps_; }

    /// Run one path, sampling Wiener increments from `rng`.  `cache`
    /// (optional) is a caller-owned SystemCache of this assembler;
    /// nullptr builds one for the path.
    [[nodiscard]] EmPathResult
    run_path(stochastic::Rng& rng, mna::SystemCache* cache = nullptr) const;

    /// Run one path against SUPPLIED Wiener paths (one per noise source,
    /// each with exactly steps() increments) — the hook for strong
    /// (path-wise) comparison against a reference solution.
    [[nodiscard]] EmPathResult
    run_path(std::span<const stochastic::WienerPath> paths,
             mna::SystemCache* cache = nullptr) const;

private:
    friend EmEnsembleResult run_em_ensemble(const EmEngine&, int,
                                            std::uint64_t, NodeId,
                                            const runtime::ExecutionPolicy&,
                                            const AnalysisObserver*,
                                            mna::SystemCache*);

    /// Receives the state at every grid time, t = 0 first.
    using Recorder = std::function<void(double, const linalg::Vector&)>;

    [[nodiscard]] linalg::Vector initial_state(mna::SystemCache& cache) const;
    [[nodiscard]] std::vector<stochastic::WienerPath>
    draw_paths(stochastic::Rng& rng) const;
    /// Integrate one path from x through `cache` (start_run() first).
    void integrate(std::span<const stochastic::WienerPath> paths,
                   linalg::Vector x, mna::SystemCache& cache,
                   const Recorder& record) const;
    void check_explicit_feasible() const;

    const mna::MnaAssembler* assembler_;
    EmOptions options_;
    std::size_t steps_ = 0;
    /// Explicit scheme: the factor of C, natural order — solve() then
    /// touches no scratch, so every worker shares it.
    std::optional<linalg::SparseLu> c_lu_;
};

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_EM_ENGINE_HPP
