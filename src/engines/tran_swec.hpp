// Nano-Sim — SWEC transient engine (the paper's primary contribution).
//
// Integrates  G(t) V(t) + C dV/dt = b u(t)  (eq. 1) where every nonlinear
// device is represented by its step-wise equivalent (chord) conductance:
//
//   1. at time t_n, evaluate each device's chord conductance
//      G_eq(n) = I(V)/V (eq. 6) and its rate dG_eq/dt = dG_eq/dV * dV/dt
//      (eqs. 7-9, with dV/dt the backward difference of node voltages);
//   2. predict the conductance at the next point with the first-order
//      Taylor step  G_eq(n+1) = G_eq(n) + h/2 * G'_eq(n)   (eq. 5);
//   3. pick the step h from the adaptive bound of eq. (12);
//   4. solve the *linear* backward-Euler system
//         (G_swec + C/h) x_{n+1} = C/h x_n + b(t_{n+1}).
//
// Steps 1 and 3 are the engine's step proposal, 2 and 4 its trial, and
// the eq. (9) slope and eq. (10) error its accept; the accepted-step loop
// shared with NR and PWL (engines/step_control.hpp) owns time, the
// breakpoint and t_stop landings, recording, the observer and
// cancellation.
//
// No Newton-Raphson anywhere: each accepted time point costs exactly one
// LU factor+solve.  The chord conductance is non-negative even across an
// NDR region, so the engine cannot exhibit the oscillation / false
// convergence of differential-conductance simulators (paper Sec. 3.2).
#ifndef NANOSIM_ENGINES_TRAN_SWEC_HPP
#define NANOSIM_ENGINES_TRAN_SWEC_HPP

#include <span>

#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"

namespace nanosim::engines {

/// SWEC transient options.
struct SwecTranOptions {
    double t_stop = 0.0;       ///< end time [s] (required, > 0)
    double dt_init = 0.0;      ///< first step; 0 = t_stop / 1000
    double dt_min = 0.0;       ///< floor; 0 = t_stop * 1e-9
    double dt_max = 0.0;       ///< ceiling; 0 = t_stop / 50
    double eps = 0.05;         ///< target local error ratio (eq. 10)
    bool adaptive = true;      ///< eq. (12) control (false = fixed dt_init)
    bool use_predictor = true; ///< eq. (5) Taylor predictor (ablation knob)
    double growth_limit = 2.0; ///< max step growth per step
    double geq_floor = 1e-12;  ///< conductance floor [S] (matrix safety)
    bool start_from_dc = true; ///< initial condition = SWEC DC op
    /// Tabulated chord models (devices/tabulated.hpp), on by default:
    /// chord / dG/dV lookups replace the closed-form transcendentals
    /// inside the table range, exact closed form outside it and in any
    /// segment that fails the 1e-6 accuracy gate.  Tables are created
    /// once per solver cache, fill lazily per segment, and are shared by
    /// every later transient on that cache (Monte-Carlo trials, sweep
    /// points).  `tables.enabled = false` is the in-process closed-form
    /// reference for tests and benches; it is not on the wire.
    TableConfig tables;
    /// Explicit initial condition (overrides start_from_dc when set).
    linalg::Vector initial;
    /// Noise realizations for Monte-Carlo runs (see MnaAssembler::rhs).
    mna::MnaAssembler::NoiseRealization noise;
};

/// `noise` is not listed: it is Monte-Carlo engine state, never wire
/// state.  Neither is `tables`: every wire run tabulates.
constexpr auto field_table(std::type_identity<SwecTranOptions>) {
    return std::tuple{
        Field{"t_stop", &SwecTranOptions::t_stop},
        Field{"dt_init", &SwecTranOptions::dt_init},
        Field{"dt_min", &SwecTranOptions::dt_min},
        Field{"dt_max", &SwecTranOptions::dt_max},
        Field{"eps", &SwecTranOptions::eps},
        Field{"adaptive", &SwecTranOptions::adaptive},
        Field{"use_predictor", &SwecTranOptions::use_predictor},
        Field{"growth_limit", &SwecTranOptions::growth_limit},
        Field{"geq_floor", &SwecTranOptions::geq_floor},
        Field{"start_from_dc", &SwecTranOptions::start_from_dc},
        Field{"initial", &SwecTranOptions::initial}};
}

/// Run the SWEC transient.  Throws AnalysisError on bad options.
/// `observer` (optional) receives per-step progress and may cancel
/// cooperatively — a cancelled run returns the partial waveforms with
/// `aborted` set.  `cache` (optional) reuses a caller-owned SystemCache
/// (and its symbolic LU analysis) instead of freezing a fresh one —
/// SimSession passes its persistent cache; nullptr builds one for this
/// run.  Either way the start_from_dc operating point is solved on it.
/// `record` lists the nodes whose waveforms the result carries (empty =
/// every node; a node listed twice is recorded once): every other entry
/// of TranResult::node_waves stays empty, so a caller that reads a few
/// nodes (a Monte-Carlo trial) does not record the rest.
[[nodiscard]] TranResult run_tran_swec(const mna::MnaAssembler& assembler,
                                       const SwecTranOptions& options,
                                       const AnalysisObserver* observer = nullptr,
                                       mna::SystemCache* cache = nullptr,
                                       std::span<const NodeId> record = {});

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_TRAN_SWEC_HPP
