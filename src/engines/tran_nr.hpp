// Nano-Sim — SPICE-like Newton-Raphson transient engine (baseline).
//
// Classic companion-model transient analysis: at every time point the
// nonlinear backward-Euler system (G(x) + C/h) x = C/h x_n + b(t) is
// solved by Newton-Raphson with *differential* conductances, exactly the
// structure of SPICE3's transient loop.  Local truncation error is
// estimated against a forward-Euler predictor; a step that misses it or
// fails to converge is retried at half the size by the shared
// accepted-step loop (engines/step_control.hpp).
//
// On NDR devices this engine inherits SPICE3's failure modes: NR
// oscillates between the two stable branches, the step collapses to
// dt_min, and — matching the behaviour shown in paper Fig. 8(c) — the
// engine can be configured to accept the non-converged iterate and march
// on (`accept_nonconverged`), producing the wrong-but-finished waveform
// SPICE3 produces, or to throw ConvergenceError.
#ifndef NANOSIM_ENGINES_TRAN_NR_HPP
#define NANOSIM_ENGINES_TRAN_NR_HPP

#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"

namespace nanosim::engines {

/// NR transient options.
struct NrTranOptions {
    double t_stop = 0.0;       ///< end time [s] (required)
    double dt_init = 0.0;      ///< 0 = t_stop / 1000
    double dt_min = 0.0;       ///< 0 = t_stop * 1e-9
    double dt_max = 0.0;       ///< 0 = t_stop / 50
    int max_nr_iterations = 50;
    double abstol = 1e-9;
    double reltol = 1e-6;
    double lte_tol = 1e-3;     ///< predictor/corrector gap per step [V]
    int max_halvings = 12;     ///< step reductions before giving up
    bool accept_nonconverged = true; ///< SPICE3-like "march on" behaviour
    bool start_from_dc = true; ///< initial condition = NR DC op (gmin aided)
    linalg::Vector initial;    ///< explicit IC (overrides start_from_dc)
    mna::MnaAssembler::NoiseRealization noise;
};

/// Run the Newton-Raphson transient.  `observer` (optional) receives
/// per-step progress and may cancel cooperatively (partial waveforms,
/// `aborted` set); `cache` (optional) shares a caller-owned SystemCache
/// across analyses.  Solver stats in the result are deltas over this run.
[[nodiscard]] TranResult run_tran_nr(const mna::MnaAssembler& assembler,
                                     const NrTranOptions& options,
                                     const AnalysisObserver* observer = nullptr,
                                     mna::SystemCache* cache = nullptr);

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_TRAN_NR_HPP
