// Nano-Sim — SWEC DC analysis (pseudo-transient).
//
// The paper's Sec. 5.1 DC experiments apply SWEC to operating-point
// computation.  SWEC has no nonlinear solve to run, so the operating
// point is reached by *pseudo-transient continuation*: an artificial
// capacitor is attached to every node, the circuit is marched in time
// with the SWEC transient update (one linear solve per step, chord
// conductances refreshed each step), and the march ends when the state
// stops moving.  Each step is non-iterative; the chord conductance is
// positive even across the NDR region, so the march cannot oscillate the
// way Newton-Raphson does (paper Fig. 7).  The march always evaluates
// the closed-form device models, never the chord tables the transient
// uses, so Table I's flop accounting stays exact.
#ifndef NANOSIM_ENGINES_DC_SWEC_HPP
#define NANOSIM_ENGINES_DC_SWEC_HPP

#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"

namespace nanosim::engines {

/// Pseudo-transient tuning.
struct SwecDcOptions {
    double c_pseudo = 1e-9;   ///< artificial node capacitance [F]
    double dt_init = 1e-6;    ///< initial pseudo-time step [s]
    double dt_max = 1e-2;
    double growth = 1.8;      ///< step growth per settled step
    double settle_tol = 1e-9; ///< |dx| threshold for steady state [V]
    int settle_checks = 3;    ///< consecutive settled steps required
    int max_steps = 2000;
    /// Optional warm start (previous sweep point).
    linalg::Vector initial_guess;
};

/// Operating point by SWEC pseudo-transient.  `source_scale` multiplies
/// independent sources.  iterations in the result counts pseudo-steps.
/// `cache` optionally reuses a caller-owned SystemCache (and its symbolic
/// LU analysis) across calls — dc_sweep_swec passes one for the whole
/// sweep, SimSession its persistent one; nullptr makes the solve
/// self-contained.  `observer` may cancel the march at pseudo-step
/// granularity (the result carries the last iterate, `aborted` set).
[[nodiscard]] DcResult solve_op_swec(const mna::MnaAssembler& assembler,
                                     const SwecDcOptions& options = {},
                                     double t = 0.0,
                                     double source_scale = 1.0,
                                     mna::SystemCache* cache = nullptr,
                                     const AnalysisObserver* observer = nullptr);

/// DC sweep with SWEC on the engines::dc_sweep driver, warm-starting
/// every point from the previous solution with a x10 larger first
/// pseudo-step (the configuration of paper Fig. 7 / Table I).  Builds
/// its own assembler + cache for the circuit.  The swept source gets its
/// original stimulus back on return, throw or cancel; `observer` gets
/// per-point trial callbacks and may cancel between points.
[[nodiscard]] SweepResult dc_sweep_swec(Circuit& circuit,
                                        const std::string& source_name,
                                        const linalg::Vector& values,
                                        const SwecDcOptions& options = {},
                                        const AnalysisObserver* observer = nullptr);

/// DC sweep against a caller-owned assembler (which must have been built
/// from `circuit`) and, optionally, a caller-owned SystemCache — the
/// SimSession path: the symbolic LU analysis is shared with every other
/// analysis on the same stamp pattern.
[[nodiscard]] SweepResult dc_sweep_swec(Circuit& circuit,
                                        const mna::MnaAssembler& assembler,
                                        const std::string& source_name,
                                        const linalg::Vector& values,
                                        const SwecDcOptions& options,
                                        const AnalysisObserver* observer,
                                        mna::SystemCache* cache);

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_DC_SWEC_HPP
