// Nano-Sim — Modified Limiting Algorithm (MLA) DC solver.
//
// Re-implementation of the approach of Bhattacharya & Mazumder,
// "Augmentation of SPICE for Simulation of Circuits Containing Resonant
// Tunneling Diodes" (IEEE TCAD 2001) — the baseline the paper's Table I
// compares against.  As in the paper itself ("Due to the unavailability
// of the MLA code, we present the comparison between SWEC and the
// implementation of the MLA done by us"), this is our own implementation
// of the published algorithm family:
//
//  * Newton-Raphson with *device voltage limiting*: the update is damped
//    so no RTD's terminal voltage moves more than `v_limit` per
//    iteration, preventing the iterate from vaulting across the NDR
//    region (the RTD analogue of SPICE junction limiting);
//  * *current/source stepping* with automatic step reduction when the
//    limited NR still fails: the source is ramped, each ramp point warm
//    started, the ramp step halved on failure.
#ifndef NANOSIM_ENGINES_DC_MLA_HPP
#define NANOSIM_ENGINES_DC_MLA_HPP

#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "mna/mna.hpp"

namespace nanosim::engines {

/// MLA tuning knobs.
struct MlaOptions {
    int max_iterations = 200;     ///< NR budget per solve
    double abstol = 1e-9;
    double reltol = 1e-6;
    double v_limit = 0.1;         ///< max per-iteration device-voltage move [V]
    int ramp_initial_steps = 4;   ///< source-stepping start resolution
    int ramp_max_halvings = 12;
    /// Optional initial guess (warm start across sweep points).
    linalg::Vector initial_guess;
};

/// Operating point with the MLA (limited NR; falls back to the adaptive
/// source ramp when limiting alone stalls).
[[nodiscard]] DcResult solve_op_mla(const mna::MnaAssembler& assembler,
                                    const MlaOptions& options = {},
                                    double t = 0.0,
                                    double source_scale = 1.0);

/// DC sweep with the MLA on the engines::dc_sweep driver, warm-starting
/// each point (the configuration Table I measures).  The swept source
/// gets its original stimulus back on return, throw or cancel.
/// `observer` gets per-point trial callbacks and may cancel between
/// points (partial SweepResult flagged `aborted`).
[[nodiscard]] SweepResult dc_sweep_mla(Circuit& circuit,
                                       const std::string& source_name,
                                       const linalg::Vector& values,
                                       const MlaOptions& options = {},
                                       const AnalysisObserver* observer = nullptr);

/// DC sweep against a caller-owned assembler built from `circuit` (the
/// SimSession path).
[[nodiscard]] SweepResult dc_sweep_mla(Circuit& circuit,
                                       const mna::MnaAssembler& assembler,
                                       const std::string& source_name,
                                       const linalg::Vector& values,
                                       const MlaOptions& options,
                                       const AnalysisObserver* observer);

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_DC_MLA_HPP
