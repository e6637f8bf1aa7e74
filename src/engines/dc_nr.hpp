// Nano-Sim — Newton-Raphson DC analysis (the SPICE baseline).
//
// Solves G(x) x = b with damped Newton iterations on the MNA system,
// using each device's *differential* (tangent) conductance — the
// linearisation that malfunctions on non-monotonic I-V curves: inside an
// NDR region the tangent is negative and iterates can cycle between two
// points (paper Fig. 2) or walk to a wrong branch.  Failure modes are
// reported, not hidden, because reproducing them IS part of the paper.
//
// Convergence aids (options): gmin loading, source stepping
// (continuation in a 0->1 source scale), per-iteration update damping.
#ifndef NANOSIM_ENGINES_DC_NR_HPP
#define NANOSIM_ENGINES_DC_NR_HPP

#include <functional>

#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "mna/mna.hpp"

namespace nanosim::engines {

/// Options for the NR operating-point solver.
struct NrOptions {
    int max_iterations = 200;
    double abstol = 1e-9;  ///< absolute voltage tolerance [V]
    double reltol = 1e-6;  ///< relative tolerance vs iterate norm
    double gmin = 0.0;     ///< conductance loaded on every node diagonal
    double damping = 1.0;  ///< update scale in (0, 1]
    bool record_trace = false; ///< keep full iterate history (Fig. 2)
    /// Optional initial guess (size must equal unknowns; empty = zeros).
    linalg::Vector initial_guess;
};

/// Options for source-stepping continuation.
struct SourceSteppingOptions {
    NrOptions nr;
    int initial_steps = 10;    ///< first ramp resolution
    int max_halvings = 10;     ///< adaptive lambda-step reductions
};

/// One NR operating-point solve at time t (sources evaluated at t;
/// capacitors open, inductors short).  `source_scale` multiplies all
/// independent sources (used by continuation).
[[nodiscard]] DcResult solve_op_nr(const mna::MnaAssembler& assembler,
                                   const NrOptions& options = {},
                                   double t = 0.0,
                                   double source_scale = 1.0);

/// Operating point via source stepping: ramp sources from 0 to 100%,
/// warm-starting each solve, halving the ramp step on failure.
[[nodiscard]] DcResult
solve_op_source_stepping(const mna::MnaAssembler& assembler,
                         const SourceSteppingOptions& options = {});

/// One rung of a source ramp: the operating point with every independent
/// source scaled by `lambda`, warm-started from `warm`.
using RampRung =
    std::function<DcResult(double lambda, const linalg::Vector& warm)>;

/// The source-stepping ramp of solve_op_source_stepping and MLA's second
/// phase.  lambda climbs from 0 to 1 in steps of 1/initial_steps, each
/// rung warm-started from the last converged one (from zeros the size of
/// fallback.x at first); a converged rung grows the step 1.5x, a failed
/// one halves it, and more than `max_halvings` halvings give up.  Returns
/// the converged lambda = 1 rung, or else the last converged rung
/// (`fallback` when none converged) flagged unconverged; its
/// `iterations` are fallback's plus every rung's.
[[nodiscard]] DcResult source_ramp(const RampRung& rung, DcResult fallback,
                                   int initial_steps, int max_halvings);

/// DC sweep on the engines::dc_sweep driver: set `source_name` (a
/// VSource or ISource) to each value in turn and solve with NR,
/// warm-starting from the previous point.  The source gets its original
/// stimulus back on return, throw or cancel.  `observer` gets per-point
/// trial callbacks and may cancel between points (partial SweepResult
/// flagged `aborted`).
[[nodiscard]] SweepResult dc_sweep_nr(Circuit& circuit,
                                      const std::string& source_name,
                                      const linalg::Vector& values,
                                      const NrOptions& options = {},
                                      const AnalysisObserver* observer = nullptr);

/// DC sweep against a caller-owned assembler built from `circuit` (the
/// SimSession path).
[[nodiscard]] SweepResult dc_sweep_nr(Circuit& circuit,
                                      const mna::MnaAssembler& assembler,
                                      const std::string& source_name,
                                      const linalg::Vector& values,
                                      const NrOptions& options,
                                      const AnalysisObserver* observer);

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_DC_NR_HPP
