// Nano-Sim — the DC-sweep driver shared by the SWEC, NR and MLA engines.
//
// A DC sweep sets a named V or I source to each value in turn and solves
// the operating point there, warm-starting each point from the one before
// (the configuration of paper Fig. 7 / Table I).  dc_sweep owns all of it
// but the solve: the point loop, the swept source's DC level, the
// "sweep-point" trace span, cancellation and progress through the
// observer, the warm-start hand-off and the flop tally.  On return, throw
// or cancel the source gets its exact original stimulus object back, so
// a sweep leaves the circuit as it found it.
//
// dc_sweep_swec / dc_sweep_nr / dc_sweep_mla bind their op solver and
// warm-start rule to it.
#ifndef NANOSIM_ENGINES_DC_SWEEP_HPP
#define NANOSIM_ENGINES_DC_SWEEP_HPP

#include <functional>
#include <string>

#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "netlist/circuit.hpp"

namespace nanosim::engines {

/// Solves one sweep point with the swept source at its level.
/// `previous` is the last point's solution; empty at the first point.
using SweepPointSolver =
    std::function<DcResult(const linalg::Vector& previous)>;

/// Sweep `source_name` (a V or I source of `circuit`) over `values`,
/// calling `solve_point` once per point.  `observer` gets per-point trial
/// and progress callbacks and may cancel between points (the partial
/// result is flagged `aborted`).  Throws AnalysisError on an empty sweep
/// and NetlistError when `source_name` is not a V or I source.
[[nodiscard]] SweepResult dc_sweep(Circuit& circuit,
                                   const std::string& source_name,
                                   const linalg::Vector& values,
                                   const AnalysisObserver* observer,
                                   const SweepPointSolver& solve_point);

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_DC_SWEEP_HPP
