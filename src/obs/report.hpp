// Nano-Sim — structured per-run solver report.
//
// A RunReport is the machine-readable summary of one analysis run,
// attached to every AnalysisResult: step-control outcomes (accepted /
// rejected counts, which bound limited each accepted step), solver-cache
// work (factor strategy mix, pivot fallbacks, pattern rebuilds, table
// builds), the five-way wall-time attribution including the symbolic
// analyze bucket, and thread-pool queue pressure.  It aggregates data
// the engines already track plus the counters this subsystem adds, so a
// regression harness (or the `nanosim report` verb) can diff runs
// without scraping log output.
//
// Deliberately std-only (no engine/mna includes): core/analysis_spec.hpp
// embeds a RunReport by value, so this header must sit below everything.
#ifndef NANOSIM_OBS_REPORT_HPP
#define NANOSIM_OBS_REPORT_HPP

#include <cstdint>
#include <string>

#include "util/fields.hpp"

namespace nanosim::obs {

/// How many accepted steps were limited by each step-size bound.  For
/// adaptive engines the per-step winner is whichever constraint produced
/// the step actually taken; fixed-step engines count everything under
/// `fixed`.  Sums to the engine's accepted-step count.
struct StepBoundCounts {
    /// Local-error control: the eq. (12) device bound (SWEC) or an
    /// LTE/segment-cycling halving (NR/PWL baselines).
    std::uint64_t device = 0;
    std::uint64_t node = 0;       ///< SWEC per-node voltage-change bound
    /// growth_limit vs the previous step (SWEC), or the 1.5x growth
    /// heuristic proposing the step unopposed (NR/PWL).
    std::uint64_t growth = 0;
    std::uint64_t dt_max = 0;     ///< user step ceiling
    std::uint64_t dt_min = 0;     ///< clamped up to the step floor
    std::uint64_t breakpoint = 0; ///< clipped to a source breakpoint
    std::uint64_t horizon = 0;    ///< clipped to land exactly on t_stop
    std::uint64_t fixed = 0;      ///< fixed-step engine (no adaptation)

    [[nodiscard]] std::uint64_t total() const noexcept {
        return device + node + growth + dt_max + dt_min + breakpoint +
               horizon + fixed;
    }
};

constexpr auto field_table(std::type_identity<StepBoundCounts>) {
    return std::tuple{
        Field{"device", &StepBoundCounts::device},
        Field{"node", &StepBoundCounts::node},
        Field{"growth", &StepBoundCounts::growth},
        Field{"dt_max", &StepBoundCounts::dt_max},
        Field{"dt_min", &StepBoundCounts::dt_min},
        Field{"breakpoint", &StepBoundCounts::breakpoint},
        Field{"horizon", &StepBoundCounts::horizon},
        Field{"fixed", &StepBoundCounts::fixed}};
}

/// Numerical rescue-ladder outcomes (PR-10 robustness subsystem).  When a
/// step fails to solve (NR non-convergence, singular/non-finite SWEC
/// solve), the engines escalate dt-backoff -> gmin stepping -> source
/// stepping before giving up; each rung counts an attempt when entered
/// and a success when it produced an accepted step.
struct RescueCounts {
    std::uint64_t dt_backoff_attempted = 0;
    std::uint64_t dt_backoff_succeeded = 0;
    std::uint64_t gmin_attempted = 0;
    std::uint64_t gmin_succeeded = 0;
    std::uint64_t source_attempted = 0;
    std::uint64_t source_succeeded = 0;

    [[nodiscard]] std::uint64_t total_attempted() const noexcept {
        return dt_backoff_attempted + gmin_attempted + source_attempted;
    }
    [[nodiscard]] std::uint64_t total_succeeded() const noexcept {
        return dt_backoff_succeeded + gmin_succeeded + source_succeeded;
    }

    RescueCounts& operator+=(const RescueCounts& o) noexcept {
        dt_backoff_attempted += o.dt_backoff_attempted;
        dt_backoff_succeeded += o.dt_backoff_succeeded;
        gmin_attempted += o.gmin_attempted;
        gmin_succeeded += o.gmin_succeeded;
        source_attempted += o.source_attempted;
        source_succeeded += o.source_succeeded;
        return *this;
    }
};

constexpr auto field_table(std::type_identity<RescueCounts>) {
    return std::tuple{
        Field{"dt_backoff_attempted", &RescueCounts::dt_backoff_attempted},
        Field{"dt_backoff_succeeded", &RescueCounts::dt_backoff_succeeded},
        Field{"gmin_attempted", &RescueCounts::gmin_attempted},
        Field{"gmin_succeeded", &RescueCounts::gmin_succeeded},
        Field{"source_attempted", &RescueCounts::source_attempted},
        Field{"source_succeeded", &RescueCounts::source_succeeded}};
}

/// Aggregated diagnostics for one analysis run.
struct RunReport {
    // ---- identity -----------------------------------------------------
    std::string analysis;   ///< spec name
    std::string kind;       ///< analysis kind ("tran", "monte_carlo", ...)
    std::string engine;     ///< engine display name
    double elapsed_s = 0.0; ///< wall-clock for the whole run
    bool aborted = false;

    // ---- step control -------------------------------------------------
    std::uint64_t steps_accepted = 0;
    std::uint64_t steps_rejected = 0;
    std::uint64_t nr_iterations = 0;     ///< total (0 for SWEC)
    std::uint64_t nonconverged_steps = 0;
    StepBoundCounts bounds;              ///< per-bound winner counts
    double min_dt = 0.0;                 ///< smallest accepted step [s]
    double max_dt = 0.0;                 ///< largest accepted step [s]

    // ---- robustness ---------------------------------------------------
    RescueCounts rescues;          ///< rescue-ladder attempts per rung
    std::uint64_t failed_trials = 0; ///< MC trials quarantined after the
                                     ///< ladder was exhausted

    // ---- batch drivers ------------------------------------------------
    std::uint64_t trials = 0; ///< MC trials / EM paths / sweep points

    // ---- solver cache work (deltas for this run) ----------------------
    std::uint64_t full_factors = 0;
    std::uint64_t fast_refactors = 0;
    std::uint64_t refactors_skipped = 0; ///< last LU reused + refined
    std::uint64_t dense_solves = 0;
    std::uint64_t pivot_fallbacks = 0;  ///< refactor() bailed to full LU
    std::uint64_t pattern_rebuilds = 0; ///< stamp-pattern misses
    std::uint64_t refine_sweeps = 0;    ///< stale-factor correction sweeps
    double max_backward_error = 0.0;    ///< worst accepted refined solve
    std::uint64_t tables_built = 0;     ///< chord tables built this run

    // ---- wall-time attribution [s] ------------------------------------
    double analyze_s = 0.0; ///< symbolic analysis + ordering + compile
    double eval_s = 0.0;    ///< device-model evaluation
    double stamp_s = 0.0;   ///< matrix restamps
    double factor_s = 0.0;  ///< LU factor / refactor (wall clock)
    double solve_s = 0.0;   ///< triangular solves

    // ---- infrastructure -----------------------------------------------
    std::uint64_t cache_signature = 0;  ///< stamp-pattern signature
    std::uint64_t pool_tasks = 0;       ///< thread-pool tasks this run
    double pool_queue_wait_s = 0.0;     ///< summed submit→dequeue latency

    /// One JSON object: the field table below, in order; deterministic.
    [[nodiscard]] std::string to_json() const;

    /// Human-readable multi-line rendering for the CLI `report` verb.
    [[nodiscard]] std::string pretty() const;
};

constexpr auto field_table(std::type_identity<RunReport>) {
    return std::tuple{
        Field{"analysis", &RunReport::analysis},
        Field{"kind", &RunReport::kind},
        Field{"engine", &RunReport::engine},
        Field{"elapsed_s", &RunReport::elapsed_s},
        Field{"aborted", &RunReport::aborted},
        Field{"steps_accepted", &RunReport::steps_accepted},
        Field{"steps_rejected", &RunReport::steps_rejected},
        Field{"nr_iterations", &RunReport::nr_iterations},
        Field{"nonconverged_steps", &RunReport::nonconverged_steps},
        Field{"step_bounds", &RunReport::bounds},
        Field{"min_dt", &RunReport::min_dt},
        Field{"max_dt", &RunReport::max_dt},
        Field{"rescues", &RunReport::rescues},
        Field{"failed_trials", &RunReport::failed_trials},
        Field{"trials", &RunReport::trials},
        Field{"full_factors", &RunReport::full_factors},
        Field{"fast_refactors", &RunReport::fast_refactors},
        Field{"refactors_skipped", &RunReport::refactors_skipped},
        Field{"dense_solves", &RunReport::dense_solves},
        Field{"pivot_fallbacks", &RunReport::pivot_fallbacks},
        Field{"pattern_rebuilds", &RunReport::pattern_rebuilds},
        Field{"refine_sweeps", &RunReport::refine_sweeps},
        Field{"max_backward_error", &RunReport::max_backward_error},
        Field{"tables_built", &RunReport::tables_built},
        Field{"analyze_s", &RunReport::analyze_s},
        Field{"eval_s", &RunReport::eval_s},
        Field{"stamp_s", &RunReport::stamp_s},
        Field{"factor_s", &RunReport::factor_s},
        Field{"solve_s", &RunReport::solve_s},
        Field{"cache_signature", &RunReport::cache_signature},
        Field{"pool_tasks", &RunReport::pool_tasks},
        Field{"pool_queue_wait_s", &RunReport::pool_queue_wait_s}};
}

} // namespace nanosim::obs

#endif // NANOSIM_OBS_REPORT_HPP
