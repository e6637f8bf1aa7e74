// Nano-Sim — structured per-run solver report.
//
// A RunReport is the machine-readable summary of one analysis run,
// attached to every AnalysisResult: step-control outcomes (accepted /
// rejected counts, which bound limited each accepted step), the run's
// solver work (its SolverWork base: factor strategy mix, pivot
// fallbacks, pattern rebuilds, table builds and the seven-way wall-time
// split), and thread-pool queue pressure.  It aggregates data the
// engines already track plus the counters this subsystem adds, so a
// regression harness (or the `nanosim report` verb) can diff runs
// without scraping log output.
//
// SolverWork is the one declaration of the solver-work numbers.  The
// solver cache accumulates them (mna::SystemCache::Stats derives from
// it), SimSession takes one analysis's delta of its cache into the run's
// RunReport (which derives from it too), and the ensemble drivers sum
// the caches their extra workers built into it.  The delta and the sum
// walk SolverWork's field table, so a new field is one member plus one
// table line.
//
// Deliberately std-only (no engine/mna includes): core/analysis_spec.hpp
// embeds a RunReport by value and mna/system_cache.hpp derives from
// SolverWork, so this header must sit below everything.
#ifndef NANOSIM_OBS_REPORT_HPP
#define NANOSIM_OBS_REPORT_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

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

/// Solver-cache work.  On a healthy run every cached solve lands in
/// exactly one of full_factors / fast_refactors / refactors_skipped /
/// dense_solves / pattern_rebuilds.
struct SolverWork {
    // ---- solver cache -------------------------------------------------
    /// Symbolic + pivoting factorisations: what a persistent SimSession
    /// cache drives to zero for repeat analyses on an unchanged circuit.
    std::uint64_t full_factors = 0;
    std::uint64_t fast_refactors = 0;    ///< pattern-reusing refactors
    std::uint64_t refactors_skipped = 0; ///< last LU reused + refined
    std::uint64_t dense_solves = 0;      ///< dense-path solves
    /// refactor() detected pivot degradation and fell back to a full
    /// re-pivoting factorisation (a subset of full_factors).
    std::uint64_t pivot_fallbacks = 0;
    /// Stamp-pattern misses that forced a re-freeze (exotic devices).
    std::uint64_t pattern_rebuilds = 0;
    /// Residual-correction sweeps on the stale factor, including those of
    /// attempts that fell back to an exact refactor.
    std::uint64_t refine_sweeps = 0;
    /// Largest componentwise backward error of an accepted refined solve: a
    /// peak, so a sum keeps the larger and a delta keeps the later one
    /// (SystemCache::reset_backward_error_peak scopes it to a run).
    double max_backward_error = 0.0;
    std::uint64_t tables_built = 0; ///< chord tables built

    // ---- wall-time split [s] ------------------------------------------
    // The seven layers are the fields whose key ends in "_s"; they are
    // disjoint (obs::ScopedTimer nests by self time).  analyze_s:
    // symbolic analysis — pattern freeze, ordering selection,
    // StampProgram compile (the numeric half of the first LU stays in
    // factor_s); eval_s: device-model evaluation (chord conductances and
    // rates); stamp_s: begin() baselines, restamps and step-bound
    // diagonals (NR restamps are fused eval+stamp and land here);
    // factor_s: LU factor/refactor, incl. the dense path and overflow
    // rebuilds; solve_s: triangular solves and refinement, plus the
    // explicit Euler-Maruyama C⁻¹ solve the engine runs on a factor of
    // its own; step_s: the engines' step loop self time — SWEC step
    // control (eq. 12 node bound, eq. 5 predictor, eq. 10 error, slope
    // update) and the Euler-Maruyama step (noise injection, G·x, the x
    // update); record_s: recording accepted steps into waveforms.
    double analyze_s = 0.0;
    double eval_s = 0.0;
    double stamp_s = 0.0;
    double factor_s = 0.0;
    double solve_s = 0.0;
    double step_s = 0.0;
    double record_s = 0.0;

    /// Add another record's work to this one (the peak: the larger).
    SolverWork& operator+=(const SolverWork& o) noexcept;

    /// The work this record gained since `before`, an earlier snapshot
    /// of the same accumulator (the peak: this record's).
    [[nodiscard]] SolverWork since(const SolverWork& before) const noexcept;
};

constexpr auto field_table(std::type_identity<SolverWork>) {
    using S = SolverWork;
    return std::tuple{
        Field{"full_factors", &S::full_factors},
        Field{"fast_refactors", &S::fast_refactors},
        Field{"refactors_skipped", &S::refactors_skipped},
        Field{"dense_solves", &S::dense_solves},
        Field{"pivot_fallbacks", &S::pivot_fallbacks},
        Field{"pattern_rebuilds", &S::pattern_rebuilds},
        Field{"refine_sweeps", &S::refine_sweeps},
        Field{"max_backward_error", &S::max_backward_error},
        Field{"tables_built", &S::tables_built},
        Field{"analyze_s", &S::analyze_s},
        Field{"eval_s", &S::eval_s},
        Field{"stamp_s", &S::stamp_s},
        Field{"factor_s", &S::factor_s},
        Field{"solve_s", &S::solve_s},
        Field{"step_s", &S::step_s},
        Field{"record_s", &S::record_s}};
}

/// Call f(layer, seconds) for each time layer in table order; `layer` is
/// the key without its "_s" ("analyze", "eval", ..., "record").
template <typename F>
void for_each_layer(const SolverWork& w, F&& f) {
    for_each_field<SolverWork>([&](const auto& field) {
        const std::string_view key = field.key;
        if (key.ends_with("_s")) {
            f(key.substr(0, key.size() - 2),
              static_cast<double>(w.*field.member));
        }
    });
}

inline SolverWork& SolverWork::operator+=(const SolverWork& o) noexcept {
    const double peak = std::max(max_backward_error, o.max_backward_error);
    for_each_field<SolverWork>(
        [&](const auto& field) { this->*field.member += o.*field.member; });
    max_backward_error = peak;
    return *this;
}

inline SolverWork SolverWork::since(const SolverWork& before) const noexcept {
    SolverWork delta = *this;
    for_each_field<SolverWork>([&](const auto& field) {
        delta.*field.member -= before.*field.member;
    });
    delta.max_backward_error = max_backward_error;
    return delta;
}

/// Aggregated diagnostics for one analysis run; the SolverWork base
/// holds the run's solver-cache work and time split (this run's delta).
struct RunReport : SolverWork {
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

    // ---- infrastructure -----------------------------------------------
    std::uint64_t cache_signature = 0;  ///< stamp-pattern signature
    std::uint64_t pool_tasks = 0;       ///< thread-pool tasks this run
    double pool_queue_wait_s = 0.0;     ///< summed submit→dequeue latency

    /// One JSON object: the field table below, in order; deterministic.
    [[nodiscard]] std::string to_json() const;

    /// Human-readable multi-line rendering for the CLI `report` verb.
    [[nodiscard]] std::string pretty() const;
};

/// The SolverWork keys sit between "trials" and "cache_signature".
constexpr auto field_table(std::type_identity<RunReport>) {
    using R = RunReport;
    return std::tuple_cat(
        std::tuple{Field{"analysis", &R::analysis},
                   Field{"kind", &R::kind},
                   Field{"engine", &R::engine},
                   Field{"elapsed_s", &R::elapsed_s},
                   Field{"aborted", &R::aborted},
                   Field{"steps_accepted", &R::steps_accepted},
                   Field{"steps_rejected", &R::steps_rejected},
                   Field{"nr_iterations", &R::nr_iterations},
                   Field{"nonconverged_steps", &R::nonconverged_steps},
                   Field{"step_bounds", &R::bounds},
                   Field{"min_dt", &R::min_dt},
                   Field{"max_dt", &R::max_dt},
                   Field{"rescues", &R::rescues},
                   Field{"failed_trials", &R::failed_trials},
                   Field{"trials", &R::trials}},
        field_table(std::type_identity<SolverWork>{}),
        std::tuple{Field{"cache_signature", &R::cache_signature},
                   Field{"pool_tasks", &R::pool_tasks},
                   Field{"pool_queue_wait_s", &R::pool_queue_wait_s}});
}

} // namespace nanosim::obs

#endif // NANOSIM_OBS_REPORT_HPP
