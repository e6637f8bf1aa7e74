// Nano-Sim — Monte-Carlo noise analysis (the baseline EM replaces).
//
// The pre-SDE methodology for circuits with uncertain inputs: realise
// each white-noise source as a concrete band-limited sample path (a
// piecewise-constant current of value sigma * xi_k / sqrt(dt) on each
// interval, so its integral over a step is a true Wiener increment), run
// a full *deterministic* transient per realization, and build statistics
// over hundreds of runs.  This is the "several hundreds to over thousands
// of Monte Carlo simulations" cost of paper Sec. 1 that the EM engine
// amortises — for a matched path count, MC pays the deterministic
// engine's full machinery per run.
//
// One driver runs every campaign, on one worker or many: trial k draws
// its noise from a stochastic::NoisePathSet keyed by (trial, source) and
// trials reduce in trial order, so the worker count never changes the
// result.  Its worker loop also runs the Euler-Maruyama ensembles
// (run_em_ensemble, declared in engines/em_engine.hpp, defined in
// monte_carlo.cpp).
#ifndef NANOSIM_ENGINES_MONTE_CARLO_HPP
#define NANOSIM_ENGINES_MONTE_CARLO_HPP

#include <cstdint>
#include <memory>

#include "engines/checkpoint.hpp"
#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"
#include "runtime/execution_policy.hpp"
#include "stochastic/noise_paths.hpp"
#include "stochastic/stats.hpp"

namespace nanosim::engines {

/// Monte-Carlo options.
struct McOptions {
    int runs = 200;          ///< deterministic transients to run
    double t_stop = 0.0;     ///< horizon [s]
    double noise_dt = 0.0;   ///< noise bandwidth grid; 0 = t_stop/200
    std::size_t grid_points = 201; ///< output sampling for statistics
    /// Additional nodes to observe alongside the primary one; each gets
    /// its own mean/stddev/ensemble block in McResult::probes.
    std::vector<NodeId> probe_nodes;
    /// Emit a resumable McCheckpoint through the observer every N
    /// completed trials (0 = off), at trials N, 2N, ... whatever the
    /// worker count, so checkpoints are interchangeable across counts.
    int checkpoint_every = 0;
    /// Resume a checkpointed campaign: restore the accumulator state and
    /// continue at resume->next_trial.  The request must describe the
    /// same campaign (runs/grid/probes validated; same circuit and seed
    /// are the caller's contract — the checkpoint pins base_seed).
    std::shared_ptr<const McCheckpoint> resume;
    /// Base options for the per-run deterministic transient (t_stop and
    /// noise are overridden per run).
    SwecTranOptions tran;
};

/// Per-node observation block for McOptions::probe_nodes.
struct McNodeStats {
    NodeId node = 0;
    std::string name;
    analysis::Waveform mean;
    analysis::Waveform stddev;
    stochastic::EnsembleStats stats;
};

constexpr auto field_table(std::type_identity<McNodeStats>) {
    return std::tuple{
        Field{"node", &McNodeStats::node},
        Field{"name", &McNodeStats::name},
        Field{"mean", &McNodeStats::mean},
        Field{"stddev", &McNodeStats::stddev},
        Field{"stats", &McNodeStats::stats}};
}

/// Ensemble statistics of one node voltage over the MC runs.
struct McResult {
    std::vector<double> grid;
    analysis::Waveform mean;
    analysis::Waveform stddev;
    stochastic::EnsembleStats stats;
    /// Optional extra observed nodes, in McOptions::probe_nodes order.
    std::vector<McNodeStats> probes;
    /// Accepted step count of each completed trial, in trial order —
    /// the adaptive-step fingerprint every worker count must agree on.
    std::vector<int> trial_steps;
    /// Trials quarantined after the rescue ladder was exhausted (seed +
    /// diagnostic for offline replay); the campaign continues without
    /// them and the surviving trials stay bit-identical.
    std::vector<McFailedTrial> failed_trials;
    /// Rescue-ladder outcomes aggregated over every surviving trial.
    obs::RescueCounts rescues;
    /// True when an AnalysisObserver cancelled the run; statistics cover
    /// the trials completed before the abort.
    bool aborted = false;
    FlopCounter flops;
    /// Solver work on the caches the driver built for its workers (all
    /// of them when the caller passed no cache).  The caller's cache is
    /// not included: its own stats carry that work.
    SolverWork solver;
};

/// `solver` is not on the wire: the result header carries the run's
/// solver work.
constexpr auto field_table(std::type_identity<McResult>) {
    return std::tuple{
        Field{"grid", &McResult::grid},
        Field{"mean", &McResult::mean},
        Field{"stddev", &McResult::stddev},
        Field{"stats", &McResult::stats},
        Field{"probes", &McResult::probes},
        Field{"trial_steps", &McResult::trial_steps},
        Field{"failed_trials", &McResult::failed_trials},
        Field{"rescues", &McResult::rescues},
        Field{"aborted", &McResult::aborted},
        Field{"flops", &McResult::flops}};
}

/// Run the Monte-Carlo analysis, observing `node`.  Trials run on
/// min(policy workers, trials left) workers — one by default, and then
/// on the calling thread with no pool.  Each worker runs its trials
/// through one SystemCache for the whole campaign: worker 0 through
/// `cache` when the caller passes one (a SimSession's), every other
/// worker through a cache it builds once.  Trial k's noise comes from
/// the NoisePathSet seeded by the first engine() draw of Rng(seed), and
/// trials reduce in trial order, so the result is bit-identical at any
/// worker count.  `observer` gets per-trial callbacks (from the workers:
/// thread-safe when there are several) and may cancel, between trials
/// and mid-trial at the inner transient's step granularity.
[[nodiscard]] McResult
run_monte_carlo(const mna::MnaAssembler& assembler, const McOptions& options,
                std::uint64_t seed, NodeId node,
                const runtime::ExecutionPolicy& policy =
                    runtime::ExecutionPolicy{1},
                const AnalysisObserver* observer = nullptr,
                mna::SystemCache* cache = nullptr);

/// Validate the request and fill defaulted fields (noise_dt, the
/// transient horizon and its dt_max cap).  Throws AnalysisError exactly
/// like run_monte_carlo.
[[nodiscard]] McOptions normalize_mc_options(const mna::MnaAssembler& assembler,
                                             const McOptions& options,
                                             NodeId node);

/// The shared noise-path set of a run: one sigma per noise source of
/// `assembler` (in noise_sources() order), holds/noise_dt from the
/// normalized options, streams seeded from `base_seed`.  Every campaign
/// that starts from the same base seed draws identical per-trial paths.
[[nodiscard]] stochastic::NoisePathSet
mc_noise_paths(const mna::MnaAssembler& assembler, const McOptions& normalized,
               std::uint64_t base_seed);

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_MONTE_CARLO_HPP
