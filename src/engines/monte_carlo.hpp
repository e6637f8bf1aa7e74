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
// Both drivers — serial (here) and trial-parallel (parallel.hpp) — draw
// their noise through one shared stochastic::NoisePathSet keyed by
// (trial, source), so their per-trial inputs are identical by
// construction and their outputs bit-identical.
#ifndef NANOSIM_ENGINES_MONTE_CARLO_HPP
#define NANOSIM_ENGINES_MONTE_CARLO_HPP

#include <memory>

#include "engines/checkpoint.hpp"
#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"
#include "stochastic/noise_paths.hpp"
#include "stochastic/rng.hpp"
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
    /// completed trials (0 = off).  Both drivers checkpoint at the same
    /// trial boundaries, so their checkpoints are interchangeable.
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

/// Ensemble statistics of one node voltage over the MC runs.
struct McResult {
    std::vector<double> grid;
    analysis::Waveform mean;
    analysis::Waveform stddev;
    stochastic::EnsembleStats stats;
    /// Optional extra observed nodes, in McOptions::probe_nodes order.
    std::vector<McNodeStats> probes;
    /// Accepted step count of each completed trial, in trial order —
    /// the adaptive-step fingerprint both drivers must agree on.
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
    /// Solver work on the per-trial caches the parallel driver builds,
    /// summed in trial order.  Zero on the serial driver: its trials run
    /// through the caller's cache, whose own stats carry the work.
    SolverWork solver;
};

/// Run the Monte-Carlo analysis, observing `node`.  `observer` gets
/// per-trial callbacks and may cancel (between trials, and mid-trial at
/// the inner transient's step granularity).  `cache` shares one
/// caller-owned SystemCache across every realization — without it each
/// trial's transient re-freezes its own pattern and re-runs the symbolic
/// analysis.
[[nodiscard]] McResult run_monte_carlo(const mna::MnaAssembler& assembler,
                                       const McOptions& options,
                                       stochastic::Rng& rng, NodeId node,
                                       const AnalysisObserver* observer = nullptr,
                                       mna::SystemCache* cache = nullptr);

// ---- realization-level API (shared with the parallel driver) ----

/// Validate the request and fill defaulted fields (noise_dt, the
/// transient horizon and its dt_max cap).  Throws AnalysisError exactly
/// like run_monte_carlo.
[[nodiscard]] McOptions normalize_mc_options(const mna::MnaAssembler& assembler,
                                             const McOptions& options,
                                             NodeId node);

/// The uniform statistics grid of `normalized` options.
[[nodiscard]] std::vector<double> mc_grid(const McOptions& normalized);

/// The shared noise-path set of a run: one sigma per noise source of
/// `assembler` (in noise_sources() order), holds/noise_dt from the
/// normalized options, streams seeded from `base_seed`.  Every driver
/// that starts from the same base seed draws identical per-trial paths.
[[nodiscard]] stochastic::NoisePathSet
mc_noise_paths(const mna::MnaAssembler& assembler, const McOptions& normalized,
               std::uint64_t base_seed);

/// Realise trial `trial`'s noise as sample-and-hold waveforms, one per
/// source in noise_sources() order — ready for SwecTranOptions::noise.
[[nodiscard]] mna::MnaAssembler::NoiseRealization
mc_noise_waves(const stochastic::NoisePathSet& noise, int trial);

/// Everything one realization produces.
struct McTrial {
    /// Primary node sampled on the statistics grid; empty = the inner
    /// transient was cancelled (a partial trial would bias the ensemble).
    std::vector<double> samples;
    /// Probe-node samples, McOptions::probe_nodes order.
    std::vector<std::vector<double>> probe_samples;
    int steps_accepted = 0;
    /// Rescue-ladder outcomes of the inner transient.
    obs::RescueCounts rescues;
};

/// One Monte-Carlo realization: look up trial `trial`'s noise paths, run
/// the deterministic transient, and sample the observed nodes on `grid`.
/// Options must come from normalize_mc_options.  `cache` is the shared
/// solver cache handed to the inner transient.
[[nodiscard]] McTrial
mc_realization(const mna::MnaAssembler& assembler, const McOptions& normalized,
               const stochastic::NoisePathSet& noise, int trial, NodeId node,
               const std::vector<double>& grid,
               const AnalysisObserver* observer = nullptr,
               mna::SystemCache* cache = nullptr);

// ---- checkpoint / fault-injection plumbing (shared by the drivers) ----

/// Deterministic `mc.trial_fail` admission decision.  Every driver
/// evaluates this exactly once per trial, in trial order (the parallel
/// driver pre-evaluates before dispatch), so an armed site quarantines
/// the same trials no matter which driver runs the campaign.
[[nodiscard]] bool mc_trial_fail_injected();

/// Snapshot a campaign in flight as a resumable checkpoint — shared by
/// the serial and parallel drivers so their checkpoints are
/// field-for-field identical at the same trial boundary.
[[nodiscard]] McCheckpoint
make_mc_checkpoint(std::uint64_t base_seed, int next_trial,
                   const McOptions& normalized, const McResult& partial,
                   const FlopCounter& flops_so_far);

/// Emit a checkpoint through the observer (no-op without a slot).  The
/// `mc.checkpoint_drop` fail point suppresses the emission — a dropped
/// checkpoint may only cost resume progress, never correctness.
void emit_mc_checkpoint(const AnalysisObserver* observer,
                        std::uint64_t base_seed, int next_trial,
                        const McOptions& normalized, const McResult& partial,
                        const FlopCounter& flops_so_far);

/// Validate a resume checkpoint against the normalized options and
/// restore its state into `out` (ensembles, trial ledger, rescue
/// counts).  Flops are NOT restored — the driver seeds its tally with
/// checkpoint.flops itself.  Returns the trial index to continue from.
/// Throws AnalysisError when the checkpoint describes a different
/// campaign shape.
[[nodiscard]] int restore_mc_checkpoint(const McCheckpoint& checkpoint,
                                        const McOptions& normalized,
                                        McResult& out);

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_MONTE_CARLO_HPP
