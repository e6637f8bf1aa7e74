// Nano-Sim — deterministic Monte-Carlo campaign checkpoints.
//
// A McCheckpoint is the complete resumable state of a Monte-Carlo
// campaign after `next_trial` trials have been folded in: the base seed
// every trial's noise paths are keyed from, the RAW Welford accumulator
// state of every ensemble statistic (summaries are lossy — resume needs
// the exact n/mean/m2/min/max of each point), per-trial bookkeeping, the
// quarantined-trial ledger, and the flop tally.  Because trial noise is
// counter-keyed by (base_seed, trial) and Welford accumulation is
// order-deterministic, restoring this state and continuing at
// `next_trial` reproduces the uninterrupted campaign BIT-IDENTICALLY —
// the contract tests/test_robustness.cpp gates.
//
// Deliberately std-only below engines/ internals (plus the std-only
// obs::RescueCounts / FlopCounter value types): observer.hpp and the
// service wire layer both embed it.
#ifndef NANOSIM_ENGINES_CHECKPOINT_HPP
#define NANOSIM_ENGINES_CHECKPOINT_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "stochastic/stats.hpp"
#include "util/flops.hpp"

namespace nanosim::engines {

/// One quarantined Monte-Carlo trial: the trial index, the campaign base
/// seed its noise paths were keyed from (trial noise = f(seed, trial), so
/// the pair pins the exact realization for replay), and the diagnostic
/// from the exhausted rescue ladder.
struct McFailedTrial {
    int trial = 0;
    std::uint64_t seed = 0;
    std::string diagnostic;
};

constexpr auto field_table(std::type_identity<McFailedTrial>) {
    return std::tuple{
        Field{"trial", &McFailedTrial::trial},
        Field{"seed", &McFailedTrial::seed},
        Field{"diagnostic", &McFailedTrial::diagnostic}};
}

/// Raw Welford accumulator state (stochastic::RunningStats).
struct McStatState {
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
};

constexpr auto field_table(std::type_identity<McStatState>) {
    return std::tuple{
        Field{"n", &McStatState::n},
        Field{"mean", &McStatState::mean},
        Field{"m2", &McStatState::m2},
        Field{"min", &McStatState::min},
        Field{"max", &McStatState::max}};
}

/// Raw state of one stochastic::EnsembleStats.
struct McEnsembleState {
    std::vector<McStatState> per_point;
    McStatState peak;
    std::vector<double> peaks;
    std::uint64_t paths = 0;
};

/// per_point is not listed: it travels as one array per McStatState field
/// (service/wire.cpp).
constexpr auto field_table(std::type_identity<McEnsembleState>) {
    return std::tuple{
        Field{"peak", &McEnsembleState::peak},
        Field{"peaks", &McEnsembleState::peaks},
        Field{"paths", &McEnsembleState::paths}};
}

/// Resumable Monte-Carlo campaign state (see file comment).
struct McCheckpoint {
    std::uint64_t base_seed = 0; ///< NoisePathSet key for every trial
    int next_trial = 0;          ///< first trial NOT yet accumulated
    int runs = 0;                ///< campaign size (validated on resume)
    std::size_t grid_points = 0; ///< sample grid width (validated)

    McEnsembleState primary;               ///< the spec node's ensemble
    std::vector<McEnsembleState> probes;   ///< one per probe node
    std::vector<int> trial_steps;          ///< accepted steps per trial
    std::vector<McFailedTrial> failed_trials;
    FlopCounter flops;                     ///< campaign flop tally so far
    obs::RescueCounts rescues;             ///< ladder outcomes so far
};

constexpr auto field_table(std::type_identity<McCheckpoint>) {
    return std::tuple{
        Field{"base_seed", &McCheckpoint::base_seed},
        Field{"next_trial", &McCheckpoint::next_trial},
        Field{"runs", &McCheckpoint::runs},
        Field{"grid_points", &McCheckpoint::grid_points},
        Field{"primary", &McCheckpoint::primary},
        Field{"probes", &McCheckpoint::probes},
        Field{"trial_steps", &McCheckpoint::trial_steps},
        Field{"failed_trials", &McCheckpoint::failed_trials},
        Field{"flops", &McCheckpoint::flops},
        Field{"rescues", &McCheckpoint::rescues}};
}

/// Snapshot the raw accumulator state of an EnsembleStats.
[[nodiscard]] McEnsembleState
capture_ensemble(const stochastic::EnsembleStats& stats);

/// Rebuild an EnsembleStats from a snapshot.  Throws AnalysisError when
/// the point counts disagree (checkpoint from a different grid).
void restore_ensemble(stochastic::EnsembleStats& stats,
                      const McEnsembleState& state);

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_CHECKPOINT_HPP
