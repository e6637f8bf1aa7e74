#include "engines/monte_carlo.hpp"

#include <chrono>
#include <cmath>
#include <memory>

#include "devices/sources.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"

namespace nanosim::engines {

namespace {

/// Piecewise-constant sample-and-hold waveform on a uniform grid —
/// band-limited white noise for the deterministic engines.
class StepNoiseWave final : public Waveform {
public:
    StepNoiseWave(std::vector<double> samples, double dt)
        : samples_(std::move(samples)), dt_(dt) {}

    [[nodiscard]] double value(double t) const override {
        if (t < 0.0 || samples_.empty()) {
            return 0.0;
        }
        auto idx = static_cast<std::size_t>(t / dt_);
        idx = std::min(idx, samples_.size() - 1);
        return samples_[idx];
    }

    [[nodiscard]] double slope(double) const override { return 0.0; }

    [[nodiscard]] std::string describe() const override {
        return "NOISE(" + std::to_string(samples_.size()) + " holds)";
    }

private:
    std::vector<double> samples_;
    double dt_;
};

} // namespace

McOptions normalize_mc_options(const mna::MnaAssembler& assembler,
                               const McOptions& options_in, NodeId node) {
    McOptions options = options_in;
    if (options.t_stop <= 0.0 || options.runs < 1) {
        throw AnalysisError("run_monte_carlo: need t_stop > 0, runs >= 1");
    }
    if (options.grid_points < 2) {
        throw AnalysisError("run_monte_carlo: need grid_points >= 2");
    }
    if (options.noise_dt <= 0.0) {
        options.noise_dt = options.t_stop / 200.0;
    }
    if (node == k_ground || node > assembler.num_nodes()) {
        throw AnalysisError("run_monte_carlo: bad node");
    }
    for (const NodeId probe : options.probe_nodes) {
        if (probe == k_ground || probe > assembler.num_nodes()) {
            throw AnalysisError("run_monte_carlo: bad node");
        }
    }
    if (assembler.noise_sources().empty()) {
        throw AnalysisError("run_monte_carlo: circuit has no noise sources");
    }
    options.tran.t_stop = options.t_stop;
    // The deterministic transient must resolve the realized noise
    // bandwidth: capping the step at noise_dt is what makes Monte-Carlo
    // pay the full per-step engine cost the paper's Sec. 1 describes
    // (and what keeps its variance estimate unbiased).
    if (options.tran.dt_max <= 0.0 || options.tran.dt_max > options.noise_dt) {
        options.tran.dt_max = options.noise_dt;
    }
    return options;
}

std::vector<double> mc_grid(const McOptions& normalized) {
    std::vector<double> grid(normalized.grid_points);
    for (std::size_t j = 0; j < normalized.grid_points; ++j) {
        grid[j] = normalized.t_stop * static_cast<double>(j) /
                  static_cast<double>(normalized.grid_points - 1);
    }
    return grid;
}

stochastic::NoisePathSet mc_noise_paths(const mna::MnaAssembler& assembler,
                                        const McOptions& normalized,
                                        std::uint64_t base_seed) {
    std::vector<double> sigmas;
    sigmas.reserve(assembler.noise_sources().size());
    for (const Device* dev : assembler.noise_sources()) {
        sigmas.push_back(static_cast<const NoiseCurrentSource*>(dev)->sigma());
    }
    const auto holds = static_cast<std::size_t>(
        std::ceil(normalized.t_stop / normalized.noise_dt));
    return stochastic::NoisePathSet(base_seed, std::move(sigmas), holds,
                                    normalized.noise_dt);
}

mna::MnaAssembler::NoiseRealization
mc_noise_waves(const stochastic::NoisePathSet& noise, int trial) {
    mna::MnaAssembler::NoiseRealization waves;
    waves.reserve(noise.num_sources());
    for (std::size_t s = 0; s < noise.num_sources(); ++s) {
        waves.push_back(std::make_shared<StepNoiseWave>(
            noise.samples(trial, s), noise.noise_dt()));
    }
    return waves;
}

McTrial mc_realization(const mna::MnaAssembler& assembler,
                       const McOptions& normalized,
                       const stochastic::NoisePathSet& noise, int trial,
                       NodeId node, const std::vector<double>& grid,
                       const AnalysisObserver* observer,
                       mna::SystemCache* cache) {
    SwecTranOptions tran = normalized.tran;
    tran.noise = mc_noise_waves(noise, trial);

    // Cancellation forwarded at the inner transient's step granularity;
    // progress/step callbacks stay with the outer per-trial scale.
    const AnalysisObserver inner = cancel_only(observer);
    const TranResult res = run_tran_swec(
        assembler, tran, observer != nullptr ? &inner : nullptr, cache);
    if (res.aborted) {
        return {}; // partial trial: no usable samples
    }
    McTrial out;
    out.steps_accepted = res.steps_accepted;
    out.rescues = res.rescues;
    auto sample = [&](NodeId n) {
        const auto& wave = res.node_waves[static_cast<std::size_t>(n - 1)];
        std::vector<double> samples(grid.size());
        for (std::size_t j = 0; j < grid.size(); ++j) {
            samples[j] = wave.at(grid[j]);
        }
        return samples;
    };
    out.samples = sample(node);
    out.probe_samples.reserve(normalized.probe_nodes.size());
    for (const NodeId probe : normalized.probe_nodes) {
        out.probe_samples.push_back(sample(probe));
    }
    return out;
}

bool mc_trial_fail_injected() {
    if (!failpoints::enabled()) {
        return false;
    }
    static auto& fp = failpoints::site("mc.trial_fail");
    return fp.fire();
}

McCheckpoint make_mc_checkpoint(std::uint64_t base_seed, int next_trial,
                                const McOptions& normalized,
                                const McResult& partial,
                                const FlopCounter& flops_so_far) {
    McCheckpoint cp;
    cp.base_seed = base_seed;
    cp.next_trial = next_trial;
    cp.runs = normalized.runs;
    cp.grid_points = normalized.grid_points;
    cp.primary = capture_ensemble(partial.stats);
    cp.probes.reserve(partial.probes.size());
    for (const McNodeStats& probe : partial.probes) {
        cp.probes.push_back(capture_ensemble(probe.stats));
    }
    cp.trial_steps = partial.trial_steps;
    cp.failed_trials = partial.failed_trials;
    cp.flops = flops_so_far;
    cp.rescues = partial.rescues;
    return cp;
}

void emit_mc_checkpoint(const AnalysisObserver* observer,
                        std::uint64_t base_seed, int next_trial,
                        const McOptions& normalized, const McResult& partial,
                        const FlopCounter& flops_so_far) {
    if (observer == nullptr || !observer->on_checkpoint) {
        return;
    }
    if (failpoints::enabled()) {
        static auto& fp = failpoints::site("mc.checkpoint_drop");
        if (fp.fire()) {
            return; // lost checkpoint: resume falls back to an older one
        }
    }
    observer->checkpoint(make_mc_checkpoint(base_seed, next_trial, normalized,
                                            partial, flops_so_far));
}

int restore_mc_checkpoint(const McCheckpoint& checkpoint,
                          const McOptions& normalized, McResult& out) {
    if (checkpoint.runs != normalized.runs ||
        checkpoint.grid_points != normalized.grid_points) {
        throw AnalysisError(
            "mc resume: checkpoint describes a different campaign (runs " +
            std::to_string(checkpoint.runs) + " vs " +
            std::to_string(normalized.runs) + ", grid " +
            std::to_string(checkpoint.grid_points) + " vs " +
            std::to_string(normalized.grid_points) + ")");
    }
    if (checkpoint.probes.size() != out.probes.size()) {
        throw AnalysisError("mc resume: checkpoint has " +
                            std::to_string(checkpoint.probes.size()) +
                            " probes, request has " +
                            std::to_string(out.probes.size()));
    }
    if (checkpoint.next_trial < 0 || checkpoint.next_trial > checkpoint.runs) {
        throw AnalysisError("mc resume: bad next_trial " +
                            std::to_string(checkpoint.next_trial));
    }
    restore_ensemble(out.stats, checkpoint.primary);
    for (std::size_t k = 0; k < out.probes.size(); ++k) {
        restore_ensemble(out.probes[k].stats, checkpoint.probes[k]);
    }
    out.trial_steps = checkpoint.trial_steps;
    out.failed_trials = checkpoint.failed_trials;
    out.rescues = checkpoint.rescues;
    return checkpoint.next_trial;
}

McResult run_monte_carlo(const mna::MnaAssembler& assembler,
                         const McOptions& options_in, stochastic::Rng& rng,
                         NodeId node, const AnalysisObserver* observer,
                         mna::SystemCache* cache) {
    const FlopScope scope;
    const McOptions options = normalize_mc_options(assembler, options_in, node);
    // One base seed drawn from the caller's generator; every trial's
    // paths then come from counter-derived streams, so the parallel
    // driver reproduces this ensemble exactly.  A resumed
    // campaign reuses the checkpoint's base seed instead of drawing.
    const std::uint64_t base = options.resume != nullptr
                                   ? options.resume->base_seed
                                   : rng.engine()();
    const stochastic::NoisePathSet noise =
        mc_noise_paths(assembler, options, base);

    McResult out{.grid = mc_grid(options),
                 .mean = analysis::Waveform("mean"),
                 .stddev = analysis::Waveform("stddev"),
                 .stats = stochastic::EnsembleStats(options.grid_points),
                 .probes = {},
                 .trial_steps = {},
                 .failed_trials = {},
                 .rescues = {},
                 .aborted = false,
                 .flops = {},
                 .solver = {}};
    for (const NodeId probe : options.probe_nodes) {
        const std::string name = assembler.circuit().node_name(probe);
        out.probes.push_back(McNodeStats{
            .node = probe,
            .name = name,
            .mean = analysis::Waveform("mean(v(" + name + "))"),
            .stddev = analysis::Waveform("stddev(v(" + name + "))"),
            .stats = stochastic::EnsembleStats(options.grid_points)});
    }

    // Trial wall-time distribution (metrics on only).
    obs::Histogram* trial_hist = nullptr;
    if (obs::metrics_enabled()) {
        static obs::Histogram& th = obs::metrics().histogram(
            "mc.trial_s", obs::time_buckets());
        trial_hist = &th;
    }

    // Resume: restore the accumulators and continue where the checkpoint
    // stopped.  flop_base seeds the tally so the final count matches the
    // uninterrupted campaign (setup is uninstrumented on both sides).
    FlopCounter flop_base;
    int first = 0;
    if (options.resume != nullptr) {
        first = restore_mc_checkpoint(*options.resume, options, out);
        flop_base = options.resume->flops;
    }

    for (int run = first; run < options.runs; ++run) {
        if (observer != nullptr && observer->cancelled()) {
            out.aborted = true;
            break;
        }
        const obs::Span trial_span("trial", "mc");
        const auto trial_t0 = std::chrono::steady_clock::now();
        bool cancelled_mid_trial = false;
        try {
            if (mc_trial_fail_injected()) {
                throw AnalysisError("fail-point mc.trial_fail fired");
            }
            McTrial trial = mc_realization(assembler, options, noise, run,
                                           node, out.grid, observer, cache);
            if (trial.samples.empty()) { // trial cancelled mid-transient
                cancelled_mid_trial = true;
            } else {
                out.stats.add_path(trial.samples);
                out.trial_steps.push_back(trial.steps_accepted);
                for (std::size_t k = 0; k < out.probes.size(); ++k) {
                    out.probes[k].stats.add_path(trial.probe_samples[k]);
                }
                out.rescues += trial.rescues;
            }
        } catch (const SimError& e) {
            // Rescue ladder exhausted: quarantine the trial (seed +
            // diagnostic replay the failure offline) and keep going —
            // one pathological realization must not abort the campaign.
            out.failed_trials.push_back(
                McFailedTrial{run, base, e.what()});
        }
        if (trial_hist != nullptr) {
            trial_hist->observe(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    trial_t0)
                                    .count());
        }
        if (cancelled_mid_trial) {
            out.aborted = true;
            break;
        }
        if (observer != nullptr) {
            observer->trial(run + 1, options.runs);
            observer->progress(static_cast<double>(run + 1) / options.runs);
        }
        if (options.checkpoint_every > 0 &&
            (run + 1) % options.checkpoint_every == 0 &&
            run + 1 < options.runs) {
            FlopCounter so_far = flop_base;
            so_far += scope.counter();
            emit_mc_checkpoint(observer, base, run + 1, options, out, so_far);
        }
    }

    for (std::size_t j = 0; j < options.grid_points; ++j) {
        const auto& s = out.stats.at(j);
        out.mean.append(out.grid[j], s.mean());
        out.stddev.append(out.grid[j], s.stddev());
        for (McNodeStats& probe : out.probes) {
            const auto& p = probe.stats.at(j);
            probe.mean.append(out.grid[j], p.mean());
            probe.stddev.append(out.grid[j], p.stddev());
        }
    }
    out.flops = flop_base;
    out.flops += scope.counter();
    return out;
}

} // namespace nanosim::engines
