#include "engines/monte_carlo.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "devices/sources.hpp"
#include "engines/em_engine.hpp"
#include "mna/system_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "stochastic/seed_sequence.hpp"
#include "stochastic/rng.hpp"
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

namespace {

/// The uniform statistics grid of `normalized` options.
std::vector<double> mc_grid(const McOptions& normalized) {
    std::vector<double> grid(normalized.grid_points);
    for (std::size_t j = 0; j < normalized.grid_points; ++j) {
        grid[j] = normalized.t_stop * static_cast<double>(j) /
                  static_cast<double>(normalized.grid_points - 1);
    }
    return grid;
}

/// Trial `trial`'s noise as sample-and-hold waveforms, one per source in
/// noise_sources() order — ready for SwecTranOptions::noise.
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

/// One trial's outcome, filled by the worker that ran it and kept until
/// the trial-order reduction.
struct McTrial {
    /// Primary node sampled on the statistics grid; empty = the trial
    /// never ran or its transient was cancelled (a partial trial would
    /// bias the ensemble).
    std::vector<double> samples;
    /// Probe-node samples, McOptions::probe_nodes order.
    std::vector<std::vector<double>> probe_samples;
    int steps_accepted = 0;
    /// Rescue-ladder outcomes of the inner transient.
    obs::RescueCounts rescues;
    /// mc.trial_fail decision, drawn in trial order before dispatch so
    /// an armed site hits the same trials at any worker count.
    bool inject_fail = false;
    bool failed = false; ///< rescue ladder exhausted — quarantined
    std::string diagnostic;
};

/// Run trial `trial`'s deterministic transient through `cache` and
/// sample the observed nodes on `grid` into `out`.  Options must come
/// from normalize_mc_options.
void mc_realization(const mna::MnaAssembler& assembler,
                    const McOptions& normalized,
                    const stochastic::NoisePathSet& noise, int trial,
                    NodeId node, const std::vector<double>& grid,
                    const AnalysisObserver* observer,
                    mna::SystemCache& cache, McTrial& out) {
    SwecTranOptions tran = normalized.tran;
    tran.noise = mc_noise_waves(noise, trial);

    // Cancellation forwarded at the inner transient's step granularity;
    // progress/step callbacks stay with the outer per-trial scale.
    const AnalysisObserver inner = cancel_only(observer);
    const TranResult res = run_tran_swec(
        assembler, tran, observer != nullptr ? &inner : nullptr, &cache);
    if (res.aborted) {
        return; // partial trial: no usable samples
    }
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
}

/// Deterministic `mc.trial_fail` admission decision, evaluated once per
/// trial in trial order.
bool mc_trial_fail_injected() {
    if (!failpoints::enabled()) {
        return false;
    }
    static auto& fp = failpoints::site("mc.trial_fail");
    return fp.fire();
}

/// Emit the campaign reduced so far as a resumable checkpoint through the
/// observer (no-op without a slot).  The `mc.checkpoint_drop` fail point
/// suppresses the emission — a dropped checkpoint may only cost resume
/// progress, never correctness.
void emit_mc_checkpoint(const AnalysisObserver* observer,
                        std::uint64_t base_seed, int next_trial,
                        const McOptions& normalized,
                        const McResult& partial) {
    if (observer == nullptr || !observer->on_checkpoint) {
        return;
    }
    if (failpoints::enabled()) {
        static auto& fp = failpoints::site("mc.checkpoint_drop");
        if (fp.fire()) {
            return; // lost checkpoint: resume falls back to an older one
        }
    }
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
    cp.flops = partial.flops;
    cp.rescues = partial.rescues;
    observer->checkpoint(cp);
}

/// Validate a resume checkpoint against the normalized options and
/// restore its state into `out` (ensembles, trial ledger, rescue counts,
/// flops).  Returns the trial index to continue from.  Throws
/// AnalysisError when the checkpoint describes a different campaign.
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
    out.flops = checkpoint.flops;
    return checkpoint.next_trial;
}

/// The worker loop of both ensemble drivers (run_monte_carlo and
/// run_em_ensemble).  Runs trials [first, count) on min(policy workers,
/// count - first) workers, in chunks that end on multiples of `every`
/// (0 = one chunk).  Workers claim trials in index order; each runs its
/// trials through one SystemCache for the whole campaign — worker 0
/// through `cache` when the caller passes one, every other worker
/// through a cache it builds on its first trial, outside the flop tally.
/// A cancel stops workers before they start a trial.  Per chunk, on the
/// calling thread: `prepare(begin, end)` (optional) before dispatch,
/// then, after the barrier, `reduce(begin, end)`, which returns false to
/// stop the campaign.  `trial(k, cache)` runs trial k inside a FlopScope
/// whose tally lands in flops[k], and returns false when the trial was
/// cancelled mid-way (its worker then stops); every trial that returns
/// true reports observer->trial / progress out of `count`.  Returns the
/// solver work of the caches the loop built.
SolverWork run_trials(
    const mna::MnaAssembler& assembler, std::size_t first, std::size_t count,
    std::size_t every, const runtime::ExecutionPolicy& policy,
    const AnalysisObserver* observer, mna::SystemCache* cache,
    std::span<FlopCounter> flops,
    const std::function<void(std::size_t, std::size_t)>& prepare,
    const std::function<bool(std::size_t, mna::SystemCache&)>& trial,
    const std::function<bool(std::size_t, std::size_t)>& reduce) {
    const std::size_t workers = std::min(
        static_cast<std::size_t>(policy.resolved()), count - first);
    std::vector<mna::SystemCache*> caches(workers, nullptr);
    std::vector<std::unique_ptr<mna::SystemCache>> built(workers);
    if (workers > 0) {
        caches[0] = cache;
    }
    std::atomic<std::size_t> next{0};
    std::atomic<int> done{static_cast<int>(first)};
    const int total = static_cast<int>(count);

    // Worker w claims trials below `end` in index order until none are
    // left, the run is cancelled, or its trial is cancelled mid-way.
    auto work = [&](std::size_t w, std::size_t end) {
        for (std::size_t k = next.fetch_add(1); k < end;
             k = next.fetch_add(1)) {
            if (observer != nullptr && observer->cancelled()) {
                return; // unstarted trials stay empty: skipped
            }
            if (caches[w] == nullptr) {
                // Outside the trial's flop tally: the pattern dry-run is
                // set-up, and the flops must not depend on the workers.
                built[w] = std::make_unique<mna::SystemCache>(assembler);
                caches[w] = built[w].get();
            }
            bool finished = false;
            {
                const FlopScope scope;
                finished = trial(k, *caches[w]);
                flops[k] = scope.counter();
            }
            if (!finished) {
                return;
            }
            if (observer != nullptr) {
                const int d = done.fetch_add(1) + 1;
                observer->trial(d, total);
                observer->progress(static_cast<double>(d) / total);
            }
        }
    };

    // Each chunk is a barrier: `reduce` sees a complete prefix.
    const std::size_t chunk = every > 0 ? every : count;
    std::optional<runtime::ThreadPool> pool; // declared last: joins first
    if (workers > 1) {
        pool.emplace(static_cast<int>(workers));
    }
    for (std::size_t begin = first; begin < count;) {
        const std::size_t end = std::min(count, (begin / chunk + 1) * chunk);
        if (prepare) {
            prepare(begin, end);
        }
        next.store(begin);
        if (pool) {
            runtime::parallel_for(*pool, std::min(workers, end - begin),
                                  [&](std::size_t w) { work(w, end); });
        } else {
            work(0, end);
        }
        if (!reduce(begin, end)) {
            break;
        }
        begin = end;
    }

    SolverWork solver;
    for (const auto& c : built) {
        if (c != nullptr) {
            solver += solver_work(mna::SystemCache::Stats{}, c->stats());
        }
    }
    return solver;
}

} // namespace

McResult run_monte_carlo(const mna::MnaAssembler& assembler,
                         const McOptions& options_in, std::uint64_t seed,
                         NodeId node, const runtime::ExecutionPolicy& policy,
                         const AnalysisObserver* observer,
                         mna::SystemCache* cache) {
    const McOptions options = normalize_mc_options(assembler, options_in, node);
    // One base seed, the first draw of Rng(seed); every trial's paths
    // then come from counter-derived streams of it.  A resumed campaign
    // reuses the checkpoint's base seed instead.
    const std::uint64_t base = options.resume != nullptr
                                   ? options.resume->base_seed
                                   : stochastic::Rng(seed).engine()();
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
    const auto runs = static_cast<std::size_t>(options.runs);
    std::size_t first = 0;
    if (options.resume != nullptr) {
        first = static_cast<std::size_t>(
            restore_mc_checkpoint(*options.resume, options, out));
    }

    // Trial wall-time distribution (metrics on only).
    obs::Histogram* trial_hist = nullptr;
    if (obs::metrics_enabled()) {
        static obs::Histogram& th = obs::metrics().histogram(
            "mc.trial_s", obs::time_buckets());
        trial_hist = &th;
    }

    std::vector<McTrial> trials(runs);
    std::vector<FlopCounter> flops(runs);
    auto draw_fail_points = [&](std::size_t begin, std::size_t end) {
        for (std::size_t run = begin; run < end; ++run) {
            trials[run].inject_fail = mc_trial_fail_injected();
        }
    };
    auto run_trial = [&](std::size_t run, mna::SystemCache& trial_cache) {
        McTrial& trial = trials[run];
        const obs::Span trial_span("trial", "mc");
        const auto trial_t0 = std::chrono::steady_clock::now();
        try {
            if (trial.inject_fail) {
                throw AnalysisError("fail-point mc.trial_fail fired");
            }
            mc_realization(assembler, options, noise, static_cast<int>(run),
                           node, out.grid, observer, trial_cache, trial);
        } catch (const SimError& e) {
            // Rescue ladder exhausted: quarantine the trial (seed +
            // diagnostic replay it offline) and keep going — one
            // pathological realization must not abort the campaign.
            trial.failed = true;
            trial.diagnostic = e.what();
        }
        if (trial_hist != nullptr) {
            trial_hist->observe(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    trial_t0)
                                    .count());
        }
        // Cancelled mid-trial: skipped, like unstarted.
        return trial.failed || !trial.samples.empty();
    };
    // Reduce trials [begin, end) in trial order (bit-identical for any
    // worker count), then checkpoint the reduced prefix.
    auto reduce = [&](std::size_t begin, std::size_t end) {
        for (std::size_t run = begin; run < end; ++run) {
            McTrial& trial = trials[run];
            if (trial.failed) {
                out.failed_trials.push_back(McFailedTrial{
                    static_cast<int>(run), base, std::move(trial.diagnostic)});
                out.flops += flops[run];
                continue;
            }
            if (trial.samples.empty()) { // skipped after a cancel
                out.aborted = true;
                continue;
            }
            out.stats.add_path(trial.samples);
            out.trial_steps.push_back(trial.steps_accepted);
            for (std::size_t k = 0; k < out.probes.size(); ++k) {
                out.probes[k].stats.add_path(trial.probe_samples[k]);
            }
            out.rescues += trial.rescues;
            out.flops += flops[run];
        }
        if (!out.aborted && end < runs && options.checkpoint_every > 0) {
            emit_mc_checkpoint(observer, base, static_cast<int>(end), options,
                               out);
        }
        return !out.aborted;
    };
    // Chunks end on the checkpoint boundaries, so each checkpoint
    // snapshots a reduced prefix whatever the worker count.
    out.solver = run_trials(
        assembler, first, runs,
        static_cast<std::size_t>(std::max(options.checkpoint_every, 0)),
        policy, observer, cache, flops, draw_fail_points, run_trial, reduce);

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
    return out;
}

EmEnsembleResult run_em_ensemble(const EmEngine& engine, int num_paths,
                                 std::uint64_t seed, NodeId node,
                                 const runtime::ExecutionPolicy& policy,
                                 const AnalysisObserver* observer,
                                 mna::SystemCache* cache) {
    const mna::MnaAssembler& assembler = *engine.assembler_;
    if (num_paths < 1) {
        throw AnalysisError("run_em_ensemble: need >= 1 path");
    }
    if (node == k_ground || node > assembler.num_nodes()) {
        throw AnalysisError("run_em_ensemble: bad node");
    }
    const std::size_t steps = engine.steps();
    const double dt = engine.options_.t_stop / static_cast<double>(steps);

    EmEnsembleResult out{.grid = {},
                         .mean = analysis::Waveform("mean"),
                         .stddev = analysis::Waveform("stddev"),
                         .stats = stochastic::EnsembleStats(steps + 1),
                         .aborted = false,
                         .flops = {},
                         .solver = {}};
    out.grid.resize(steps + 1);
    for (std::size_t j = 0; j <= steps; ++j) {
        out.grid[j] = dt * static_cast<double>(j);
    }

    std::optional<mna::SystemCache> local_cache;
    if (cache == nullptr) {
        cache = &local_cache.emplace(assembler);
    }
    linalg::Vector x0;
    {
        const FlopScope scope;
        x0 = engine.initial_state(*cache);
        out.flops += scope.counter();
    }

    const stochastic::SeedSequence seq(seed);
    const auto paths = static_cast<std::size_t>(num_paths);
    const auto row = static_cast<std::size_t>(node - 1);
    std::vector<std::vector<double>> samples(paths);
    std::vector<FlopCounter> flops(paths);
    auto run_path = [&](std::size_t p, mna::SystemCache& path_cache) {
        const obs::Span trial_span("trial", "em");
        stochastic::Rng rng = seq.stream(p);
        std::vector<double>& s = samples[p];
        s.reserve(steps + 1);
        engine.integrate(engine.draw_paths(rng), x0, path_cache,
                         [&s, row](double, const linalg::Vector& x) {
                             s.push_back(x[row]);
                         });
        return true;
    };
    auto reduce = [&](std::size_t begin, std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
            if (samples[p].empty()) { // skipped after a cancel
                out.aborted = true;
                continue;
            }
            out.stats.add_path(samples[p]);
            out.flops += flops[p];
        }
        return !out.aborted;
    };
    out.solver = run_trials(assembler, 0, paths, 0, policy, observer, cache,
                            flops, {}, run_path, reduce);
    if (local_cache) {
        out.solver +=
            solver_work(mna::SystemCache::Stats{}, local_cache->stats());
    }

    for (std::size_t j = 0; j <= steps; ++j) {
        out.mean.append(out.grid[j], out.stats.at(j).mean());
        out.stddev.append(out.grid[j], out.stats.at(j).stddev());
    }
    return out;
}

} // namespace nanosim::engines
