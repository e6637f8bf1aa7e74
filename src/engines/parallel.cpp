#include "engines/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "mna/system_cache.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "stochastic/seed_sequence.hpp"
#include "util/error.hpp"

namespace nanosim::engines {

namespace {

/// Flop tallies are thread-local, so each job measures itself and the
/// reduction sums in job order — the totals are scheduling-independent.
struct JobSample {
    std::vector<double> samples;
    std::vector<std::vector<double>> probe_samples;
    int steps_accepted = 0;
    FlopCounter flops;
    obs::RescueCounts rescues;
    SolverWork solver; ///< the trial's own SystemCache (MC only)
    /// mc.trial_fail decision, pre-evaluated in trial order before
    /// dispatch so the armed site hits the same trials as the serial
    /// driver regardless of worker scheduling.
    bool inject_fail = false;
    bool failed = false; ///< rescue ladder exhausted — quarantined
    std::string diagnostic;
};

/// Shared progress state for the parallel drivers: a completion counter
/// the workers bump, with the observer's (thread-safe) hooks invoked on
/// the worker that finishes each trial.
struct ParallelProgress {
    const AnalysisObserver* observer = nullptr;
    std::atomic<int> done{0};
    int total = 0;

    [[nodiscard]] bool cancelled() const {
        return observer != nullptr && observer->cancelled();
    }
    void completed() {
        const int k = done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (observer != nullptr) {
            observer->trial(k, total);
            observer->progress(static_cast<double>(k) / total);
        }
    }
};

} // namespace

McResult run_monte_carlo_parallel(const mna::MnaAssembler& assembler,
                                  const McOptions& options_in,
                                  std::uint64_t seed, NodeId node,
                                  const runtime::ExecutionPolicy& policy,
                                  const AnalysisObserver* observer) {
    const McOptions options = normalize_mc_options(assembler, options_in, node);

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

    // Same base-seed derivation as the serial driver (which draws it
    // from the caller's Rng): one shared path set makes serial and
    // parallel runs consume identical noise per trial.  A
    // resumed campaign reuses the checkpoint's base seed instead.
    stochastic::Rng seeder(seed);
    const std::uint64_t base = options.resume != nullptr
                                   ? options.resume->base_seed
                                   : seeder.engine()();
    const stochastic::NoisePathSet noise =
        mc_noise_paths(assembler, options, base);

    // Resume: restore the accumulators, seed the flop tally from the
    // checkpoint, and only dispatch the remaining trials.
    int first = 0;
    if (options.resume != nullptr) {
        first = restore_mc_checkpoint(*options.resume, options, out);
        out.flops = options.resume->flops;
    }

    const auto runs = static_cast<std::size_t>(options.runs);
    std::vector<JobSample> jobs(runs);
    ParallelProgress progress{.observer = observer, .total = options.runs};
    progress.done.store(first, std::memory_order_relaxed);
    runtime::ThreadPool pool(policy.resolved());

    // Reduce a completed chunk in realization order: bit-identical for
    // any thread count.
    auto reduce = [&](std::size_t begin, std::size_t end) {
        for (std::size_t run = begin; run < end; ++run) {
            JobSample& job = jobs[run];
            out.solver += job.solver;
            if (job.failed) {
                out.failed_trials.push_back(McFailedTrial{
                    static_cast<int>(run), base, std::move(job.diagnostic)});
                out.flops += job.flops;
                continue;
            }
            if (job.samples.empty()) { // skipped after a cancel
                out.aborted = true;
                continue;
            }
            out.stats.add_path(job.samples);
            out.trial_steps.push_back(job.steps_accepted);
            for (std::size_t k = 0; k < out.probes.size(); ++k) {
                out.probes[k].stats.add_path(job.probe_samples[k]);
            }
            out.rescues += job.rescues;
            out.flops += job.flops;
        }
    };

    auto run_chunk = [&](std::size_t begin, std::size_t end) {
        // Pre-evaluate the admission fail point serially, in trial
        // order (see JobSample::inject_fail).
        for (std::size_t run = begin; run < end; ++run) {
            jobs[run].inject_fail = mc_trial_fail_injected();
        }
        runtime::parallel_for(pool, end - begin, [&](std::size_t i) {
            const std::size_t run = begin + i;
            if (progress.cancelled()) {
                return; // leave the job's samples empty — skipped
            }
            const obs::Span trial_span("trial", "mc");
            const FlopScope scope;
            // One cache per trial: its DC operating point and transient
            // share one symbolic analysis, as on the serial driver, and
            // its work is the trial's own whatever the scheduling.
            std::optional<mna::SystemCache> cache;
            try {
                if (jobs[run].inject_fail) {
                    throw AnalysisError("fail-point mc.trial_fail fired");
                }
                cache.emplace(assembler);
                // The observer forwards cancellation into the trial's
                // transient, exactly as in the serial driver.
                McTrial trial = mc_realization(assembler, options, noise,
                                               static_cast<int>(run), node,
                                               out.grid, observer, &*cache);
                if (trial.samples.empty()) {
                    return; // cancelled mid-trial: skipped, like unstarted
                }
                jobs[run].samples = std::move(trial.samples);
                jobs[run].probe_samples = std::move(trial.probe_samples);
                jobs[run].steps_accepted = trial.steps_accepted;
                jobs[run].rescues = trial.rescues;
            } catch (const SimError& e) {
                jobs[run].failed = true;
                jobs[run].diagnostic = e.what();
            }
            if (cache) {
                jobs[run].solver =
                    solver_work(mna::SystemCache::Stats{}, cache->stats());
            }
            jobs[run].flops = scope.counter();
            progress.completed();
        });
        reduce(begin, end);
    };

    if (options.checkpoint_every > 0) {
        // Chunk at the checkpoint cadence: each chunk is a barrier, the
        // reduced prefix is snapshotted, and the checkpoint matches the
        // serial driver's at the same boundary field for field.
        const auto every = static_cast<std::size_t>(options.checkpoint_every);
        for (std::size_t begin = static_cast<std::size_t>(first);
             begin < runs; begin += every) {
            const std::size_t end = std::min(runs, begin + every);
            run_chunk(begin, end);
            if (out.aborted || end == runs) {
                break;
            }
            emit_mc_checkpoint(observer, base, static_cast<int>(end),
                               options, out, out.flops);
        }
    } else {
        run_chunk(static_cast<std::size_t>(first), runs);
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
    return out;
}

EmEnsembleResult run_em_ensemble_parallel(const EmEngine& engine,
                                          int num_paths, std::uint64_t seed,
                                          NodeId node,
                                          const runtime::ExecutionPolicy& policy,
                                          const AnalysisObserver* observer) {
    if (num_paths < 1) {
        throw AnalysisError("run_em_ensemble_parallel: need >= 1 path");
    }
    if (node == k_ground) {
        throw AnalysisError("run_em_ensemble_parallel: bad node");
    }
    const std::size_t steps = engine.steps();
    const double dt =
        engine.options().t_stop / static_cast<double>(steps);

    EmEnsembleResult out{.grid = {},
                         .mean = analysis::Waveform("mean"),
                         .stddev = analysis::Waveform("stddev"),
                         .stats = stochastic::EnsembleStats(steps + 1),
                         .aborted = false,
                         .flops = {}};
    out.grid.resize(steps + 1);
    for (std::size_t j = 0; j <= steps; ++j) {
        out.grid[j] = dt * static_cast<double>(j);
    }

    const stochastic::SeedSequence seq(seed);
    const auto paths = static_cast<std::size_t>(num_paths);
    const auto node_idx = static_cast<std::size_t>(node - 1);
    std::vector<JobSample> jobs(paths);
    ParallelProgress progress{.observer = observer, .total = num_paths};

    runtime::ThreadPool pool(policy.resolved());
    runtime::parallel_for(pool, paths, [&](std::size_t p) {
        if (progress.cancelled()) {
            return; // leave the job's samples empty — skipped in reduce
        }
        const obs::Span trial_span("trial", "em");
        stochastic::Rng rng = seq.stream(p);
        const EmPathResult path = engine.run_path(rng);
        if (node_idx >= path.node_waves.size()) {
            throw AnalysisError("run_em_ensemble_parallel: bad node");
        }
        const auto& w = path.node_waves[node_idx];
        jobs[p].samples.resize(steps + 1);
        for (std::size_t j = 0; j <= steps; ++j) {
            jobs[p].samples[j] = w.value_at(j);
        }
        jobs[p].flops = path.flops;
        progress.completed();
    });

    for (auto& job : jobs) {
        if (job.samples.empty()) { // skipped after a cancel
            out.aborted = true;
            continue;
        }
        out.stats.add_path(job.samples);
        out.flops += job.flops;
    }
    for (std::size_t j = 0; j <= steps; ++j) {
        out.mean.append(out.grid[j], out.stats.at(j).mean());
        out.stddev.append(out.grid[j], out.stats.at(j).stddev());
    }
    return out;
}

} // namespace nanosim::engines
