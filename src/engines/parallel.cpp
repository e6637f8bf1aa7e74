#include "engines/parallel.hpp"

#include <atomic>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "stochastic/seed_sequence.hpp"
#include "util/error.hpp"

namespace nanosim::engines {

namespace {

/// One path's samples and flops.  Flop tallies are thread-local, so each
/// path measures itself and the reduction sums in path order — the
/// totals are scheduling-independent.
struct JobSample {
    std::vector<double> samples;
    FlopCounter flops;
};

/// Shared progress state: a completion counter the workers bump, with the
/// observer's (thread-safe) hooks invoked on the worker that finishes
/// each path.
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
