// nanosim perfbench — mesh_mc: a Monte-Carlo campaign on a 32x32 RC mesh
// with an RTD at every node and a white-noise current at the centre
// (n16_16), run twice per iteration through SimSession: once on the
// trial-parallel driver with N workers and once on the default
// single-thread driver.
//
// Why: on the single-thread driver the sparse factor is well over half
// of the time and device evaluation about a quarter; one-MC-driver and
// stale-factor-reuse work acts here.  No parse and no service.
//
// The seed is the campaign's MC seed.  Checks: the two drivers agree bit
// for bit, repeated campaigns agree bit for bit, no trial is quarantined,
// mean and stddev sit within 4 sigma / sqrt(N) of a committed reference
// campaign run with a different seed (at t_stop; 6 sigma / sqrt(N) at the
// other grid points), and the pooled variance has not collapsed.  The
// pulse drive starts after t_stop, so the response is the noise alone:
// its mean is ~0 and the stddev checks are the ones that see the noise.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "devices/sources.hpp"
#include "engines/monte_carlo.hpp"

namespace perfbench {
namespace {

using namespace nanosim;

constexpr int k_rows = 32;
constexpr int k_cols = 32;
constexpr const char* k_node = "n16_16";
constexpr double k_sigma = 1e-9;   ///< noise intensity [A sqrt(s)]
constexpr double k_t_stop = 2e-9;
constexpr int k_trials = 4;
/// Set-ups timed after each iteration, so the set-up median samples the
/// whole run rather than a burst at its start.
constexpr int k_setups_per_iteration = 2;
/// The pooled variance ratio mean(sd^2 / sigma_ref^2) over the grid must
/// reach this: a campaign whose noise vanished (sd ~ 0) reads ~0, while an
/// honest 4-trial campaign falls below it with probability < 1e-3 (the
/// single-point chi-square(3)/3 tail at 0.01; pooling only lowers it).
constexpr double k_min_variance_ratio = 0.01;
constexpr int k_ref_trials = 512;
constexpr std::uint64_t k_ref_seed = 0xC0FFEE;
constexpr const char* k_ref_file = "mesh_mc_n16_16.csv";

Circuit mesh_circuit() {
    refckt::MeshSpec ms;
    ms.rows = k_rows;
    ms.cols = k_cols;
    ms.rtd_stride = 1;
    Circuit c = refckt::rc_mesh(ms);
    c.add<NoiseCurrentSource>("NOISE1", k_ground, c.find_node(k_node),
                              k_sigma);
    return c;
}

MonteCarloSpec campaign(std::uint64_t seed, int runs) {
    MonteCarloSpec spec;
    spec.node = k_node;
    spec.t_stop = k_t_stop;
    spec.runs = runs;
    spec.seed = seed;
    return spec;
}

bool same_stats(const engines::McResult& a, const engines::McResult& b) {
    return a.mean.value() == b.mean.value() &&
           a.stddev.value() == b.stddev.value() &&
           a.trial_steps == b.trial_steps;
}

} // namespace

Outcome run_mesh_mc(const Config& cfg) {
    Outcome out;
    const auto ref = read_csv(cfg.ref_dir + "/" + k_ref_file, 3);

    set_tracing(cfg.trace);
    std::vector<double> setup;
    auto set_up = [&] {
        const auto t0 = Clock::now();
        std::unique_ptr<SimSession> fresh;
        {
            const Span span("perfbench", "setup");
            Circuit circuit;
            {
                const Span s("core", "refckt::rc_mesh");
                circuit = mesh_circuit();
            }
            {
                const Span s("core", "SimSession()");
                fresh = std::make_unique<SimSession>(std::move(circuit));
            }
            {
                const Span s("mna", "SimSession::solver_cache");
                (void)fresh->solver_cache();
            }
        }
        setup.push_back(seconds_since(t0));
        return fresh;
    };
    const std::unique_ptr<SimSession> session = set_up();

    const MonteCarloSpec serial = campaign(cfg.seed, k_trials);
    MonteCarloSpec parallel = serial;
    parallel.parallel = true;
    parallel.threads = cfg.workers;

    std::vector<double> wall_par;
    std::vector<double> wall_ser;
    std::vector<double> cpu_par;
    std::vector<double> trial_gaps;
    std::vector<double> max_dev;
    std::unique_ptr<AnalysisResult> first;
    AnalysisResult last_serial;
    int iteration = 0;

    auto check = [&](const AnalysisResult& r, const char* driver) {
        const engines::McResult& mc = r.monte_carlo();
        out.attempted += k_trials;
        if (!mc.failed_trials.empty()) {
            out.fail_check(std::string("mesh_mc: ") + driver + " quarantined " +
                               std::to_string(mc.failed_trials.size()) +
                               " trials",
                           mc.failed_trials.size());
        }
        if (first == nullptr) {
            first = std::make_unique<AnalysisResult>(r);
            const auto& mean = mc.mean.value();
            const auto& sd = mc.stddev.value();
            if (mean.size() != ref[0].size() || mc.grid.size() != ref[0].size()) {
                out.fail_check("mesh_mc: statistics grid differs from the "
                               "reference", k_trials);
                return;
            }
            // Strict at t_stop (4 sigma / sqrt(N)); loose at every other
            // grid point (6 sigma / sqrt(N)), because the max over 201
            // correlated points of a 4-sigma test would fail on ~1% of
            // seeds by chance.
            const double n = k_trials;
            double worst = 0.0;
            double variance_ratio = 0.0;
            int noisy_points = 0;
            for (std::size_t i = 0; i < mean.size(); ++i) {
                const double k = i + 1 == mean.size() ? 4.0 : 6.0;
                const double sigma = ref[2][i];
                if (sigma > 0.0) {
                    variance_ratio += (sd[i] * sd[i]) / (sigma * sigma);
                    ++noisy_points;
                }
                const double tol_mean =
                    k * sigma * std::sqrt(1.0 / n + 1.0 / k_ref_trials) + 1e-12;
                const double tol_sd = k * sigma / std::sqrt(n) + 1e-12;
                worst = std::max({worst,
                                  std::abs(mean[i] - ref[1][i]) / tol_mean,
                                  std::abs(sd[i] - sigma) / tol_sd});
            }
            max_dev.push_back(worst);
            if (!(worst <= 1.0)) {
                out.fail_check("mesh_mc: mean/stddev outside the reference "
                               "band (worst " +
                                   std::to_string(worst) + " of the band)",
                               k_trials);
            }
            variance_ratio /= std::max(noisy_points, 1);
            out.extra.set("variance_ratio", variance_ratio, "ratio");
            if (!(variance_ratio >= k_min_variance_ratio)) {
                out.fail_check("mesh_mc: stddev collapsed (pooled "
                               "sd^2/sigma_ref^2 " +
                                   std::to_string(variance_ratio) + " < " +
                                   std::to_string(k_min_variance_ratio) + ")",
                               k_trials);
            }
        } else if (!same_stats(mc, first->monte_carlo())) {
            out.fail_check(std::string("mesh_mc: ") + driver +
                               " campaign not bit-identical to the first",
                           k_trials);
        }
    };

    auto run_parallel = [&] {
        const auto t0 = Clock::now();
        const double c0 = cpu_seconds();
        AnalysisResult r;
        {
            const Span span("core", "SimSession::run(mc parallel)");
            r = session->run(parallel);
        }
        cpu_par.push_back(cpu_seconds() - c0);
        wall_par.push_back(seconds_since(t0));
        check(r, "parallel");
    };
    auto run_serial = [&] {
        engines::AnalysisObserver observer;
        Clock::time_point prev = Clock::now();
        if (tracing()) {
            observer.on_trial = [&](int, int) {
                const auto now = Clock::now();
                trial_gaps.push_back(
                    std::chrono::duration<double>(now - prev).count());
                prev = now;
            };
        }
        const auto t0 = Clock::now();
        {
            const Span span("core", "SimSession::run(mc serial)");
            last_serial = session->run(serial, &observer);
        }
        wall_ser.push_back(seconds_since(t0));
        check(last_serial, "serial");
    };
    // One iteration = both campaigns; alternate which runs first so
    // neither always sees the other's cache state.
    auto unit = [&] {
        if (iteration++ % 2 == 0) {
            run_parallel();
            run_serial();
        } else {
            run_serial();
            run_parallel();
        }
        for (int k = 0; k < k_setups_per_iteration; ++k) {
            (void)set_up();
        }
    };

    double untraced_wall = 0.0;
    if (cfg.trace) {
        set_tracing(false);
        run_for(cfg.seconds * k_untraced_share, 1, unit);
        untraced_wall = median(wall_par);
        wall_par.clear();
        wall_ser.clear();
        cpu_par.clear();
        set_tracing(true);
    }
    run_for(
        cfg.trace ? cfg.seconds * (1.0 - k_untraced_share) : cfg.seconds, 2,
        unit);

    const double wall = median(wall_par);
    const double wall_1t = median(wall_ser);
    out.e2e.set("setup_s", median(setup), "s");
    out.e2e.set("wall_s", wall, "s");
    out.e2e.set("wall_1t_s", wall_1t, "s");
    out.e2e.set("cpu_s", median(cpu_par), "s");
    out.extra.set("campaigns", static_cast<double>(wall_par.size()), "count");
    out.extra.set("ref_band_use", median(max_dev), "ratio");

    if (cfg.trace) {
        Metrics& l = out.layer;
        const obs::RunReport& rep = last_serial.report;
        const engines::McResult& mc = last_serial.monte_carlo();
        l.set("core.session_build_s",
              median(span_durations("core", "SimSession()")), "s");
        report_run(rep, mc.flops, 1.0, l);
        // An MC report carries no step counts; the trials' own do.
        double steps = 0.0;
        for (const int s : mc.trial_steps) {
            steps += s;
        }
        l.set("engines.steps", steps, "count");
        l.set("engines.trial_p50_s", quantile(trial_gaps, 0.5), "s");
        l.set("engines.trial_p90_s", quantile(trial_gaps, 0.9), "s");
        l.set("engines.worker_util",
              median(cpu_par) / (cfg.workers * wall), "ratio");
        l.set("engines.mc_speedup", wall_1t / wall, "ratio");
        l.set("obs.trace_overhead_frac", wall / untraced_wall - 1.0, "ratio");

        // stochastic: one noise path of the campaign's own set.
        const mna::MnaAssembler& assembler = session->assembler();
        const NodeId node = session->circuit().find_node(k_node);
        engines::McOptions opts;
        opts.runs = k_trials;
        opts.t_stop = k_t_stop;
        const engines::McOptions norm =
            engines::normalize_mc_options(assembler, opts, node);
        const stochastic::NoisePathSet paths =
            engines::mc_noise_paths(assembler, norm, cfg.seed);
        int trial = 0;
        l.set("stochastic.noise_paths_us",
              per_call_us("stochastic", "NoisePathSet::samples", 100, 0.3,
                          [&] { (void)paths.samples(trial++, 0); }),
              "us");

        const AnalysisResult op = session->run(OpSpec{});
        const double h = k_t_stop / (steps / k_trials);
        report_probe(probe_layers(assembler, op.dc().x, h, 2.0), l);
    }
    set_tracing(false);
    return out;
}

void make_mesh_reference(const Config& cfg) {
    SimSession session(mesh_circuit());
    MonteCarloSpec spec = campaign(k_ref_seed, k_ref_trials);
    spec.parallel = true;
    spec.threads = cfg.workers;
    const AnalysisResult r = session.run(spec);
    const engines::McResult& mc = r.monte_carlo();
    if (!mc.failed_trials.empty()) {
        throw std::runtime_error("reference campaign quarantined trials");
    }
    const std::string path = cfg.ref_dir + "/" + k_ref_file;
    std::ofstream f(path);
    f << "# mesh_mc reference: mean and stddev of v(" << k_node << ") over "
      << k_ref_trials << " trials, MC seed " << k_ref_seed << ", "
      << k_rows << "x" << k_cols << " RTD mesh, sigma " << k_sigma
      << " A sqrt(s), t_stop " << k_t_stop << " s\n"
      << "t,mean,stddev\n";
    char line[96];
    for (std::size_t i = 0; i < mc.grid.size(); ++i) {
        std::snprintf(line, sizeof line, "%.17g,%.17g,%.17g\n", mc.grid[i],
                      mc.mean.value()[i], mc.stddev.value()[i]);
        f << line;
    }
    if (!f) {
        throw std::runtime_error("cannot write " + path);
    }
    std::printf("wrote %s (%.1f s)\n", path.c_str(), r.header.elapsed_s);
}

} // namespace perfbench
