// Stale-factor reuse in mna::SystemCache: the sparse path solves with the
// last exact LU and refines x += LU^-1 (b - A x) until the componentwise
// backward error reaches k_refine_tol, falling back to an exact refactor
// when a sweep fails to contract, the budget runs out, or the residual is
// not finite.  Reuse is armed only where a refactor costs at least
// k_refine_sweeps sweeps.
//
//  * Where it engages (>= 20x20 RTD meshes, 32x32 power grid), transients
//    and a noisy mesh Monte-Carlo stay within 1e-9 * max|exact| of the
//    exact path (Options::reuse_factor = false, the reference), and a
//    mesh campaign takes at most 1.1 sweeps per reused factor.
//  * Where the gate keeps it off (RTD chain, 12x12 mesh, dense inverter)
//    the output is bit-identical to the exact path with nothing skipped.
//  * With reuse engaged, Monte-Carlo at 1, 2 and 4 workers and
//    checkpoint/resume stay bit-identical: every engine run starts from
//    an exact factor.
//  * A large value jump falls back to an exact refactor bit-identical to
//    the reference; NaN and singular matrices reach the exact path's
//    diagnosis, and the engine rescue ladder runs the same rungs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "devices/sources.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/observer.hpp"
#include "engines/tran_swec.hpp"
#include "linalg/vecops.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"

namespace nanosim {
namespace {

using linalg::Vector;

mna::SystemCache::Options exact_path() {
    mna::SystemCache::Options opt;
    opt.reuse_factor = false;
    return opt;
}

/// RTD at every node, like the mesh_mc benchmark fabric.
Circuit rtd_mesh(int k) {
    refckt::MeshSpec spec;
    spec.rows = k;
    spec.cols = k;
    spec.rtd_stride = 1;
    return refckt::rc_mesh(spec);
}

Circuit noisy_rtd_mesh(int k) {
    Circuit ckt = rtd_mesh(k);
    const std::string centre =
        "n" + std::to_string(k / 2) + "_" + std::to_string(k / 2);
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node(centre),
                                1e-9);
    return ckt;
}

bool bit_identical(const std::vector<double>& a,
                   const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// max |reuse - exact| <= 1e-9 * max |exact| per waveform, read at the
/// exact path's time points.  The adaptive step sizes depend on x, so the
/// two grids may differ in the last bits; the step count may not.
void expect_within_gate(const analysis::Waveform& exact,
                        const analysis::Waveform& reuse) {
    ASSERT_EQ(reuse.size(), exact.size()) << exact.label();
    double peak = 0.0;
    double dev = 0.0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
        const double t = exact.time()[i];
        EXPECT_LE(std::abs(reuse.time()[i] - t), 1e-9 * exact.time().back());
        peak = std::max(peak, std::abs(exact.value()[i]));
        dev = std::max(dev, std::abs(reuse.at(t) - exact.value()[i]));
    }
    EXPECT_LE(dev, 1e-9 * peak) << exact.label();
}

/// Every solve() of a healthy run lands in exactly one counter.
void expect_counter_algebra(const mna::SystemCache::Stats& s) {
    EXPECT_EQ(s.steps, s.full_factors + s.fast_refactors +
                           s.refactors_skipped + s.dense_solves +
                           s.pattern_rebuilds);
}

/// A transient plus the stats of the fresh cache it ran on.
struct TranRun : engines::TranResult {
    mna::SystemCache::Stats solver;
};

TranRun tran_on(const mna::MnaAssembler& assembler,
                mna::SystemCache::Options options, double t_stop) {
    mna::SystemCache cache(assembler, options);
    engines::SwecTranOptions opt;
    opt.t_stop = t_stop;
    return {engines::run_tran_swec(assembler, opt, nullptr, &cache),
            cache.stats()};
}

// ---- reuse vs the exact path where the gate engages --------------------

// The mesh drive pulse rises from 50 ns to 55 ns; the runs cover its edge.
constexpr double k_after_edge = 56e-9;

void expect_transient_within_gate(const Circuit& ckt, double t_stop) {
    const mna::MnaAssembler assembler(ckt);
    const TranRun exact = tran_on(assembler, exact_path(), t_stop);
    const TranRun reuse = tran_on(assembler, {}, t_stop);

    EXPECT_EQ(exact.solver.refactors_skipped, 0U);
    EXPECT_GT(reuse.solver.refactors_skipped, 0U);
    EXPECT_GT(reuse.solver.max_backward_error, 0.0);
    EXPECT_LE(reuse.solver.max_backward_error,
              mna::SystemCache::k_refine_tol);
    // Reuse replaces refactors; it never adds full factorisations.
    EXPECT_LE(reuse.solver.full_factors, exact.solver.full_factors);
    EXPECT_EQ(reuse.steps_accepted, exact.steps_accepted);
    ASSERT_EQ(reuse.node_waves.size(), exact.node_waves.size());
    for (std::size_t w = 0; w < exact.node_waves.size(); ++w) {
        expect_within_gate(exact.node_waves[w], reuse.node_waves[w]);
    }
}

TEST(FactorReuse, Mesh24TransientMatchesExactPath) {
    expect_transient_within_gate(rtd_mesh(24), k_after_edge);
}

TEST(FactorReuse, Mesh32TransientMatchesExactPath) {
    expect_transient_within_gate(rtd_mesh(32), k_after_edge);
}

TEST(FactorReuse, PowerGrid32TransientMatchesExactPath) {
    expect_transient_within_gate(refckt::power_grid(32, 32, 4), 20e-9);
}

engines::McOptions mesh_mc(int runs) {
    engines::McOptions mc;
    mc.runs = runs;
    mc.t_stop = 2e-9;
    mc.noise_dt = 1e-10;
    mc.grid_points = 21;
    return mc;
}

TEST(FactorReuse, NoisyMeshMonteCarloMatchesExactPath) {
    const Circuit ckt = noisy_rtd_mesh(24);
    const mna::MnaAssembler assembler(ckt);
    const NodeId node = ckt.find_node("n12_12");

    const auto campaign = [&](mna::SystemCache& cache) {
        return engines::run_monte_carlo(assembler, mesh_mc(3), 5, node,
                                        runtime::ExecutionPolicy{1},
                                        nullptr, &cache);
    };
    mna::SystemCache exact_cache(assembler, exact_path());
    mna::SystemCache reuse_cache(assembler);
    const engines::McResult exact = campaign(exact_cache);
    const engines::McResult reuse = campaign(reuse_cache);

    EXPECT_EQ(exact_cache.stats().refactors_skipped, 0U);
    EXPECT_GT(reuse_cache.stats().refactors_skipped, 0U);
    expect_counter_algebra(exact_cache.stats());
    expect_counter_algebra(reuse_cache.stats());
    EXPECT_EQ(reuse.trial_steps, exact.trial_steps);
    EXPECT_TRUE(reuse.failed_trials.empty());
    expect_within_gate(exact.mean, reuse.mean);
    expect_within_gate(exact.stddev, reuse.stddev);
}

TEST(FactorReuse, MonteCarloRefinesAboutOncePerSkippedRefactor) {
    // The stopping test asks for the backward error the step's data can
    // carry, not for machine precision, so a reused factor answers most
    // solves with at most one correction sweep.
    SimSession session(noisy_rtd_mesh(24));
    MonteCarloSpec spec;
    spec.node = "n12_12";
    spec.t_stop = 2e-9;
    spec.runs = 4;
    spec.seed = 11;
    const obs::RunReport report = session.run(spec).report;
    ASSERT_GT(report.refactors_skipped, 0U);
    EXPECT_LE(static_cast<double>(report.refine_sweeps),
              1.1 * static_cast<double>(report.refactors_skipped));
    EXPECT_LE(report.max_backward_error, mna::SystemCache::k_refine_tol);
}

// ---- the gate keeps small and banded systems on the exact path ----------

void expect_bit_identical_to_exact(const Circuit& ckt, double t_stop) {
    const mna::MnaAssembler assembler(ckt);
    const TranRun exact = tran_on(assembler, exact_path(), t_stop);
    const TranRun reuse = tran_on(assembler, {}, t_stop);

    EXPECT_EQ(reuse.solver.refactors_skipped, 0U);
    EXPECT_EQ(reuse.solver.refine_sweeps, 0U);
    EXPECT_EQ(reuse.solver.max_backward_error, 0.0);
    EXPECT_EQ(reuse.solver.full_factors, exact.solver.full_factors);
    EXPECT_EQ(reuse.solver.fast_refactors, exact.solver.fast_refactors);
    EXPECT_EQ(reuse.solver.dense_solves, exact.solver.dense_solves);
    EXPECT_EQ(reuse.flops.total(), exact.flops.total());
    ASSERT_EQ(reuse.node_waves.size(), exact.node_waves.size());
    for (std::size_t w = 0; w < exact.node_waves.size(); ++w) {
        EXPECT_TRUE(bit_identical(reuse.node_waves[w].time(),
                                  exact.node_waves[w].time()));
        EXPECT_TRUE(bit_identical(reuse.node_waves[w].value(),
                                  exact.node_waves[w].value()))
            << exact.node_waves[w].label();
    }
}

TEST(FactorReuse, GateOffRtdChainIsBitIdentical) {
    refckt::ChainSpec spec;
    spec.stages = 100;
    expect_bit_identical_to_exact(refckt::rtd_chain(spec), k_after_edge);
}

TEST(FactorReuse, GateOffMesh12IsBitIdentical) {
    expect_bit_identical_to_exact(refckt::rc_mesh(12, 12), k_after_edge);
}

TEST(FactorReuse, GateOffDenseInverterIsBitIdentical) {
    expect_bit_identical_to_exact(refckt::fet_rtd_inverter(), k_after_edge);
}

// ---- run-start exact factor: driver and resume identities ---------------

TEST(FactorReuse, SerialAndParallelMonteCarloAreBitIdentical) {
    // Through SimSession: the serial campaign runs on the session cache,
    // the parallel one on it and on one cache for its second worker.  The
    // report of the parallel campaign adds that worker's cache.
    SimSession session(noisy_rtd_mesh(24));
    MonteCarloSpec spec;
    spec.node = "n12_12";
    spec.t_stop = 2e-9;
    spec.runs = 4;
    spec.noise_dt = 1e-10;
    spec.grid_points = 21;
    spec.seed = 11;
    const AnalysisResult serial = session.run(spec);
    spec.parallel = true;
    spec.threads = 2;
    const AnalysisResult parallel = session.run(spec);

    const engines::McResult& a = serial.monte_carlo();
    const engines::McResult& b = parallel.monte_carlo();
    EXPECT_EQ(a.trial_steps, b.trial_steps);
    EXPECT_TRUE(bit_identical(a.mean.value(), b.mean.value()));
    EXPECT_TRUE(bit_identical(a.stddev.value(), b.stddev.value()));

    // The same solve sequence per trial: only the second worker's cache
    // factors from scratch, once for the campaign.
    const obs::RunReport& s = serial.report;
    const obs::RunReport& p = parallel.report;
    ASSERT_GT(s.refactors_skipped, 0U);
    EXPECT_EQ(p.refactors_skipped, s.refactors_skipped);
    EXPECT_EQ(p.refine_sweeps, s.refine_sweeps);
    EXPECT_EQ(p.max_backward_error, s.max_backward_error);
    EXPECT_LE(p.full_factors, static_cast<std::uint64_t>(spec.threads));
    EXPECT_EQ(p.full_factors + p.fast_refactors,
              s.full_factors + s.fast_refactors);
    EXPECT_GT(p.factor_s, 0.0);
    EXPECT_GT(p.solve_s, 0.0);
    EXPECT_GT(p.eval_s, 0.0);
}

/// One campaign per worker count on one session: worker 0 runs on the
/// session cache, every other worker on a cache it builds once.  Only
/// the split between full and fast refactors may follow the scheduling.
void expect_identical_across_workers(Circuit ckt, const std::string& node) {
    SimSession session(std::move(ckt));
    MonteCarloSpec spec;
    spec.node = node;
    spec.t_stop = 2e-9;
    spec.runs = 4;
    spec.noise_dt = 1e-10;
    spec.grid_points = 21;
    spec.parallel = true;
    spec.threads = 1;
    const AnalysisResult one = session.run(spec);
    const engines::McResult& a = one.monte_carlo();
    const obs::RunReport& s = one.report;
    ASSERT_EQ(a.stats.paths(), 4U);
    ASSERT_GT(s.refactors_skipped, 0U);
    EXPECT_LE(s.full_factors, 1U);
    for (const int workers : {2, 4}) {
        spec.threads = workers;
        const AnalysisResult wide = session.run(spec);
        const engines::McResult& b = wide.monte_carlo();
        const obs::RunReport& p = wide.report;
        EXPECT_EQ(a.trial_steps, b.trial_steps) << workers;
        EXPECT_TRUE(bit_identical(a.mean.value(), b.mean.value())) << workers;
        EXPECT_TRUE(bit_identical(a.stddev.value(), b.stddev.value()))
            << workers;
        EXPECT_EQ(a.flops.total(), b.flops.total()) << workers;
        EXPECT_EQ(a.flops.lu_factor, b.flops.lu_factor) << workers;
        EXPECT_EQ(a.flops.lu_solve, b.flops.lu_solve) << workers;
        EXPECT_EQ(p.refactors_skipped, s.refactors_skipped) << workers;
        EXPECT_EQ(p.refine_sweeps, s.refine_sweeps) << workers;
        EXPECT_EQ(p.max_backward_error, s.max_backward_error) << workers;
        EXPECT_EQ(p.full_factors + p.fast_refactors,
                  s.full_factors + s.fast_refactors)
            << workers;
        EXPECT_LE(p.full_factors, static_cast<std::uint64_t>(workers));
    }
}

TEST(FactorReuse, RtdMesh24MonteCarloIdenticalAcrossWorkerCounts) {
    expect_identical_across_workers(noisy_rtd_mesh(24), "n12_12");
}

TEST(FactorReuse, PowerGridMonteCarloIdenticalAcrossWorkerCounts) {
    // The VDD sources add branch rows to the sparse system.
    Circuit grid = refckt::power_grid(20, 20, 9);
    grid.add<NoiseCurrentSource>("NOISE1", k_ground,
                                 grid.find_node("n10_10"), 1e-9);
    expect_identical_across_workers(std::move(grid), "n10_10");
}

TEST(FactorReuse, CheckpointResumeIsBitIdentical) {
    const Circuit ckt = noisy_rtd_mesh(24);
    const mna::MnaAssembler assembler(ckt);
    const NodeId node = ckt.find_node("n12_12");
    engines::McOptions mc = mesh_mc(4);
    mc.checkpoint_every = 2;

    std::vector<engines::McCheckpoint> checkpoints;
    engines::AnalysisObserver observer;
    observer.on_checkpoint = [&](const engines::McCheckpoint& cp) {
        checkpoints.push_back(cp);
    };
    mna::SystemCache cache(assembler);
    const engines::McResult full = engines::run_monte_carlo(
        assembler, mc, 3, node, runtime::ExecutionPolicy{1}, &observer,
        &cache);
    ASSERT_GT(cache.stats().refactors_skipped, 0U);
    ASSERT_EQ(checkpoints.size(), 1U);

    // Resume on a fresh cache: trial 2 factors from scratch where the
    // uninterrupted run refactored over trial 1's last LU.
    engines::McOptions resume = mesh_mc(4);
    resume.resume =
        std::make_shared<const engines::McCheckpoint>(checkpoints[0]);
    mna::SystemCache fresh(assembler);
    const engines::McResult resumed = engines::run_monte_carlo(
        assembler, resume, 99, node, runtime::ExecutionPolicy{1}, nullptr,
        &fresh); // seed unused: the checkpoint pins the base seed

    EXPECT_EQ(full.trial_steps, resumed.trial_steps);
    EXPECT_TRUE(bit_identical(full.mean.value(), resumed.mean.value()));
    EXPECT_TRUE(bit_identical(full.stddev.value(), resumed.stddev.value()));
}

TEST(FactorReuse, RunsDoNotDependOnWhatTheCacheSolvedBefore) {
    // A transient on a cache warmed by a different run equals one on a
    // fresh cache: start_run() forces the exact factor.
    const Circuit ckt = rtd_mesh(24);
    const mna::MnaAssembler assembler(ckt);
    engines::SwecTranOptions opt;
    opt.t_stop = k_after_edge;

    mna::SystemCache fresh(assembler);
    const engines::TranResult a =
        engines::run_tran_swec(assembler, opt, nullptr, &fresh);

    mna::SystemCache warmed(assembler);
    engines::SwecTranOptions other = opt;
    other.t_stop = 53e-9;
    (void)engines::run_tran_swec(assembler, other, nullptr, &warmed);
    const mna::SystemCache::Stats warm = warmed.stats();
    const engines::TranResult b =
        engines::run_tran_swec(assembler, opt, nullptr, &warmed);
    const obs::SolverWork b_work = warmed.stats().since(warm);

    ASSERT_GT(fresh.stats().refactors_skipped, 0U);
    EXPECT_EQ(fresh.stats().refactors_skipped, b_work.refactors_skipped);
    EXPECT_EQ(fresh.stats().refine_sweeps, b_work.refine_sweeps);
    ASSERT_EQ(a.node_waves.size(), b.node_waves.size());
    for (std::size_t w = 0; w < a.node_waves.size(); ++w) {
        EXPECT_TRUE(
            bit_identical(a.node_waves[w].value(), b.node_waves[w].value()));
    }
}

// ---- fallback to the exact refactor -------------------------------------

struct Outcome {
    bool threw = false;
    std::string what;
    Vector x;
};

/// Two caches over one 24x24 RTD mesh fed identical stamps: one with
/// reuse (the default), one forced onto the exact path.
class CachePair {
public:
    CachePair()
        : ckt_(rtd_mesh(24)), assembler_(ckt_), reuse_(assembler_),
          exact_(assembler_, exact_path()),
          geq_(assembler_.nonlinear_devices().size(), 1e-3) {}

    /// One SWEC-shaped step of size h on both caches, on the rising edge
    /// of the drive pulse; `extra(cache)` stamps more entries.
    template <typename Extra>
    std::pair<Outcome, Outcome> step(double h, Extra&& extra) {
        const double t = 52e-9;
        const auto stamp = [&](mna::SystemCache& cache, Vector& rhs) {
            rhs = assembler_.rhs(t);
            Stamper& st = cache.begin(1.0 / h, rhs);
            assembler_.stamp_time_varying_into(t, st);
            assembler_.stamp_swec_into(geq_, st);
            extra(cache);
        };
        return {attempt(reuse_, stamp), attempt(exact_, stamp)};
    }
    std::pair<Outcome, Outcome> step(double h) {
        return step(h, [](mna::SystemCache&) {});
    }

    /// Both caches solve a matrix whose node row `row` is exactly zero:
    /// the baseline G + C/h is negated slot by slot (begin() sums it in
    /// stamp order, so the cancellation is exact) and no device stamps.
    std::pair<Outcome, Outcome> singular_step(double h, std::size_t row) {
        const auto n = static_cast<std::size_t>(assembler_.unknowns());
        std::vector<double> g(n, 0.0);
        std::vector<double> cap(n, 0.0);
        for (const auto& e : assembler_.static_g().entries()) {
            if (e.row == row) {
                g[e.col] += e.value;
            }
        }
        for (const auto& e : assembler_.c_triplets().entries()) {
            if (e.row == row) {
                cap[e.col] += e.value;
            }
        }
        const auto stamp = [&](mna::SystemCache& cache, Vector& rhs) {
            rhs.assign(n, 1.0);
            (void)cache.begin(1.0 / h, rhs);
            for (std::size_t col = 0; col < n; ++col) {
                const double v = g[col] + (1.0 / h) * cap[col];
                if (v != 0.0) {
                    cache.add_entry(row, col, -v);
                }
            }
        };
        return {attempt(reuse_, stamp), attempt(exact_, stamp)};
    }

    [[nodiscard]] const mna::SystemCache::Stats& stats() const {
        return reuse_.stats();
    }

private:
    template <typename Stamp>
    static Outcome attempt(mna::SystemCache& cache, const Stamp& stamp) {
        Vector rhs;
        stamp(cache, rhs);
        Outcome out;
        try {
            out.x = cache.solve(rhs);
        } catch (const SimError& e) {
            out.threw = true;
            out.what = e.what();
        }
        return out;
    }

    Circuit ckt_;
    mna::MnaAssembler assembler_;
    mna::SystemCache reuse_;
    mna::SystemCache exact_;
    std::vector<double> geq_;
};

void expect_same_outcome(const std::pair<Outcome, Outcome>& got) {
    const auto& [reuse, exact] = got;
    EXPECT_EQ(reuse.threw, exact.threw);
    EXPECT_EQ(reuse.what, exact.what);
    EXPECT_TRUE(bit_identical(reuse.x, exact.x));
}

/// Factor, then reuse once on unchanged values.
void arm(CachePair& pair) {
    (void)pair.step(1e-10);
    const auto [reuse, exact] = pair.step(1e-10);
    ASSERT_EQ(pair.stats().refactors_skipped, 1U);
    EXPECT_EQ(pair.stats().refine_sweeps, 0U);
    EXPECT_LE(linalg::max_abs_diff(reuse.x, exact.x),
              1e-12 * linalg::norm_inf(exact.x));
}

TEST(FactorReuse, LargeValueJumpFallsBackToExactRefactor) {
    CachePair pair;
    arm(pair);
    // A 1e4x smaller step scales C/h by 1e4: the stale LU cannot refine
    // it within the sweep budget, so the exact refactor answers — bit for
    // bit what the reference computes for the same values.
    expect_same_outcome(pair.step(1e-14));
    const mna::SystemCache::Stats& s = pair.stats();
    EXPECT_EQ(s.refactors_skipped, 1U);
    EXPECT_EQ(s.full_factors, 1U);
    EXPECT_EQ(s.fast_refactors, 1U);
    EXPECT_GT(s.refine_sweeps, 0U); // the failed attempt still counts
    expect_counter_algebra(s);
}

TEST(FactorReuse, NanMatrixReachesTheExactDiagnosis) {
    CachePair pair;
    arm(pair);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    expect_same_outcome(
        pair.step(1e-10, [&](mna::SystemCache& c) { c.add_entry(5, 5, nan); }));
    EXPECT_EQ(pair.stats().refactors_skipped, 1U);
    // The next healthy step is exact on both sides again.
    expect_same_outcome(pair.step(1e-10));
    EXPECT_EQ(pair.stats().refactors_skipped, 1U);
}

TEST(FactorReuse, SingularMatrixReachesTheExactDiagnosis) {
    CachePair pair;
    arm(pair);
    const auto got = pair.singular_step(1e-10, 7);
    EXPECT_TRUE(got.second.threw) << "the reference must diagnose it";
    expect_same_outcome(got);
    EXPECT_EQ(pair.stats().refactors_skipped, 1U);
    expect_same_outcome(pair.step(1e-10));
}

TEST(FactorReuse, RescueLadderRunsTheSameRungs) {
    // A pivot failure injected once on the pulse edge of a mesh where
    // reuse is engaged: the rescue runs exactly as on the exact path.
    const Circuit ckt = rtd_mesh(24);
    const mna::MnaAssembler assembler(ckt);
    const auto run = [&](mna::SystemCache::Options options) {
        failpoints::arm_from_spec("linalg.singular_pivot=250");
        TranRun res = tran_on(assembler, options, k_after_edge);
        failpoints::disarm_all();
        return res;
    };
    const TranRun exact = run(exact_path());
    const TranRun reuse = run({});

    ASSERT_GT(reuse.solver.refactors_skipped, 0U);
    EXPECT_GT(exact.rescues.total_attempted(), 0U);
    EXPECT_EQ(reuse.rescues.dt_backoff_attempted,
              exact.rescues.dt_backoff_attempted);
    EXPECT_EQ(reuse.rescues.dt_backoff_succeeded,
              exact.rescues.dt_backoff_succeeded);
    EXPECT_EQ(reuse.rescues.total_attempted(),
              exact.rescues.total_attempted());
    EXPECT_EQ(reuse.steps_accepted, exact.steps_accepted);
    for (std::size_t w = 0; w < exact.node_waves.size(); ++w) {
        expect_within_gate(exact.node_waves[w], reuse.node_waves[w]);
    }
}

} // namespace
} // namespace nanosim
