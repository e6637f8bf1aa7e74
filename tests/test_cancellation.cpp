// Tests for cooperative cancellation through engines::AnalysisObserver:
// aborting SWEC and NR transients mid-run returns cleanly with partial
// waveforms flagged `aborted` (leak-free under ASan), batch drivers stop
// at trial granularity, the Monte-Carlo driver also inside a running
// trial at one and two workers, and progress callbacks report sane
// fractions.
#include <gtest/gtest.h>

#include <atomic>
#include <utility>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "engines/dc_mla.hpp"
#include "engines/dc_nr.hpp"
#include "engines/dc_swec.hpp"
#include "engines/em_engine.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/observer.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "engines/tran_swec.hpp"
#include "stochastic/rng.hpp"

namespace nanosim {
namespace {

/// Observer that cancels after `limit` accepted steps.
struct StepLimiter {
    int limit;
    int steps = 0;
    engines::AnalysisObserver observer;

    explicit StepLimiter(int n) : limit(n) {
        observer.on_step = [this](double, int) { ++steps; };
        observer.cancel = [this] { return steps >= limit; };
    }
};

TEST(Cancellation, SwecTransientAbortsMidRunWithPartialWaveforms) {
    const Circuit ckt = refckt::rtd_chain();
    const mna::MnaAssembler assembler(ckt);
    engines::SwecTranOptions opt;
    opt.t_stop = 200e-9;

    StepLimiter limiter(5);
    const engines::TranResult res =
        engines::run_tran_swec(assembler, opt, &limiter.observer);
    EXPECT_TRUE(res.aborted);
    EXPECT_EQ(res.steps_accepted, 5);
    ASSERT_FALSE(res.node_waves.empty());
    // Partial waveform: IC + the 5 accepted steps, well short of t_stop.
    EXPECT_EQ(res.node_waves[0].size(), 6u);
    EXPECT_LT(res.node_waves[0].t_end(), opt.t_stop);

    // The un-cancelled run finishes and is NOT flagged.
    const engines::TranResult full = engines::run_tran_swec(assembler, opt);
    EXPECT_FALSE(full.aborted);
    EXPECT_DOUBLE_EQ(full.node_waves[0].t_end(), opt.t_stop);
}

TEST(Cancellation, NrTransientAbortsMidRunWithPartialWaveforms) {
    const Circuit ckt = refckt::rtd_chain();
    const mna::MnaAssembler assembler(ckt);
    engines::NrTranOptions opt;
    opt.t_stop = 200e-9;

    StepLimiter limiter(5);
    const engines::TranResult res =
        engines::run_tran_nr(assembler, opt, &limiter.observer);
    EXPECT_TRUE(res.aborted);
    EXPECT_EQ(res.steps_accepted, 5);
    EXPECT_LT(res.node_waves[0].t_end(), opt.t_stop);
}

TEST(Cancellation, PwlTransientAbortsMidRun) {
    const Circuit ckt = refckt::rtd_chain();
    const mna::MnaAssembler assembler(ckt);
    engines::PwlTranOptions opt;
    opt.t_stop = 200e-9;

    StepLimiter limiter(4);
    const engines::TranResult res =
        engines::run_tran_pwl(assembler, opt, &limiter.observer);
    EXPECT_TRUE(res.aborted);
    EXPECT_EQ(res.steps_accepted, 4);
    EXPECT_LT(res.node_waves[0].t_end(), opt.t_stop);
}

TEST(Cancellation, SwecDcMarchAbortsAtPseudoStepGranularity) {
    // The inverter's op takes many pseudo-steps, so a cancel after one
    // accepted step lands mid-march.
    const Circuit ckt = refckt::fet_rtd_inverter();
    const mna::MnaAssembler assembler(ckt);
    int polls = 0;
    engines::AnalysisObserver obs;
    obs.cancel = [&polls] { return ++polls > 1; };
    const engines::DcResult res = engines::solve_op_swec(
        assembler, {}, 0.0, 1.0, nullptr, &obs);
    EXPECT_TRUE(res.aborted);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.iterations, 1); // one marched pseudo-step, then stop
}

TEST(Cancellation, DcSweepStopsBetweenPoints) {
    const linalg::Vector values = {0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
    using Sweep = engines::SweepResult (*)(
        Circuit&, const linalg::Vector&, const engines::AnalysisObserver*);
    const std::vector<std::pair<const char*, Sweep>> engines_under_test = {
        {"swec",
         [](Circuit& c, const linalg::Vector& v,
            const engines::AnalysisObserver* o) {
             return engines::dc_sweep_swec(c, "V1", v, {}, o);
         }},
        {"nr",
         [](Circuit& c, const linalg::Vector& v,
            const engines::AnalysisObserver* o) {
             return engines::dc_sweep_nr(c, "V1", v, {}, o);
         }},
        {"mla",
         [](Circuit& c, const linalg::Vector& v,
            const engines::AnalysisObserver* o) {
             return engines::dc_sweep_mla(c, "V1", v, {}, o);
         }},
    };
    for (const auto& [name, sweep] : engines_under_test) {
        SCOPED_TRACE(name);
        Circuit ckt = refckt::rtd_divider();
        int trials = 0;
        engines::AnalysisObserver obs;
        obs.on_trial = [&trials](int, int) { ++trials; };
        obs.cancel = [&trials] { return trials >= 3; };
        const engines::SweepResult res = sweep(ckt, values, &obs);
        EXPECT_TRUE(res.aborted);
        EXPECT_EQ(res.values.size(), 3u);
        EXPECT_EQ(res.solutions.size(), 3u);
        EXPECT_EQ(res.converged.size(), 3u);
    }
}

TEST(Cancellation, MonteCarloStopsBetweenTrials) {
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    engines::McOptions mc;
    mc.t_stop = 1e-9;
    mc.runs = 10;
    mc.grid_points = 11;
    int trials = 0;
    engines::AnalysisObserver obs;
    obs.on_trial = [&trials](int, int) { ++trials; };
    obs.cancel = [&trials] { return trials >= 2; };
    const engines::McResult res = engines::run_monte_carlo(
        assembler, mc, 1, 1, runtime::ExecutionPolicy{1}, &obs);
    EXPECT_TRUE(res.aborted);
    EXPECT_EQ(res.stats.at(0).count(), 2u);
}

TEST(Cancellation, EmEnsembleStopsBetweenPaths) {
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    engines::EmOptions em;
    em.t_stop = 1e-9;
    em.dt = 2e-11;
    em.scheme = engines::EmScheme::implicit_be;
    const engines::EmEngine engine(assembler, em);
    int paths = 0;
    engines::AnalysisObserver obs;
    obs.on_trial = [&paths](int, int) { ++paths; };
    obs.cancel = [&paths] { return paths >= 3; };
    const engines::EmEnsembleResult res = engines::run_em_ensemble(
        engine, 10, 1, 1, runtime::ExecutionPolicy{1}, &obs);
    EXPECT_TRUE(res.aborted);
    EXPECT_EQ(res.stats.at(0).count(), 3u);
}

TEST(Cancellation, ParallelDriversHonourPreCancelledObserver) {
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    engines::AnalysisObserver obs;
    obs.cancel = [] { return true; };

    engines::McOptions mc;
    mc.t_stop = 1e-9;
    mc.runs = 4;
    mc.grid_points = 11;
    const engines::McResult mcr = engines::run_monte_carlo(
        assembler, mc, 1, 1, runtime::ExecutionPolicy{2}, &obs);
    EXPECT_TRUE(mcr.aborted);
    EXPECT_EQ(mcr.stats.at(0).count(), 0u);

    engines::EmOptions em;
    em.t_stop = 1e-9;
    em.dt = 2e-11;
    em.scheme = engines::EmScheme::implicit_be;
    const engines::EmEngine engine(assembler, em);
    const engines::EmEnsembleResult ens = engines::run_em_ensemble(
        engine, 4, 1, 1, runtime::ExecutionPolicy{2}, &obs);
    EXPECT_TRUE(ens.aborted);
}

TEST(Cancellation, ParallelMonteCarloStopsMidTrial) {
    // One trial per worker on two workers: at most two polls precede the
    // trials, so every started trial must see the cancel inside its
    // transient.
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    std::atomic<int> polls{0}; // workers poll concurrently
    engines::AnalysisObserver obs;
    obs.cancel = [&polls] { return polls.fetch_add(1) + 1 > 3; };

    engines::McOptions mc;
    mc.t_stop = 1e-9;
    mc.runs = 2;
    mc.grid_points = 11;
    const engines::McResult res = engines::run_monte_carlo(
        assembler, mc, 1, 1, runtime::ExecutionPolicy{2}, &obs);
    EXPECT_TRUE(res.aborted);
    EXPECT_EQ(res.stats.paths(), 0u);
    EXPECT_GT(polls.load(), 3);
}

TEST(Cancellation, SessionFlagsAbortInHeaderAndStopsBatch) {
    SimSession session(refckt::rtd_chain());
    StepLimiter limiter(5);

    TranSpec tran;
    tran.t_stop = 200e-9;
    const std::vector<AnalysisSpec> specs = {tran, AnalysisSpec(OpSpec{})};
    const auto results = session.run_all(specs, &limiter.observer);
    // The cancelled transient is the last result; the op never starts.
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].header.aborted);
    EXPECT_EQ(results[0].tran().steps_accepted, 5);
}

TEST(Cancellation, ProgressFractionsAreSaneAndReachOne) {
    SimSession session(refckt::rc_lowpass());
    std::vector<double> fractions;
    engines::AnalysisObserver obs;
    obs.on_progress = [&fractions](double f) { fractions.push_back(f); };

    TranSpec tran;
    tran.t_stop = 5e-6;
    const AnalysisResult res = session.run(tran, &obs);
    EXPECT_FALSE(res.header.aborted);
    ASSERT_FALSE(fractions.empty());
    for (std::size_t i = 0; i < fractions.size(); ++i) {
        EXPECT_GE(fractions[i], 0.0);
        EXPECT_LE(fractions[i], 1.0);
        if (i > 0) {
            EXPECT_GE(fractions[i], fractions[i - 1]); // monotone in time
        }
    }
    EXPECT_DOUBLE_EQ(fractions.back(), 1.0); // lands exactly on t_stop
}

} // namespace
} // namespace nanosim
