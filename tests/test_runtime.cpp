// Tests for the runtime orchestration subsystem: ThreadPool semantics
// (results, exception propagation, clean shutdown), deterministic
// SeedSequence streams, parameter access, sweep campaigns, and the
// headline reproducibility contract — parallel ensembles are
// bit-identical regardless of thread count.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "devices/sources.hpp"
#include "engines/em_engine.hpp"
#include "engines/monte_carlo.hpp"
#include "mna/system_cache.hpp"
#include "runtime/runtime.hpp"
#include "stochastic/seed_sequence.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

// ---- ThreadPool --------------------------------------------------------

TEST(ThreadPool, SubmitReturnsValue) {
    runtime::ThreadPool pool(2);
    auto f = pool.submit([]() { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ZeroTaskShutdown) {
    // Construct + destroy without submitting anything: must not hang.
    { runtime::ThreadPool pool(4); }
    { runtime::ThreadPool pool(1); }
    SUCCEED();
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
    runtime::ThreadPool pool(2);
    auto f = pool.submit([]() -> int {
        throw AnalysisError("boom from worker");
    });
    EXPECT_THROW(f.get(), AnalysisError);
    // The pool survives a throwing task.
    auto g = pool.submit([]() { return 1; });
    EXPECT_EQ(g.get(), 1);
}

TEST(ThreadPool, ParallelForRunsEveryIndex) {
    runtime::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64);
    runtime::parallel_for(pool, hits.size(),
                          [&](std::size_t i) { hits[i] += 1; });
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, ParallelForZeroTasksIsNoop) {
    runtime::ThreadPool pool(2);
    runtime::parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexFailure) {
    runtime::ThreadPool pool(4);
    std::atomic<int> completed{0};
    try {
        runtime::parallel_for(pool, 16, [&](std::size_t i) {
            if (i == 3 || i == 7) {
                throw AnalysisError("task " + std::to_string(i));
            }
            completed += 1;
        });
        FAIL() << "expected AnalysisError";
    } catch (const AnalysisError& e) {
        EXPECT_STREQ(e.what(), "task 3");
    }
    // Every non-throwing task still ran.
    EXPECT_EQ(completed.load(), 14);
}

TEST(ThreadPool, FailedSpawnThrowsInsteadOfHanging) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer shadow mappings do not tolerate RLIMIT_AS";
#else
    // A forked child caps its address space 256 MiB above what it maps,
    // so thread stacks run out long before 5000 workers: the constructor
    // must join the workers it started and throw, not hang or abort.
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        long pages = 0;
        std::ifstream("/proc/self/statm") >> pages;
        const auto cap = static_cast<rlim_t>(pages) *
                             static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                         (rlim_t{256} << 20);
        const rlimit limit{cap, cap};
        if (pages <= 0 || setrlimit(RLIMIT_AS, &limit) != 0) {
            _exit(3);
        }
        try {
            const runtime::ThreadPool pool(5000);
        } catch (const std::system_error&) {
            _exit(0);
        } catch (...) {
            _exit(2);
        }
        _exit(1); // every spawn succeeded: the cap did not bite
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int status = 0;
    pid_t reaped = 0;
    while ((reaped = waitpid(child, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (reaped == 0) {
        kill(child, SIGKILL);
        waitpid(child, &status, 0);
        FAIL() << "ThreadPool(5000) under RLIMIT_AS still running after 10 s";
    }
    ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                   << WTERMSIG(status);
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "1: no spawn failed, 2: wrong exception, 3: setup failed";
#endif
}

TEST(ExecutionPolicy, Resolution) {
    EXPECT_EQ(runtime::ExecutionPolicy{3}.resolved(), 3);
    EXPECT_GE(runtime::ExecutionPolicy{0}.resolved(), 1);
}

// ---- SeedSequence ------------------------------------------------------

TEST(SeedSequence, StreamsAreDeterministicAndDistinct) {
    const stochastic::SeedSequence a(42);
    const stochastic::SeedSequence b(42);
    EXPECT_EQ(a.stream_seed(0), b.stream_seed(0));
    EXPECT_EQ(a.stream_seed(123456), b.stream_seed(123456));
    EXPECT_NE(a.stream_seed(0), a.stream_seed(1));
    EXPECT_NE(stochastic::SeedSequence(1).stream_seed(0),
              stochastic::SeedSequence(2).stream_seed(0));
}

TEST(SeedSequence, StreamRngsMatchTheirSeeds) {
    const stochastic::SeedSequence seq(7);
    stochastic::Rng direct(seq.stream_seed(5));
    stochastic::Rng stream = seq.stream(5);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(stream.gauss(), direct.gauss());
    }
}

// ---- parameter access --------------------------------------------------

TEST(Params, SetAndGetAcrossDeviceKinds) {
    auto deck = parse_deck("* params\n"
                           "V1 in 0 DC 2\n"
                           "R1 in out 1k\n"
                           "C1 out 0 1n\n"
                           "RTD1 out 0\n"
                           "NOISE1 out 0 1e-9\n"
                           ".end\n");
    Circuit& ckt = deck.circuit;
    runtime::set_device_param(ckt, "R1", "R", 2e3);
    EXPECT_DOUBLE_EQ(runtime::get_device_param(ckt, "R1", "r"), 2e3);
    runtime::set_device_param(ckt, "C1", "value", 2e-9);
    EXPECT_DOUBLE_EQ(runtime::get_device_param(ckt, "C1", "C"), 2e-9);
    runtime::set_device_param(ckt, "V1", "dc", 3.5);
    EXPECT_DOUBLE_EQ(runtime::get_device_param(ckt, "V1", "DC"), 3.5);
    runtime::set_device_param(ckt, "RTD1", "a", 5e-4);
    EXPECT_DOUBLE_EQ(runtime::get_device_param(ckt, "RTD1", "A"), 5e-4);
    runtime::set_device_param(ckt, "NOISE1", "sigma", 2e-9);
    EXPECT_DOUBLE_EQ(runtime::get_device_param(ckt, "NOISE1", "SIGMA"), 2e-9);

    EXPECT_THROW(runtime::set_device_param(ckt, "R9", "R", 1.0),
                 NetlistError);
    EXPECT_THROW(runtime::set_device_param(ckt, "R1", "bogus", 1.0),
                 NetlistError);
    EXPECT_THROW(runtime::set_device_param(ckt, "R1", "R", -1.0),
                 AnalysisError);
}

// ---- JobPlan / axes ----------------------------------------------------

TEST(JobPlan, AxisValuesAndParsing) {
    const auto axis = runtime::parse_param_axis("RTD1:A=1e-4:2e-4:11");
    EXPECT_EQ(axis.device, "RTD1");
    EXPECT_EQ(axis.param, "A");
    const auto values = axis.values();
    ASSERT_EQ(values.size(), 11u);
    EXPECT_DOUBLE_EQ(values.front(), 1e-4);
    EXPECT_DOUBLE_EQ(values.back(), 2e-4);
    EXPECT_NEAR(values[5], 1.5e-4, 1e-12);

    // Engineering suffixes come from the netlist value parser.
    const auto eng = runtime::parse_param_axis("R1:R=1k:2k:3");
    EXPECT_DOUBLE_EQ(eng.start, 1e3);
    EXPECT_DOUBLE_EQ(eng.stop, 2e3);

    EXPECT_THROW(runtime::parse_param_axis("nonsense"), NetlistError);
    EXPECT_THROW(runtime::parse_param_axis("R1:R=1:2"), NetlistError);
    EXPECT_THROW(runtime::parse_param_axis("R1:R=1:2:0"), NetlistError);
    EXPECT_THROW(runtime::parse_param_axis(":R=1:2:3"), NetlistError);
}

TEST(JobPlan, CartesianGridRowMajorLastAxisFastest) {
    runtime::JobPlan plan;
    plan.add_axis({"A", "P", 0.0, 1.0, 2});
    plan.add_axis({"B", "Q", 0.0, 2.0, 3});
    ASSERT_EQ(plan.size(), 6u);
    EXPECT_EQ(plan.point(0), (std::vector<double>{0.0, 0.0}));
    EXPECT_EQ(plan.point(1), (std::vector<double>{0.0, 1.0}));
    EXPECT_EQ(plan.point(2), (std::vector<double>{0.0, 2.0}));
    EXPECT_EQ(plan.point(3), (std::vector<double>{1.0, 0.0}));
    EXPECT_EQ(plan.point(5), (std::vector<double>{1.0, 2.0}));
    EXPECT_THROW(plan.point(6), AnalysisError);
}

TEST(JobPlan, EmptyPlanIsOnePoint) {
    const runtime::JobPlan plan;
    EXPECT_EQ(plan.size(), 1u);
    EXPECT_TRUE(plan.point(0).empty());
}

// ---- sweep campaigns ---------------------------------------------------

constexpr const char* k_divider_deck =
    "* resistive divider\n"
    "V1 in 0 DC 2\n"
    "R1 in out 1k\n"
    "R2 out 0 1k\n"
    ".op\n"
    ".end\n";

TEST(SweepCampaign, ResistorDividerMatchesAnalytic) {
    const SimSession session = SimSession::from_deck(k_divider_deck);
    runtime::JobPlan plan;
    plan.add_axis(runtime::parse_param_axis("R2:R=1k:3k:3"));
    runtime::CampaignOptions options;
    options.policy.threads = 2;
    const auto result = session.sweep(plan, options);

    ASSERT_EQ(result.rows.size(), 3u);
    EXPECT_EQ(result.failures(), 0u);
    const std::size_t m = result.metric_index("op.v(out)");
    for (const auto& row : result.rows) {
        const double r2 = row.params[0];
        EXPECT_NEAR(row.metrics[m], 2.0 * r2 / (1e3 + r2), 1e-6)
            << "R2 = " << r2;
    }

    // 1-D metric waveform rides the swept parameter.
    const auto wave = result.metric_wave("op.v(out)");
    ASSERT_EQ(wave.size(), 3u);
    EXPECT_DOUBLE_EQ(wave.time_at(0), 1e3);
    EXPECT_DOUBLE_EQ(wave.time_at(2), 3e3);

    // CSV round-trips the schema.
    std::ostringstream csv;
    result.write_csv(csv);
    EXPECT_NE(csv.str().find("R2:R,ok,op.v(in),op.v(out)"),
              std::string::npos);
}

TEST(SweepCampaign, DescendingAxisStillYieldsMetricWave) {
    const SimSession session = SimSession::from_deck(k_divider_deck);
    runtime::JobPlan plan;
    plan.add_axis(runtime::parse_param_axis("R2:R=3k:1k:3")); // high -> low
    const auto result = session.sweep(plan);
    EXPECT_EQ(result.failures(), 0u);
    const auto wave = result.metric_wave("op.v(out)");
    ASSERT_EQ(wave.size(), 3u);
    EXPECT_DOUBLE_EQ(wave.time_at(0), 1e3); // reordered ascending
    EXPECT_DOUBLE_EQ(wave.time_at(2), 3e3);
}

TEST(SweepCampaign, PerJobFailuresAreCapturedNotThrown) {
    const SimSession session = SimSession::from_deck(k_divider_deck);
    runtime::JobPlan plan;
    // -1k and 0 are invalid resistances: those rows fail, 1k succeeds.
    plan.add_axis(runtime::parse_param_axis("R2:R=-1k:1k:3"));
    const auto result = session.sweep(plan);
    ASSERT_EQ(result.rows.size(), 3u);
    EXPECT_EQ(result.failures(), 2u);
    EXPECT_FALSE(result.rows[0].ok);
    EXPECT_FALSE(result.rows[0].error.empty());
    EXPECT_TRUE(result.rows[2].ok);
}

TEST(SweepCampaign, IdenticalResultsForAnyThreadCount) {
    const SimSession session = SimSession::from_deck(k_divider_deck);
    runtime::JobPlan plan;
    plan.add_axis(runtime::parse_param_axis("R2:R=0.5k:4k:8"));
    runtime::CampaignOptions serial;
    serial.policy.threads = 1;
    runtime::CampaignOptions wide;
    wide.policy.threads = 8;
    const auto a = session.sweep(plan, serial);
    const auto b = session.sweep(plan, wide);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        EXPECT_EQ(a.rows[i].metrics, b.rows[i].metrics);
    }
}

TEST(SweepCampaign, ProgrammaticCircuitNeedsFactory) {
    const SimSession session{refckt::rc_lowpass()};
    EXPECT_THROW((void)session.sweep(runtime::JobPlan{}), AnalysisError);

    // The factory-based entry point covers programmatic circuits.
    runtime::JobPlan plan;
    plan.add_axis({"R1", "R", 1e3, 2e3, 3});
    const auto result = runtime::run_sweep_campaign(
        plan, []() { return refckt::rc_lowpass(); }, {});
    EXPECT_EQ(result.rows.size(), 3u);
    EXPECT_EQ(result.failures(), 0u);
}

// ---- parallel ensemble reproducibility ---------------------------------

TEST(ParallelMonteCarlo, RejectsDegenerateGrid) {
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    engines::McOptions options;
    options.runs = 1;
    options.t_stop = 1e-9;
    options.grid_points = 1; // would divide by zero building the grid
    EXPECT_THROW((void)engines::run_monte_carlo(assembler, options, 1,
                                                ckt.find_node("n1")),
                 AnalysisError);
}

TEST(ParallelMonteCarlo, BitIdenticalAcrossThreadCounts) {
    // Trial k draws its noise from one NoisePathSet keyed by (trial,
    // source) and trials reduce in trial order: 1, 2 and 8 workers agree
    // bit for bit.
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    engines::McOptions options;
    options.runs = 12;
    options.t_stop = 2e-9;
    options.grid_points = 41;
    const NodeId node = ckt.find_node("n1");

    const auto one = engines::run_monte_carlo(assembler, options, 42, node);
    ASSERT_EQ(one.stats.paths(), 12u);
    for (const int workers : {2, 8}) {
        const auto wide = engines::run_monte_carlo(
            assembler, options, 42, node, runtime::ExecutionPolicy{workers});
        ASSERT_EQ(one.grid, wide.grid);
        EXPECT_EQ(one.trial_steps, wide.trial_steps);
        EXPECT_EQ(one.stats.paths(), wide.stats.paths());
        EXPECT_EQ(one.mean.time(), wide.mean.time());
        EXPECT_EQ(one.mean.value(), wide.mean.value());     // bit-identical
        EXPECT_EQ(one.stddev.time(), wide.stddev.time());
        EXPECT_EQ(one.stddev.value(), wide.stddev.value()); // bit-identical
        EXPECT_EQ(one.stats.peaks(), wide.stats.peaks());
        EXPECT_EQ(one.flops.total(), wide.flops.total());
    }

    // And a different seed actually changes the answer.
    const auto other = engines::run_monte_carlo(
        assembler, options, 43, node, runtime::ExecutionPolicy{8});
    EXPECT_NE(one.mean.value(), other.mean.value());
}

TEST(MonteCarlo, ProbeOnThePrimaryNodeReproducesThePrimaryBlock) {
    // FET-RTD inverter with a white-noise current on "out" (dense solver
    // path), observing "out" again as a probe beside "in".
    Circuit ckt = refckt::fet_rtd_inverter();
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node("out"),
                                1e-9);
    const mna::MnaAssembler assembler(ckt);
    const NodeId out = ckt.find_node("out");
    engines::McOptions mc;
    mc.runs = 5;
    mc.t_stop = 10e-9;
    mc.noise_dt = 5e-10;
    mc.grid_points = 11;
    mc.probe_nodes = {out, ckt.find_node("in")};

    mna::SystemCache cache(assembler);
    const engines::McResult res = engines::run_monte_carlo(
        assembler, mc, 1, out, runtime::ExecutionPolicy{1}, nullptr, &cache);
    ASSERT_EQ(res.stats.paths(), 5u);
    ASSERT_EQ(res.trial_steps.size(), 5u);
    ASSERT_EQ(res.probes.size(), 2u);
    EXPECT_EQ(res.probes[0].stats.paths(), 5u);
    EXPECT_EQ(res.mean.time(), res.probes[0].mean.time());
    EXPECT_EQ(res.mean.value(), res.probes[0].mean.value());
    EXPECT_EQ(res.stddev.time(), res.probes[0].stddev.time());
    EXPECT_EQ(res.stddev.value(), res.probes[0].stddev.value());
}

TEST(ParallelEmEnsemble, BitIdenticalAcrossThreadCounts) {
    // The noisy RC solves on the dense path; the RTD mesh on the sparse
    // one (refactors, stale-factor reuse, chord tables), from a DC start
    // solved once on the caller's cache.
    Circuit mesh = refckt::rc_mesh(8, 8);
    mesh.add<NoiseCurrentSource>("NOISE1", k_ground, mesh.find_node("n4_4"),
                                 1e-9);
    struct Case {
        Circuit ckt;
        const char* node;
        bool start_from_dc;
    };
    Case cases[] = {{refckt::noisy_rc(), "n1", false},
                    {std::move(mesh), "n4_4", true}};
    for (const Case& c : cases) {
        const mna::MnaAssembler assembler(c.ckt);
        engines::EmOptions options;
        options.t_stop = 2e-9;
        options.dt = 2e-11;
        options.scheme = engines::EmScheme::implicit_be;
        options.start_from_dc = c.start_from_dc;
        const engines::EmEngine engine(assembler, options);
        const NodeId node = c.ckt.find_node(c.node);

        mna::SystemCache cache(assembler);
        const auto one = engines::run_em_ensemble(
            engine, 16, 42, node, runtime::ExecutionPolicy{1}, nullptr,
            &cache);
        ASSERT_EQ(one.stats.paths(), 16u);
        for (const int threads : {2, 4}) {
            const auto wide = engines::run_em_ensemble(
                engine, 16, 42, node, runtime::ExecutionPolicy{threads});
            ASSERT_EQ(one.grid, wide.grid) << c.node << " x" << threads;
            // bit-identical
            EXPECT_EQ(one.mean.value(), wide.mean.value()) << c.node;
            EXPECT_EQ(one.stddev.value(), wide.stddev.value()) << c.node;
            EXPECT_EQ(one.stats.peaks(), wide.stats.peaks()) << c.node;
            EXPECT_EQ(one.flops.total(), wide.flops.total()) << c.node;
        }
    }
}

TEST(ParallelEnsembleSession, SpecEntryPoints) {
    SimSession session(refckt::noisy_rc());

    EnsembleSpec em;
    em.node = "n1";
    em.t_stop = 1e-9;
    em.dt = 2e-11;
    em.scheme = engines::EmScheme::implicit_be;
    em.paths = 8;
    em.seed = 7;
    const AnalysisResult serial = session.run(em); // parallel = false
    em.parallel = true;
    for (const int threads : {1, 2, 4}) {
        em.threads = threads;
        const AnalysisResult wide = session.run(em);
        EXPECT_EQ(serial.ensemble().mean.value(),
                  wide.ensemble().mean.value())
            << threads;
        EXPECT_EQ(serial.ensemble().stddev.value(),
                  wide.ensemble().stddev.value())
            << threads;
    }

    MonteCarloSpec mc;
    mc.node = "n1";
    mc.runs = 4;
    mc.t_stop = 1e-9;
    mc.grid_points = 21;
    mc.seed = 7;
    const AnalysisResult c = session.run(mc);
    mc.parallel = true;
    mc.threads = 4;
    const AnalysisResult d = session.run(mc);
    EXPECT_EQ(c.monte_carlo().mean.value(), d.monte_carlo().mean.value());
}

} // namespace
} // namespace nanosim
