// Tests for the fault-injection framework (util/failpoints.hpp) and the
// failure-rescue ladder's end-to-end contracts: every engine survives a
// structurally singular matrix and a NaN-producing device with a
// diagnosed SimError or a rescued result (never UB or a hang), the
// Monte-Carlo driver quarantines injected trial failures identically at
// one and two workers, checkpoints resume bit-identically (including
// through the wire encoding), and the service isolates worker faults
// into exactly one `failed` terminal event while the daemon keeps
// serving.  Two gates bound the framework's own footprint: a disabled
// site costs at most 25 ns and under 1% of a Monte-Carlo run, and sites
// armed but never firing leave a campaign bit-identical.
//
// Fail points are process-global: every test that arms one goes through
// the ArmedScope RAII guard so a failing assertion cannot leak an armed
// site into the next test.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "devices/passives.hpp"
#include "devices/sources.hpp"
#include "engines/dc_nr.hpp"
#include "engines/dc_swec.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/observer.hpp"
#include "engines/step_control.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "timing_gate.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"

namespace nanosim {
namespace {

namespace svc = service;
namespace json = service::json;
namespace wire = service::wire;

/// RAII arming: the spec is live inside the scope, everything is
/// disarmed on exit even when an assertion throws.
class ArmedScope {
public:
    explicit ArmedScope(const std::string& spec) {
        failpoints::arm_from_spec(spec);
    }
    ~ArmedScope() { failpoints::disarm_all(); }
    ArmedScope(const ArmedScope&) = delete;
    ArmedScope& operator=(const ArmedScope&) = delete;
};

// ---- framework --------------------------------------------------------

TEST(FailPoints, DisabledSiteNeverFiresAndGateIsOff) {
    failpoints::disarm_all();
    EXPECT_FALSE(failpoints::enabled());
    auto& fp = failpoints::site("test.disabled");
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(failpoints::fire(fp));
    }
    EXPECT_EQ(fp.fired(), 0U);
}

TEST(FailPoints, AlwaysModeFiresEveryEvaluation) {
    const ArmedScope armed("test.always=always");
    EXPECT_TRUE(failpoints::enabled());
    auto& fp = failpoints::site("test.always");
    const std::uint64_t before = fp.fired();
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(failpoints::fire(fp));
    }
    EXPECT_EQ(fp.fired() - before, 5U);
}

TEST(FailPoints, OneInNFiresDeterministically) {
    const ArmedScope armed("test.one_in_n=1in3");
    auto& fp = failpoints::site("test.one_in_n");
    std::vector<int> fired_at;
    for (int i = 1; i <= 9; ++i) {
        if (failpoints::fire(fp)) {
            fired_at.push_back(i);
        }
    }
    EXPECT_EQ(fired_at, (std::vector<int>{3, 6, 9}));
    // Re-arming resets the counter: the pattern replays identically.
    failpoints::arm_from_spec("test.one_in_n=1in3");
    std::vector<int> replay;
    for (int i = 1; i <= 9; ++i) {
        if (failpoints::fire(fp)) {
            replay.push_back(i);
        }
    }
    EXPECT_EQ(replay, fired_at);
}

TEST(FailPoints, NthModeFiresExactlyOnce) {
    const ArmedScope armed("test.nth=4");
    auto& fp = failpoints::site("test.nth");
    const std::uint64_t before = fp.fired();
    std::vector<int> fired_at;
    for (int i = 1; i <= 10; ++i) {
        if (failpoints::fire(fp)) {
            fired_at.push_back(i);
        }
    }
    EXPECT_EQ(fired_at, (std::vector<int>{4}));
    EXPECT_EQ(fp.fired() - before, 1U);
}

TEST(FailPoints, SpecParsingAndCatalog) {
    EXPECT_THROW(failpoints::arm_from_spec("oops"), AnalysisError);
    EXPECT_THROW(failpoints::arm_from_spec("a.b=1inX"), AnalysisError);
    EXPECT_THROW(failpoints::arm_from_spec("a.b=sometimes"), AnalysisError);
    failpoints::arm_from_spec(""); // empty spec is a no-op
    {
        const ArmedScope armed("test.cat=always,test.one_in_n=off");
        bool found = false;
        for (const auto& [name, mode] : failpoints::catalog()) {
            if (name == "test.cat") {
                EXPECT_EQ(mode, "always");
                found = true;
            }
        }
        EXPECT_TRUE(found);
    }
    EXPECT_FALSE(failpoints::enabled()); // ArmedScope cleaned up
}

// ---- engines vs. hostile circuits (satellite 3) -----------------------

/// Node "float" has no conductance path anywhere: its matrix row is
/// structurally zero, so the unregularized system is singular.
Circuit singular_circuit() {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    const NodeId fl = ckt.node("float");
    ckt.add<VSource>("V1", a, k_ground, 1.0);
    ckt.add<Resistor>("R1", a, k_ground, 1e3);
    ckt.add<ISource>("I1", k_ground, fl, 1e-3);
    return ckt;
}

/// A current source whose value is NaN: every RHS assembly poisons the
/// solve, so the engine must either diagnose or rescue — never return
/// quietly-corrupt waveforms.
Circuit nan_circuit() {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add<Resistor>("R1", a, k_ground, 1e3);
    ckt.add<Capacitor>("C1", a, k_ground, 1e-12);
    ckt.add<ISource>("I1", k_ground, a,
                     std::numeric_limits<double>::quiet_NaN());
    return ckt;
}

/// Run one hostile workload: completing is acceptable only with finite
/// output (a rescued/regularized run); any throw must be a diagnosed
/// SimError.  Anything else (foreign exception, crash, hang) fails.
template <typename Fn>
void expect_diagnosed_or_rescued(const char* label, Fn&& run) {
    try {
        const bool finite = run();
        EXPECT_TRUE(finite) << label << ": completed with non-finite output";
    } catch (const SimError& e) {
        SUCCEED() << label << ": diagnosed: " << e.what();
    }
    // A non-SimError exception propagates out of the test body and fails
    // it — exactly the contract violation this guard exists to catch.
}

bool all_finite(const std::vector<analysis::Waveform>& waves) {
    for (const auto& w : waves) {
        for (const double v : w.value()) {
            if (!std::isfinite(v)) {
                return false;
            }
        }
    }
    return true;
}

void exercise_engines(const Circuit& ckt, const char* what) {
    // The assembler is built INSIDE each workload: a structurally
    // singular circuit is diagnosed at assembly (zero-row guard), which
    // counts as the diagnosed outcome for every engine.
    const double t_stop = 1e-9;

    expect_diagnosed_or_rescued(
        (std::string(what) + "/tran_swec").c_str(), [&] {
            const mna::MnaAssembler assembler(ckt);
            engines::SwecTranOptions opt;
            opt.t_stop = t_stop;
            const auto res = engines::run_tran_swec(assembler, opt);
            return all_finite(res.node_waves);
        });
    expect_diagnosed_or_rescued(
        (std::string(what) + "/tran_nr").c_str(), [&] {
            const mna::MnaAssembler assembler(ckt);
            engines::NrTranOptions opt;
            opt.t_stop = t_stop;
            const auto res = engines::run_tran_nr(assembler, opt);
            return all_finite(res.node_waves);
        });
    expect_diagnosed_or_rescued(
        (std::string(what) + "/tran_pwl").c_str(), [&] {
            const mna::MnaAssembler assembler(ckt);
            engines::PwlTranOptions opt;
            opt.t_stop = t_stop;
            const auto res = engines::run_tran_pwl(assembler, opt);
            return all_finite(res.node_waves);
        });
    expect_diagnosed_or_rescued(
        (std::string(what) + "/dc_swec").c_str(), [&] {
            const mna::MnaAssembler assembler(ckt);
            const auto res = engines::solve_op_swec(assembler, {}, 0.0, 1.0);
            if (!res.converged) {
                return true; // diagnosed non-convergence, values flagged
            }
            for (const double v : res.x) {
                if (!std::isfinite(v)) {
                    return false;
                }
            }
            return true;
        });
    expect_diagnosed_or_rescued(
        (std::string(what) + "/dc_nr").c_str(), [&] {
            const mna::MnaAssembler assembler(ckt);
            const auto res = engines::solve_op_nr(assembler);
            if (!res.converged) {
                return true; // diagnosed non-convergence, values flagged
            }
            for (const double v : res.x) {
                if (!std::isfinite(v)) {
                    return false;
                }
            }
            return true;
        });
}

TEST(EngineRobustness, StructurallySingularMatrixIsDiagnosedOrRescued) {
    exercise_engines(singular_circuit(), "singular");
}

TEST(EngineRobustness, NanProducingDeviceIsDiagnosedOrRescued) {
    exercise_engines(nan_circuit(), "nan");
}

TEST(EngineRobustness, InjectedSingularPivotIsRescuedMidTransient) {
    // A healthy workload with a pivot failure injected once mid-run: the
    // rescue ladder must absorb it and the run completes with finite
    // waveforms and a non-zero rescue tally.
    const Circuit ckt = refckt::fet_rtd_inverter();
    const mna::MnaAssembler assembler(ckt);
    engines::SwecTranOptions opt;
    opt.t_stop = 10e-9;

    const ArmedScope armed("swec.solve_nan=25");
    const engines::TranResult res = engines::run_tran_swec(assembler, opt);
    EXPECT_TRUE(all_finite(res.node_waves));
    EXPECT_GT(res.steps_accepted, 0);
    EXPECT_GT(res.rescues.total_attempted(), 0U);
}

// ---- Monte-Carlo quarantine + checkpoint/resume -----------------------

Circuit noisy_inverter() {
    Circuit ckt = refckt::fet_rtd_inverter();
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node("out"),
                                1e-9);
    return ckt;
}

engines::McOptions small_mc(int runs) {
    engines::McOptions mc;
    mc.runs = runs;
    mc.t_stop = 2e-9;
    mc.noise_dt = 2e-10;
    mc.grid_points = 11;
    return mc;
}

void expect_identical_mc(const engines::McResult& a,
                         const engines::McResult& b) {
    EXPECT_EQ(a.grid, b.grid);
    EXPECT_EQ(a.mean.value(), b.mean.value());
    EXPECT_EQ(a.stddev.value(), b.stddev.value());
    EXPECT_EQ(a.trial_steps, b.trial_steps);
    EXPECT_EQ(a.aborted, b.aborted);
    ASSERT_EQ(a.failed_trials.size(), b.failed_trials.size());
    for (std::size_t i = 0; i < a.failed_trials.size(); ++i) {
        EXPECT_EQ(a.failed_trials[i].trial, b.failed_trials[i].trial);
        EXPECT_EQ(a.failed_trials[i].seed, b.failed_trials[i].seed);
        EXPECT_EQ(a.failed_trials[i].diagnostic,
                  b.failed_trials[i].diagnostic);
    }
    EXPECT_EQ(a.flops.total(), b.flops.total());
}

TEST(McQuarantine, SerialAndParallelDriversQuarantineTheSameTrials) {
    const Circuit ckt = noisy_inverter();
    const mna::MnaAssembler assembler(ckt);
    const NodeId out = ckt.find_node("out");
    const engines::McOptions mc = small_mc(7);

    const auto serial = [&] {
        const ArmedScope armed("mc.trial_fail=1in3");
        mna::SystemCache cache(assembler);
        return engines::run_monte_carlo(assembler, mc, 1, out,
                                        runtime::ExecutionPolicy{1}, nullptr,
                                        &cache);
    }();
    ASSERT_FALSE(serial.failed_trials.empty());
    EXPECT_EQ(serial.trial_steps.size() + serial.failed_trials.size(),
              static_cast<std::size_t>(mc.runs));
    for (const auto& f : serial.failed_trials) {
        EXPECT_NE(f.diagnostic.find("mc.trial_fail"), std::string::npos);
    }

    const auto parallel = [&] {
        const ArmedScope armed("mc.trial_fail=1in3");
        return engines::run_monte_carlo(assembler, mc, 1, out,
                                        runtime::ExecutionPolicy{2});
    }();
    EXPECT_EQ(serial.mean.value(), parallel.mean.value());
    EXPECT_EQ(serial.stddev.value(), parallel.stddev.value());
    ASSERT_EQ(serial.failed_trials.size(), parallel.failed_trials.size());
    for (std::size_t i = 0; i < serial.failed_trials.size(); ++i) {
        EXPECT_EQ(serial.failed_trials[i].trial,
                  parallel.failed_trials[i].trial);
    }
}

// ---- diagnose, never hang: the no-progress rule ------------------------

/// Cancels a run after 50 000 cancellation polls (a transient polls once
/// per step; Monte-Carlo forwards the poll into its trials), so a run
/// that the no-progress rule misses fails its test instead of hanging it.
class StepGuard {
public:
    StepGuard() {
        observer.cancel = [this] { return ++polls > 50'000; };
    }
    StepGuard(const StepGuard&) = delete;
    StepGuard& operator=(const StepGuard&) = delete;

    std::uint64_t polls = 0;
    engines::AnalysisObserver observer;
};

/// `run` must end in the no-progress AnalysisError of `who` within
/// k_stall_steps accepted steps and, in an uninstrumented build, 1 s.
template <typename Run>
void expect_no_progress(const char* who, const StepGuard& guard, Run&& run) {
    const auto t0 = std::chrono::steady_clock::now();
    try {
        run();
        ADD_FAILURE() << who << " ran " << guard.polls
                      << " steps without a diagnosis";
    } catch (const AnalysisError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(who), std::string::npos) << what;
        EXPECT_NE(what.find("no progress"), std::string::npos) << what;
        EXPECT_NE(what.find("last rung"), std::string::npos) << what;
    }
    EXPECT_LE(guard.polls, engines::k_stall_steps);
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (!timing::sanitized()) {
        EXPECT_LT(elapsed, 1.0);
    }
}

TEST(NoProgress, SwecRescuedOnEveryStepIsDiagnosed) {
    // Every step's solve comes back NaN and the dt-backoff rung rescues
    // it; past the 50 ns drive corner the steps fall to dt_min.
    const Circuit ckt = refckt::rc_mesh(10, 10);
    const mna::MnaAssembler assembler(ckt);
    engines::SwecTranOptions opt;
    opt.t_stop = 60e-9;
    StepGuard guard;
    const ArmedScope armed("swec.solve_nan=always");
    expect_no_progress("run_tran_swec", guard, [&] {
        (void)engines::run_tran_swec(assembler, opt, &guard.observer);
    });
}

TEST(NoProgress, NrDivergingAtTheFloorIsDiagnosed) {
    // Every Newton solve diverges: each step halves to dt_min, where gmin
    // stepping rescues it.  Without the rule the run takes ~1e9 steps.
    const Circuit ckt = refckt::rc_mesh(6, 6);
    const mna::MnaAssembler assembler(ckt);
    engines::NrTranOptions opt;
    opt.t_stop = 100e-9;
    StepGuard guard;
    const ArmedScope armed("nr.divergence=always");
    expect_no_progress("run_tran_nr", guard, [&] {
        (void)engines::run_tran_nr(assembler, opt, &guard.observer);
    });
}

TEST(NoProgress, StalledMonteCarloTrialIsQuarantined) {
    Circuit ckt = refckt::rc_mesh(6, 6);
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node("n3_3"),
                                1e-9);
    const mna::MnaAssembler assembler(ckt);
    // Past the mesh's 50 ns drive corner, like the transient above.
    engines::McOptions mc = small_mc(2);
    mc.t_stop = 60e-9;
    mc.noise_dt = 1e-9;
    StepGuard guard;
    const ArmedScope armed("swec.solve_nan=always");
    const engines::McResult res = engines::run_monte_carlo(
        assembler, mc, 1, ckt.find_node("n3_3"), runtime::ExecutionPolicy{1},
        &guard.observer);
    EXPECT_TRUE(res.trial_steps.empty());
    ASSERT_EQ(res.failed_trials.size(), 2U);
    for (const auto& f : res.failed_trials) {
        EXPECT_NE(f.diagnostic.find("run_tran_swec: no progress"),
                  std::string::npos)
            << f.diagnostic;
    }
}

TEST(McCheckpoint, ResumeReproducesUninterruptedRunBitIdentically) {
    const Circuit ckt = noisy_inverter();
    const mna::MnaAssembler assembler(ckt);
    const NodeId out = ckt.find_node("out");
    engines::McOptions mc = small_mc(6);

    // Uninterrupted reference.
    const auto full = [&] {
        mna::SystemCache cache(assembler);
        return engines::run_monte_carlo(assembler, mc, 1, out,
                                        runtime::ExecutionPolicy{1}, nullptr,
                                        &cache);
    }();

    // Checkpointed run: capture the snapshot after 4 trials.
    mc.checkpoint_every = 2;
    std::vector<engines::McCheckpoint> checkpoints;
    engines::AnalysisObserver observer;
    observer.on_checkpoint = [&](const engines::McCheckpoint& cp) {
        checkpoints.push_back(cp);
    };
    {
        mna::SystemCache cache(assembler);
        (void)engines::run_monte_carlo(assembler, mc, 1, out,
                                       runtime::ExecutionPolicy{1}, &observer,
                                       &cache);
    }
    ASSERT_GE(checkpoints.size(), 2U);
    const engines::McCheckpoint& mid = checkpoints[1];
    ASSERT_EQ(mid.next_trial, 4);

    // Resume through the WIRE ENCODING: the round-tripped checkpoint
    // must carry the exact accumulator state, not an approximation.
    const json::Value doc = wire::checkpoint_to_json(mid);
    const engines::McCheckpoint restored = wire::checkpoint_from_json(doc);
    EXPECT_EQ(wire::checkpoint_to_json(restored).dump(), doc.dump());

    engines::McOptions resume_mc = small_mc(6);
    resume_mc.resume =
        std::make_shared<const engines::McCheckpoint>(restored);
    const auto resumed = [&] {
        mna::SystemCache cache(assembler);
        // Seed 99 is unused: the checkpoint pins the base seed.
        return engines::run_monte_carlo(assembler, resume_mc, 99, out,
                                        runtime::ExecutionPolicy{1}, nullptr,
                                        &cache);
    }();
    expect_identical_mc(full, resumed);
}

TEST(McCheckpoint, MismatchedCampaignShapeIsRejected) {
    const Circuit ckt = noisy_inverter();
    const mna::MnaAssembler assembler(ckt);
    const NodeId out = ckt.find_node("out");
    engines::McOptions mc = small_mc(4);
    mc.checkpoint_every = 2;

    std::vector<engines::McCheckpoint> checkpoints;
    engines::AnalysisObserver observer;
    observer.on_checkpoint = [&](const engines::McCheckpoint& cp) {
        checkpoints.push_back(cp);
    };
    mna::SystemCache cache(assembler);
    (void)engines::run_monte_carlo(assembler, mc, 1, out,
                                   runtime::ExecutionPolicy{1}, &observer,
                                   &cache);
    ASSERT_FALSE(checkpoints.empty());

    engines::McOptions other = small_mc(4);
    other.grid_points = 21; // different statistics grid
    other.resume =
        std::make_shared<const engines::McCheckpoint>(checkpoints[0]);
    EXPECT_THROW((void)engines::run_monte_carlo(assembler, other, 1, out),
                 AnalysisError);
}

// ---- the disabled path: free, and inert when armed but never firing ----

/// 12 fixed-step Monte-Carlo trials on an 8x8 RC mesh with white noise at
/// its centre: every solver, engine and Monte-Carlo driver injection site
/// is on this path.
engines::McResult run_noisy_mesh_mc() {
    Circuit ckt = refckt::rc_mesh(8, 8);
    const NodeId centre = ckt.find_node("n4_4");
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, centre, 1e-9);
    const mna::MnaAssembler assembler(ckt);
    engines::McOptions mc;
    mc.runs = 12;
    mc.t_stop = 5e-9;
    mc.noise_dt = 2.5e-10;
    mc.grid_points = 26;
    mc.tran.adaptive = false;
    mc.tran.dt_init = mc.noise_dt;
    return engines::run_monte_carlo(assembler, mc, 1, centre);
}

/// Sites armed at an evaluation no run reaches: the global gate is open,
/// so every site counts its evaluations, but none fires.
constexpr const char* k_never_firing =
    "test.sentinel=1000000000,mc.trial_fail=1000000000,"
    "linalg.singular_pivot=1000000000";

/// fire() evaluations summed over every registered site.
std::uint64_t total_evaluations() {
    std::uint64_t total = 0;
    for (const auto& [name, mode] : failpoints::catalog()) {
        total += failpoints::site(name.c_str()).evaluations();
    }
    return total;
}

TEST(FailPoints, ArmedNeverFiringMonteCarloIsBitIdentical) {
    failpoints::disarm_all();
    const engines::McResult off = run_noisy_mesh_mc();
    const engines::McResult armed = [] {
        const ArmedScope scope(k_never_firing);
        return run_noisy_mesh_mc();
    }();
    EXPECT_TRUE(off.failed_trials.empty());
    EXPECT_EQ(off.stats.paths(), armed.stats.paths());
    expect_identical_mc(off, armed);
}

TEST(FailPoints, DisabledPathCostIsNegligible) {
    // With nothing armed a site costs one relaxed load and a branch: at
    // most 25 ns.  The gate checks of a Monte-Carlo run (counted exactly
    // by an armed, never-firing run) times that cost, doubled for
    // headroom, must stay within 1% of the run.
    if (timing::sanitized()) {
        GTEST_SKIP() << timing::k_sanitized_skip;
    }
    failpoints::disarm_all();
    auto& probe = failpoints::site("test.disabled_probe");
    std::uint64_t fires = 0;
    const double site_ns = timing::site_ns(5, 1 << 20, [&] {
        fires += failpoints::fire(probe) ? 1 : 0;
        asm volatile("" : : "r"(&fires) : "memory");
    });
    EXPECT_EQ(fires, 0U);

    const double run_s =
        timing::min_seconds(3, [] { (void)run_noisy_mesh_mc(); });
    std::uint64_t checks = 0;
    {
        const ArmedScope scope(k_never_firing);
        const std::uint64_t before = total_evaluations();
        (void)run_noisy_mesh_mc();
        checks = total_evaluations() - before;
    }
    EXPECT_GT(checks, 0U);
    const double predicted = timing::predicted_share(checks, site_ns, run_s);
    EXPECT_LE(site_ns, 25.0);
    EXPECT_LE(predicted, 0.01)
        << checks << " gate checks x " << site_ns << " ns against a "
        << run_s * 1e3 << " ms run";
}

// ---- service resilience -----------------------------------------------

json::Value submit_message(bool subscribe) {
    wire::CircuitSource circuit;
    circuit.builtin = "mesh:3x3";
    OpSpec op;
    json::Value msg{json::Object{}};
    msg.set("op", "submit");
    msg.set("circuit", circuit.to_json());
    msg.set("spec", wire::spec_to_json(op));
    msg.set("subscribe", json::Value(subscribe));
    return msg;
}

TEST(ServiceResilience, SerializeThrowEmitsExactlyOneFailedEvent) {
    svc::Server server{svc::ServerOptions{}};
    server.start();
    svc::Client client("127.0.0.1", server.port());

    // Arm through the WIRE field — the submit request both arms the site
    // (nth mode: fires exactly once) and is the job it fires on.
    int failed_events = 0;
    int done_events = 0;
    const auto collect = [&](const json::Value& event) {
        const std::string& name = event.at("event").as_string();
        if (name == "failed") {
            ++failed_events;
        } else if (name == "done") {
            ++done_events;
        }
    };
    json::Value msg = submit_message(/*subscribe=*/true);
    msg.set("failpoints", json::Value("service.result_serialize=1"));
    const json::Value accepted = client.request(msg, collect);
    ASSERT_TRUE(accepted.at("ok").as_bool());
    const std::uint64_t id = accepted.at("id").as_uint();
    if (failed_events + done_events == 0) {
        const json::Value terminal = client.wait_for_terminal(id, collect);
        EXPECT_EQ(terminal.at("event").as_string(), "failed");
    }
    EXPECT_EQ(failed_events, 1);
    EXPECT_EQ(done_events, 0);

    // The daemon survived the worker fault: it still answers and the
    // next job (site exhausted) completes normally.
    EXPECT_TRUE(client.request(json::parse(R"({"op":"ping"})"))
                    .at("ok")
                    .as_bool());
    int done2 = 0;
    const auto collect2 = [&](const json::Value& event) {
        if (event.at("event").as_string() == "done") {
            ++done2;
        }
    };
    json::Value msg2 = submit_message(/*subscribe=*/true);
    const json::Value accepted2 = client.request(msg2, collect2);
    ASSERT_TRUE(accepted2.at("ok").as_bool());
    if (done2 == 0) {
        const json::Value terminal2 = client.wait_for_terminal(
            accepted2.at("id").as_uint(), collect2);
        EXPECT_EQ(terminal2.at("event").as_string(), "done");
    }
    server.stop(/*drain=*/true);
    server.wait();
    failpoints::disarm_all(); // wire-armed sites are process-global here
}

TEST(ServiceResilience, IdempotentResubmitReturnsTheSameJob) {
    svc::Server server{svc::ServerOptions{}};
    server.start();
    svc::Client client("127.0.0.1", server.port());

    json::Value msg = submit_message(/*subscribe=*/false);
    msg.set("idempotency_key", svc::idempotency_key(msg));
    const json::Value first = client.request(msg);
    ASSERT_TRUE(first.at("ok").as_bool());
    const std::uint64_t id = first.at("id").as_uint();

    const json::Value second = client.request(msg);
    ASSERT_TRUE(second.at("ok").as_bool());
    EXPECT_EQ(second.at("id").as_uint(), id);
    ASSERT_NE(second.find("duplicate"), nullptr);
    EXPECT_TRUE(second.at("duplicate").as_bool());

    server.stop(/*drain=*/true);
    server.wait();
}

TEST(ServiceResilience, InjectedSocketEofClosesOnlyThatConnection) {
    svc::Server server{svc::ServerOptions{}};
    server.start();
    {
        const ArmedScope armed("service.socket_eof=1");
        svc::Client victim("127.0.0.1", server.port());
        // The server treats the next inbound read as EOF and closes the
        // connection; the client sees a clean close, not a hang.
        EXPECT_THROW((void)victim.request(json::parse(R"({"op":"ping"})")),
                     IoError);
    }
    // The daemon itself is unaffected: fresh connections work.
    svc::Client after("127.0.0.1", server.port());
    EXPECT_TRUE(after.request(json::parse(R"({"op":"ping"})"))
                    .at("ok")
                    .as_bool());
    server.stop(/*drain=*/true);
    server.wait();
}

TEST(ServiceResilience, IdleConnectionGetsHeartbeatThenClose) {
    svc::ServerOptions options;
    options.idle_timeout_s = 0.1;
    svc::Server server(options);
    server.start();

    svc::ClientOptions copt;
    copt.read_timeout_s = 5.0; // backstop: the test must not hang
    svc::Client client("127.0.0.1", server.port(), copt);
    // Quiet interval 1: probe.
    const auto probe = client.read();
    ASSERT_TRUE(probe.has_value());
    EXPECT_EQ(probe->at("event").as_string(), "heartbeat");
    // Quiet interval 2 (probe unanswered): close.
    EXPECT_FALSE(client.read().has_value());

    server.stop(/*drain=*/true);
    server.wait();
}

// ---- client timeouts + retry policy (satellite 1) ---------------------

TEST(ClientTimeouts, ReadTimeoutSurfacesAsIoError) {
    // A listener that accepts connections but never writes: reads must
    // time out instead of blocking forever.
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 1), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    const int port = ntohs(addr.sin_port);

    svc::ClientOptions copt;
    copt.read_timeout_s = 0.1;
    svc::Client client("127.0.0.1", port, copt);
    EXPECT_THROW((void)client.request(json::parse(R"({"op":"ping"})")),
                 IoError);
    ::close(listener);
}

TEST(ClientTimeouts, ConnectToDeadPortIsDiagnosedNotStuck) {
    // Bind-then-close reserves a port that is very likely unused.
    const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(probe, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(probe, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    const int dead_port = ntohs(addr.sin_port);
    ::close(probe);

    svc::ClientOptions copt;
    copt.connect_timeout_s = 0.5;
    EXPECT_THROW(svc::Client("127.0.0.1", dead_port, copt), IoError);

    svc::RetryPolicy policy;
    policy.attempts = 2;
    policy.backoff_initial_s = 0.01;
    policy.backoff_max_s = 0.02;
    EXPECT_THROW((void)svc::connect_with_retry("127.0.0.1", dead_port, copt,
                                               policy),
                 IoError);
}

TEST(RetryPolicy, BackoffIsCappedJitteredAndDeterministic) {
    svc::RetryPolicy policy;
    policy.backoff_initial_s = 0.1;
    policy.backoff_max_s = 0.8;
    double prev_base = 0.0;
    for (int retry = 1; retry <= 8; ++retry) {
        const double d = policy.delay_s(retry);
        const double base =
            std::min(0.1 * std::pow(2.0, retry - 1), policy.backoff_max_s);
        EXPECT_GE(d, 0.5 * base) << "retry " << retry;
        EXPECT_LT(d, base) << "retry " << retry;
        EXPECT_GE(base, prev_base); // capped exponential, monotone
        prev_base = base;
        EXPECT_EQ(d, policy.delay_s(retry)); // keyed jitter: reproducible
    }
    svc::RetryPolicy other = policy;
    other.jitter_seed = 2;
    EXPECT_NE(other.delay_s(3), policy.delay_s(3)); // seeds decorrelate
}

TEST(RetryPolicy, IdempotencyKeyIsCanonical) {
    json::Value a{json::Object{}};
    a.set("op", "submit");
    a.set("circuit", json::parse(R"({"builtin":"mesh:3x3"})"));
    a.set("spec", json::parse(R"({"kind":"op"})"));
    // Same payload assembled in a different field order.
    json::Value b{json::Object{}};
    b.set("spec", json::parse(R"({"kind":"op"})"));
    b.set("op", "submit");
    b.set("circuit", json::parse(R"({"builtin":"mesh:3x3"})"));
    EXPECT_EQ(svc::idempotency_key(a), svc::idempotency_key(b));
    EXPECT_EQ(svc::idempotency_key(a).size(), 16U);

    json::Value c{json::Object{}};
    c.set("op", "submit");
    c.set("circuit", json::parse(R"({"builtin":"mesh:4x4"})"));
    c.set("spec", json::parse(R"({"kind":"op"})"));
    EXPECT_NE(svc::idempotency_key(a), svc::idempotency_key(c));
}

} // namespace
} // namespace nanosim
