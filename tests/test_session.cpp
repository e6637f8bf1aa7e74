// Tests for the AnalysisSpec/SimSession API: parity (session results are
// bit-identical to direct engine calls; a Monte-Carlo campaign agrees to
// 1e-12), the persistent solver-cache registry (a second analysis on an
// unchanged circuit runs ZERO new symbolic factorisations), the swept
// source's restore on every exit of a DC sweep, and the deck-card -> spec
// mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "devices/sources.hpp"
#include "engines/dc_mla.hpp"
#include "engines/dc_nr.hpp"
#include "engines/dc_swec.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "engines/tran_swec.hpp"
#include "runtime/params.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

/// Reference-circuit table for the parity suite: factory + the swept
/// source + a sensible transient horizon.  All of these sit on the dense
/// solver path (<= 64 unknowns), where every solve is an independent LU
/// — so session-vs-direct results must match BIT for BIT.
struct ParityCase {
    const char* label;
    std::function<Circuit()> make;
    const char* source;   ///< swept V source
    double sweep_stop;
    double sweep_step;
    double t_stop;
};

const std::vector<ParityCase>& parity_cases() {
    static const std::vector<ParityCase> cases = {
        {"rtd_divider", [] { return refckt::rtd_divider(); }, "V1", 3.0,
         0.25, 50e-9},
        {"nanowire_divider", [] { return refckt::nanowire_divider(); }, "V1",
         2.0, 0.25, 50e-9},
        {"fet_rtd_inverter", [] { return refckt::fet_rtd_inverter(); },
         "VDD", 3.0, 0.5, 100e-9},
        {"rc_lowpass", [] { return refckt::rc_lowpass(); }, "V1", 1.0, 0.25,
         5e-6},
        {"rtd_chain4",
         [] {
             refckt::ChainSpec spec;
             spec.stages = 4;
             return refckt::rtd_chain(spec);
         },
         "V1", 2.0, 0.5, 50e-9},
        {"rc_mesh6x6", [] { return refckt::rc_mesh(6, 6); }, "VIN", 2.0,
         0.5, 20e-9},
    };
    return cases;
}

/// DC sweep of `source` straight through the engine's Circuit-level
/// entry point.
engines::SweepResult direct_sweep(
    DcEngine engine, Circuit& ckt, const std::string& source,
    const linalg::Vector& values,
    const engines::AnalysisObserver* observer = nullptr) {
    switch (engine) {
    case DcEngine::swec:
        return engines::dc_sweep_swec(ckt, source, values, {}, observer);
    case DcEngine::newton_raphson:
        return engines::dc_sweep_nr(ckt, source, values, {}, observer);
    case DcEngine::mla:
        return engines::dc_sweep_mla(ckt, source, values, {}, observer);
    }
    return {};
}

TEST(SessionParity, OperatingPointBitIdenticalAllEngines) {
    for (const auto& c : parity_cases()) {
        SCOPED_TRACE(c.label);
        for (const DcEngine engine :
             {DcEngine::swec, DcEngine::newton_raphson, DcEngine::mla}) {
            SCOPED_TRACE(engine_name(engine));
            // Direct engine call on a fresh assembly...
            const Circuit direct_ckt = c.make();
            const mna::MnaAssembler assembler(direct_ckt);
            engines::DcResult direct;
            switch (engine) {
            case DcEngine::swec:
                direct = engines::solve_op_swec(assembler);
                break;
            case DcEngine::newton_raphson:
                direct = engines::solve_op_nr(assembler);
                break;
            case DcEngine::mla:
                direct = engines::solve_op_mla(assembler);
                break;
            }
            // ...vs a fresh session running the equivalent spec.
            SimSession session(c.make());
            OpSpec spec;
            spec.engine = engine;
            const AnalysisResult result = session.run(spec);
            EXPECT_EQ(result.header.kind, AnalysisKind::op);
            EXPECT_EQ(result.dc().converged, direct.converged);
            EXPECT_EQ(result.dc().iterations, direct.iterations);
            ASSERT_EQ(result.dc().x.size(), direct.x.size());
            EXPECT_EQ(result.dc().x, direct.x); // bit-identical
        }
    }
}

TEST(SessionParity, TransientBitIdenticalAllEngines) {
    for (const auto& c : parity_cases()) {
        SCOPED_TRACE(c.label);
        for (const TranEngine engine :
             {TranEngine::swec, TranEngine::newton_raphson,
              TranEngine::pwl}) {
            SCOPED_TRACE(engine_name(engine));
            const Circuit direct_ckt = c.make();
            const mna::MnaAssembler assembler(direct_ckt);
            engines::TranResult direct;
            switch (engine) {
            case TranEngine::swec: {
                engines::SwecTranOptions o;
                o.t_stop = c.t_stop;
                direct = engines::run_tran_swec(assembler, o);
                break;
            }
            case TranEngine::newton_raphson: {
                engines::NrTranOptions o;
                o.t_stop = c.t_stop;
                direct = engines::run_tran_nr(assembler, o);
                break;
            }
            case TranEngine::pwl: {
                engines::PwlTranOptions o;
                o.t_stop = c.t_stop;
                direct = engines::run_tran_pwl(assembler, o);
                break;
            }
            }

            SimSession session(c.make());
            TranSpec spec;
            spec.engine = engine;
            spec.t_stop = c.t_stop;
            const AnalysisResult result = session.run(spec);
            const engines::TranResult& tran = result.tran();
            EXPECT_EQ(tran.steps_accepted, direct.steps_accepted);
            ASSERT_EQ(tran.node_waves.size(), direct.node_waves.size());
            for (std::size_t n = 0; n < tran.node_waves.size(); ++n) {
                EXPECT_EQ(tran.node_waves[n].time(),
                          direct.node_waves[n].time());
                EXPECT_EQ(tran.node_waves[n].value(),
                          direct.node_waves[n].value()); // bit-identical
            }
        }
    }
}

TEST(SessionParity, DcSweepBitIdenticalAllEngines) {
    for (const auto& c : parity_cases()) {
        SCOPED_TRACE(c.label);
        for (const DcEngine engine :
             {DcEngine::swec, DcEngine::newton_raphson, DcEngine::mla}) {
            SCOPED_TRACE(engine_name(engine));
            DcSweepSpec spec;
            spec.engine = engine;
            spec.source = c.source;
            spec.start = 0.0;
            spec.stop = c.sweep_stop;
            spec.step = c.sweep_step;
            const linalg::Vector values = spec.values();

            Circuit direct_ckt = c.make();
            const engines::SweepResult direct =
                direct_sweep(engine, direct_ckt, c.source, values);

            SimSession session(c.make());
            const AnalysisResult result = session.run(spec);
            const engines::SweepResult& sweep = result.sweep();
            EXPECT_EQ(sweep.values, direct.values);
            EXPECT_EQ(sweep.converged, direct.converged);
            ASSERT_EQ(sweep.solutions.size(), direct.solutions.size());
            for (std::size_t k = 0; k < sweep.solutions.size(); ++k) {
                EXPECT_EQ(sweep.solutions[k], direct.solutions[k]);
            }
        }
    }
}

TEST(SessionParity, MonteCarloWithin1e12OfPerCallCampaign) {
    // A campaign on a session whose cache already served an operating
    // point and a transient agrees to 1e-12 with a per-call campaign on a
    // cache of its own: on the dense inverter and on a 16x16 mesh, where
    // the sparse path reuses stale factors.  Trials start from each
    // path's operating point and march on the noise grid.
    struct McCase {
        const char* label;
        Circuit (*make)();
        const char* node;
        double t_stop;
        double noise_dt;
    };
    const McCase cases[] = {
        {"fet_rtd_inverter",
         [] {
             Circuit ckt = refckt::fet_rtd_inverter();
             ckt.add<NoiseCurrentSource>("NOISE1", k_ground,
                                         ckt.find_node("out"), 1e-9);
             return ckt;
         },
         "out", 20e-9, 1e-9},
        {"rc_mesh16x16",
         [] {
             Circuit ckt = refckt::rc_mesh(16, 16);
             ckt.add<NoiseCurrentSource>("NOISE1", k_ground,
                                         ckt.find_node("n8_8"), 1e-9);
             return ckt;
         },
         "n8_8", 5e-9, 2.5e-10},
    };
    for (const McCase& c : cases) {
        SCOPED_TRACE(c.label);
        engines::McOptions mc;
        mc.runs = 10;
        mc.t_stop = c.t_stop;
        mc.noise_dt = c.noise_dt;
        mc.grid_points = 26;
        mc.tran.start_from_dc = false;
        mc.tran.adaptive = false;
        mc.tran.dt_init = c.noise_dt;

        SimSession session(c.make());
        const AnalysisResult op = session.run(OpSpec{});
        TranSpec tran;
        tran.t_stop = c.t_stop;
        (void)session.run(tran);
        MonteCarloSpec spec;
        spec.node = c.node;
        spec.runs = mc.runs;
        spec.t_stop = mc.t_stop;
        spec.noise_dt = mc.noise_dt;
        spec.grid_points = mc.grid_points;
        spec.tran = mc.tran;
        spec.tran.initial = op.dc().x;
        const AnalysisResult in_session = session.run(spec);

        const Circuit ckt = c.make();
        const mna::MnaAssembler assembler(ckt);
        mc.tran.initial = engines::solve_op_swec(assembler).x;
        const engines::McResult per_call = engines::run_monte_carlo(
            assembler, mc, spec.seed, ckt.find_node(c.node));

        const engines::McResult& a = in_session.monte_carlo();
        ASSERT_EQ(a.mean.size(), per_call.mean.size());
        double dev = 0.0;
        for (std::size_t j = 0; j < a.mean.size(); ++j) {
            dev = std::max(dev, std::abs(a.mean.value_at(j) -
                                         per_call.mean.value_at(j)));
            dev = std::max(dev, std::abs(a.stddev.value_at(j) -
                                         per_call.stddev.value_at(j)));
        }
        EXPECT_LE(dev, 1e-12);
    }
}

// ---- persistent cache ------------------------------------------------

TEST(SessionCache, SecondAnalysisRunsZeroNewSymbolicFactorisations) {
    // 10x10 mesh: 101 unknowns -> sparse path with a real symbolic
    // analysis to reuse.
    SimSession session(refckt::rc_mesh(10, 10));
    TranSpec tran;
    tran.t_stop = 20e-9;

    const AnalysisResult first = session.run(tran);
    EXPECT_EQ(first.report.full_factors, 1u);
    EXPECT_GT(first.report.fast_refactors, 0u);

    // Unchanged circuit: the sweep, the repeat transient and the op all
    // refactor through the frozen pattern — zero new symbolic work.
    const AnalysisResult second = session.run(tran);
    EXPECT_EQ(second.report.full_factors, 0u);
    EXPECT_GT(second.report.fast_refactors, 0u);

    const AnalysisResult op = session.run(OpSpec{});
    EXPECT_EQ(op.report.full_factors, 0u);
    EXPECT_GT(op.report.fast_refactors, 0u);

    DcSweepSpec dc;
    dc.source = "VIN";
    dc.start = 0.0;
    dc.stop = 2.0;
    dc.step = 0.5;
    const AnalysisResult sweep = session.run(dc);
    EXPECT_EQ(sweep.report.full_factors, 0u);
    EXPECT_GT(sweep.report.fast_refactors, 0u);

    EXPECT_EQ(session.cache_count(), 1u);
    EXPECT_EQ(first.header.cache_signature, second.header.cache_signature);
}

TEST(SessionCache, MonteCarloTrialsShareOneSymbolicAnalysis) {
    Circuit mesh = refckt::rc_mesh(10, 10);
    mesh.add<NoiseCurrentSource>("NOISE1", k_ground,
                                 mesh.find_node("n5_5"), 1e-9);
    SimSession session(std::move(mesh));

    MonteCarloSpec mc;
    mc.node = "n5_5";
    mc.t_stop = 5e-9;
    mc.runs = 5;
    mc.grid_points = 11;
    const AnalysisResult result = session.run(mc);
    // 5 trials (plus the per-trial DC initial conditions) -> exactly one
    // symbolic factorisation for the whole analysis.
    EXPECT_EQ(result.report.full_factors, 1u);
    EXPECT_GT(result.report.fast_refactors, 0u);

    // And a follow-up analysis still pays nothing.
    const AnalysisResult op = session.run(OpSpec{});
    EXPECT_EQ(op.report.full_factors, 0u);

    // Two workers: the session cache plus one cache for the second
    // worker, each analysed at most once for the whole campaign.
    mc.parallel = true;
    mc.threads = 2;
    mc.runs = 8;
    const AnalysisResult wide = session.run(mc);
    EXPECT_EQ(wide.monte_carlo().stats.paths(), 8u);
    EXPECT_LE(wide.report.full_factors, 2u);
    EXPECT_GT(wide.report.fast_refactors, 0u);

    // EM runs on the session cache too: one symbolic factorisation for
    // the DC start and every path, and the DC start is solved once per
    // ensemble, so P more paths cost exactly P x steps more solves.
    Circuit em_mesh = refckt::rc_mesh(10, 10);
    em_mesh.add<NoiseCurrentSource>("NOISE1", k_ground,
                                    em_mesh.find_node("n5_5"), 1e-9);
    SimSession em_session(std::move(em_mesh));
    EnsembleSpec em;
    em.node = "n5_5";
    em.t_stop = 1e-9;
    em.dt = 1e-11; // 100 steps
    em.scheme = engines::EmScheme::implicit_be;
    em.start_from_dc = true;
    em.paths = 3;
    const AnalysisResult three = em_session.run(em);
    EXPECT_EQ(three.report.full_factors, 1u);
    em.paths = 6;
    const AnalysisResult six = em_session.run(em);
    const auto solves = [](const obs::SolverWork& w) {
        return w.full_factors + w.fast_refactors + w.refactors_skipped +
               w.dense_solves;
    };
    EXPECT_EQ(solves(six.report) - solves(three.report),
              3u * 100u);
}

TEST(SessionCache, RebindAfterParameterTweakKeepsSymbolicAnalysis) {
    SimSession session(refckt::rc_mesh(10, 10));
    const AnalysisResult first = session.run(OpSpec{});
    EXPECT_EQ(first.report.full_factors, 1u);
    const std::uint64_t sig = session.pattern_signature();

    // A value-only tweak keeps the stamp pattern: after reassemble the
    // cache is rebound, not rebuilt — the next analysis refactors.
    runtime::set_device_param(session.circuit(), "RDRV", "R", 123.0);
    session.reassemble();
    EXPECT_EQ(session.pattern_signature(), sig);
    EXPECT_EQ(session.cache_count(), 1u);

    const AnalysisResult second = session.run(OpSpec{});
    EXPECT_EQ(second.report.full_factors, 0u);
    EXPECT_GT(second.report.fast_refactors, 0u);
}

// ---- source restore --------------------------------------------------

const char* const k_pulse_divider = R"(
V1 in 0 PULSE(0 2 10n 1n 1n 50n 100n)
R1 in out 50
RTD1 out 0
)";

const WaveformPtr& v1_wave(const Circuit& ckt) {
    return ckt.get<VSource>("V1").wave_ptr();
}

/// The swept source's stimulus before and after one way of running (or
/// abandoning) a sweep.  Holding `before` keeps the original alive, so
/// a replacement can never reuse its address.
struct Stimulus {
    WaveformPtr before;
    WaveformPtr after;
};

struct RestoreCase {
    const char* label;
    std::function<Stimulus(DcEngine)> run;
};

TEST(SweepRestore, OriginalStimulusBackOnEveryExitAllEngines) {
    const linalg::Vector values = {0.0, 0.5, 1.0, 1.5, 2.0};
    const std::vector<RestoreCase> cases = {
        {"circuit sweep",
         [&](DcEngine engine) {
             Circuit ckt = parse_deck(k_pulse_divider).circuit;
             const WaveformPtr before = v1_wave(ckt);
             EXPECT_EQ(direct_sweep(engine, ckt, "V1", values).values.size(),
                       5u);
             return Stimulus{before, v1_wave(ckt)};
         }},
        {"session sweep",
         [](DcEngine engine) {
             SimSession session = SimSession::from_deck(k_pulse_divider);
             const WaveformPtr before = v1_wave(session.circuit());
             DcSweepSpec spec;
             spec.engine = engine;
             spec.source = "V1";
             spec.start = 0.0;
             spec.stop = 2.0;
             spec.step = 0.5;
             EXPECT_EQ(session.run(spec).sweep().values.size(), 5u);
             return Stimulus{before, v1_wave(session.circuit())};
         }},
        {"cancelled after two points",
         [&](DcEngine engine) {
             Circuit ckt = parse_deck(k_pulse_divider).circuit;
             const WaveformPtr before = v1_wave(ckt);
             int trials = 0;
             engines::AnalysisObserver obs;
             obs.on_trial = [&trials](int, int) { ++trials; };
             obs.cancel = [&trials] { return trials >= 2; };
             const engines::SweepResult res =
                 direct_sweep(engine, ckt, "V1", values, &obs);
             EXPECT_TRUE(res.aborted);
             EXPECT_EQ(res.values.size(), 2u);
             return Stimulus{before, v1_wave(ckt)};
         }},
        {"observer throws",
         [&](DcEngine engine) {
             Circuit ckt = parse_deck(k_pulse_divider).circuit;
             const WaveformPtr before = v1_wave(ckt);
             engines::AnalysisObserver obs;
             obs.on_trial = [](int done, int) {
                 if (done == 2) {
                     throw std::runtime_error("observer failure");
                 }
             };
             EXPECT_THROW((void)direct_sweep(engine, ckt, "V1", values, &obs),
                          std::runtime_error);
             return Stimulus{before, v1_wave(ckt)};
         }},
    };
    for (const RestoreCase& c : cases) {
        SCOPED_TRACE(c.label);
        for (const DcEngine engine :
             {DcEngine::swec, DcEngine::newton_raphson, DcEngine::mla}) {
            SCOPED_TRACE(engine_name(engine));
            const Stimulus s = c.run(engine);
            ASSERT_NE(s.before, nullptr);
            // The EXACT original PULSE object is back, not a DC snapshot.
            EXPECT_EQ(s.after.get(), s.before.get());
        }
    }
}

// ---- spec plumbing ---------------------------------------------------

TEST(SessionSpecs, DeckCardsMapOntoSpecs) {
    SimSession session = SimSession::from_deck(R"(
V1 in 0 DC 1
R1 in out 50
RTD1 out 0
.op
.dc V1 0 2 0.5
.tran 1n 100n
)");
    const auto specs = SimSession::specs_from_deck(
        session.deck_analyses(), DcEngine::mla, TranEngine::pwl);
    ASSERT_EQ(specs.size(), 3u);
    ASSERT_TRUE(std::holds_alternative<OpSpec>(specs[0]));
    EXPECT_EQ(std::get<OpSpec>(specs[0]).engine, DcEngine::mla);
    const auto& dc = std::get<DcSweepSpec>(specs[1]);
    EXPECT_EQ(dc.source, "V1");
    EXPECT_DOUBLE_EQ(dc.stop, 2.0);
    EXPECT_EQ(dc.engine, DcEngine::mla);
    const auto& tran = std::get<TranSpec>(specs[2]);
    EXPECT_DOUBLE_EQ(tran.t_stop, 100e-9);
    EXPECT_DOUBLE_EQ(tran.common.dt_init, 1e-9);
    EXPECT_EQ(tran.engine, TranEngine::pwl);
}

TEST(SessionSpecs, RunDeckExecutesEveryCard) {
    SimSession session = SimSession::from_deck(R"(
V1 in 0 DC 1
R1 in out 50
RTD1 out 0
.op
.tran 1n 50n
)");
    const auto results = session.run_deck();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].header.kind, AnalysisKind::op);
    EXPECT_TRUE(results[0].dc().converged);
    EXPECT_EQ(results[1].header.kind, AnalysisKind::tran);
    EXPECT_GT(results[1].tran().steps_accepted, 0);
    EXPECT_GE(results[1].header.elapsed_s, 0.0);
}

TEST(SessionSpecs, ResultAccessorMismatchThrows) {
    SimSession session(refckt::rtd_divider());
    const AnalysisResult op = session.run(OpSpec{});
    EXPECT_THROW((void)op.tran(), AnalysisError);
    EXPECT_THROW((void)op.sweep(), AnalysisError);
    EXPECT_NO_THROW((void)op.dc());
    EXPECT_STREQ(analysis_kind_name(op.header.kind), "op");
    EXPECT_EQ(op.header.engine, "swec");
}

TEST(SessionSpecs, BadSweepSpecThrows) {
    SimSession session(refckt::rtd_divider());
    DcSweepSpec bad;
    bad.source = "V1";
    bad.start = 0.0;
    bad.stop = 5.0;
    bad.step = -0.5; // wrong direction
    EXPECT_THROW((void)session.run(bad), AnalysisError);
    bad.step = 0.5;
    bad.source = "R1"; // not a V or I source
    EXPECT_THROW((void)session.run(bad), NetlistError);
    bad.source = "nope";
    EXPECT_THROW((void)session.run(bad), NetlistError);
}

TEST(SessionSpecs, DcCardsKeepTheEndpointOnEveryEngine) {
    // 0.3 / 0.1 and 0.7 / 0.1 land a rounding error below 3 and 7; the
    // sweep must still reach `stop` on the card's step.  5 / 0.1 is
    // exactly 50.  0.35 / 0.1 is no whole number: the sweep keeps the
    // card's step and ends at 0.3, short of `stop`.
    SimSession session = SimSession::from_deck(R"(
V1 in 0 DC 1
R1 in out 50
RTD1 out 0
.dc V1 0 0.3 0.1
.dc V1 0 0.7 0.1
.dc V1 0 5 0.1
.dc V1 0 0.35 0.1
)");
    const std::vector<std::size_t> points = {4, 8, 51, 4};
    const std::vector<double> last = {0.3, 0.7, 5.0, 0.3};
    for (const DcEngine engine :
         {DcEngine::swec, DcEngine::newton_raphson, DcEngine::mla}) {
        SCOPED_TRACE(engine_name(engine));
        const std::vector<AnalysisSpec> specs =
            SimSession::specs_from_deck(session.deck_analyses(), engine);
        ASSERT_EQ(specs.size(), points.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto& spec = std::get<DcSweepSpec>(specs[i]);
            const linalg::Vector values = spec.values();
            ASSERT_EQ(values.size(), points[i]) << "stop " << spec.stop;
            EXPECT_DOUBLE_EQ(values.front(), 0.0);
            EXPECT_DOUBLE_EQ(values.back(), last[i]);
            for (std::size_t k = 0; k < values.size(); ++k) {
                EXPECT_NEAR(values[k], 0.1 * static_cast<double>(k), 1e-12)
                    << "stop " << spec.stop << " point " << k;
            }
            const AnalysisResult result = session.run(spec);
            EXPECT_EQ(result.sweep().values, values);
            EXPECT_EQ(result.sweep().failures(), 0);
        }
    }
}

TEST(SessionSpecs, EnsembleAndMonteCarloRunThroughSession) {
    SimSession session(refckt::noisy_rc());
    EnsembleSpec em;
    em.node = "n1";
    em.t_stop = 1e-9;
    em.dt = 2e-11;
    em.scheme = engines::EmScheme::implicit_be;
    em.paths = 8;
    const AnalysisResult ens = session.run(em);
    EXPECT_EQ(ens.header.kind, AnalysisKind::ensemble);
    EXPECT_EQ(ens.header.engine, "em-implicit");
    EXPECT_EQ(ens.ensemble().grid.size(), 51u);

    MonteCarloSpec mc;
    mc.node = "n1";
    mc.t_stop = 1e-9;
    mc.runs = 3;
    mc.grid_points = 11;
    const AnalysisResult mcr = session.run(mc);
    EXPECT_EQ(mcr.header.kind, AnalysisKind::monte_carlo);
    EXPECT_EQ(mcr.monte_carlo().stats.at(0).count(), 3u);
}

} // namespace
} // namespace nanosim
