// End-to-end tests of the simulator's front door, SimSession +
// AnalysisSpec: deck loading, engine selection and the deck-to-analysis
// flow a downstream user follows.
#include <gtest/gtest.h>

#include <cmath>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "core/version.hpp"
#include "devices/passives.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

const char* k_divider_deck = R"(
.title rtd divider
V1 in 0 DC 1
R1 in out 50
RTD1 out 0
.op
.dc V1 0 5 0.5
)";

engines::DcResult operating_point(SimSession& session, DcEngine engine) {
    OpSpec spec;
    spec.engine = engine;
    return session.run(spec).dc();
}

TEST(SimulatorSession, FromDeckRunsOperatingPoint) {
    SimSession session = SimSession::from_deck(k_divider_deck);
    EXPECT_EQ(session.deck_analyses().size(), 2u);
    const auto op = operating_point(session, DcEngine::swec);
    EXPECT_TRUE(op.converged);
    // out node voltage below the 1 V source.
    const auto v = session.assembler().view(op.x);
    const double out = v(session.circuit().find_node("out"));
    EXPECT_GT(out, 0.0);
    EXPECT_LT(out, 1.0);
}

TEST(SimulatorSession, AllDcEnginesAgreeOnEasyPoint) {
    SimSession session = SimSession::from_deck(k_divider_deck);
    const auto swec = operating_point(session, DcEngine::swec);
    const auto nr = operating_point(session, DcEngine::newton_raphson);
    const auto mla = operating_point(session, DcEngine::mla);
    ASSERT_TRUE(swec.converged && nr.converged && mla.converged);
    EXPECT_NEAR(swec.x[1], nr.x[1], 1e-4);
    EXPECT_NEAR(mla.x[1], nr.x[1], 1e-6);
}

TEST(SimulatorSession, DcSweepProducesAllPoints) {
    SimSession session = SimSession::from_deck(k_divider_deck);
    DcSweepSpec spec;
    spec.source = "V1";
    spec.start = 0.0;
    spec.stop = 5.0;
    spec.step = 0.25;
    const AnalysisResult sweep = session.run(spec);
    EXPECT_EQ(sweep.sweep().values.size(), 21u);
    EXPECT_EQ(sweep.sweep().failures(), 0);
    spec.step = -0.25;
    EXPECT_THROW((void)session.run(spec), AnalysisError);
}

TEST(SimulatorSession, TransientEnginesOnRcDeck) {
    SimSession session = SimSession::from_deck(R"(
V1 in 0 DC 1
R1 in out 1k
C1 out 0 1n
.tran 10n 5u
)");
    TranSpec spec;
    spec.t_stop = 5e-6;
    spec.start_from_dc = false;
    auto v_out_at_2tau = [&](TranEngine engine) {
        spec.engine = engine;
        const AnalysisResult tran = session.run(spec);
        return tran.tran().node(session.circuit(), "out").at(2e-6);
    };
    const double expected = 1.0 * (1.0 - std::exp(-2.0)); // at 2 tau
    EXPECT_NEAR(v_out_at_2tau(TranEngine::swec), expected, 0.02);
    EXPECT_NEAR(v_out_at_2tau(TranEngine::newton_raphson), expected, 0.02);
    EXPECT_NEAR(v_out_at_2tau(TranEngine::pwl), expected, 0.03);
}

TEST(SimulatorSession, StochasticSpecs) {
    SimSession session = SimSession::from_deck(R"(
I1 0 n1 DC 1m
R1 n1 0 1k
C1 n1 0 1p
NOISE1 0 n1 5e-9
)");
    EnsembleSpec em;
    em.node = "n1";
    em.t_stop = 5e-9;
    em.dt = 10e-12;
    em.paths = 100;
    const AnalysisResult ens = session.run(em);
    EXPECT_EQ(ens.ensemble().grid.size(), 501u);
    // Converges toward 1 V.
    EXPECT_NEAR(ens.ensemble().mean.value().back(), 1.0, 0.1);

    MonteCarloSpec mc;
    mc.node = "n1";
    mc.runs = 20;
    mc.t_stop = 5e-9;
    const AnalysisResult mcr = session.run(mc);
    EXPECT_NEAR(mcr.monte_carlo().mean.value().back(), 1.0, 0.1);
}

TEST(SimulatorSession, ReassembleAfterMutation) {
    SimSession session = SimSession::from_deck(k_divider_deck);
    const int before = session.assembler().unknowns();
    session.circuit().add<Capacitor>(
        "CX", session.circuit().find_node("out"), k_ground, 1e-12);
    session.reassemble();
    EXPECT_EQ(session.assembler().unknowns(), before); // caps add no unknowns
    EXPECT_NE(session.circuit().find("CX"), nullptr);
}

TEST(SimulatorSession, BadDeckPropagatesNetlistError) {
    EXPECT_THROW((void)SimSession::from_deck("Q1 a b c\n"), NetlistError);
    EXPECT_THROW((void)SimSession::from_deck_file("/no/such/file.cir"),
                 IoError);
}

TEST(SimulatorSession, VersionString) {
    EXPECT_STREQ(version_string(), "1.0.0");
}

} // namespace
} // namespace nanosim
