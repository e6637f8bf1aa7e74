// Transient engines validated on LINEAR circuits where closed-form
// solutions exist: RC step response, RL current ramp, integration-order
// checks, breakpoint landing, and cross-engine agreement.
#include <gtest/gtest.h>

#include <cmath>

#include "core/ref_circuits.hpp"
#include "devices/passives.hpp"
#include "devices/sources.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

using engines::NrTranOptions;
using engines::SwecTranOptions;
using engines::TranResult;

/// RC charging from 0: v(t) = V (1 - e^{-t/RC}).
double rc_analytic(double v_src, double r, double c, double t) {
    return v_src * (1.0 - std::exp(-t / (r * c)));
}

TEST(TranNr, RcStepResponseBackwardEuler) {
    Circuit ckt = refckt::rc_lowpass(1e3, 1e-9, 1.0); // tau = 1 us
    const mna::MnaAssembler assembler(ckt);
    NrTranOptions opt;
    opt.t_stop = 5e-6;
    opt.dt_init = 5e-9;
    opt.dt_max = 5e-9; // fixed fine step
    opt.start_from_dc = false;
    const TranResult res = engines::run_tran_nr(assembler, opt);
    const auto& out = res.node(ckt, "out");
    for (const double t : {0.5e-6, 1e-6, 2e-6, 4e-6}) {
        EXPECT_NEAR(out.at(t), rc_analytic(1.0, 1e3, 1e-9, t), 5e-3)
            << "t=" << t;
    }
    EXPECT_EQ(res.nonconverged_steps, 0);
}

TEST(TranNr, BackwardEulerIsFirstOrder) {
    // Halving dt must cut the backward-Euler error ~2x (first order).
    const auto max_err = [](double dt) {
        Circuit ckt = refckt::rc_lowpass(1e3, 1e-9, 1.0);
        const mna::MnaAssembler assembler(ckt);
        NrTranOptions opt;
        opt.t_stop = 2e-6;
        opt.dt_init = dt;
        opt.dt_max = dt;
        opt.start_from_dc = false;
        opt.lte_tol = 1e9; // disable step control: fixed-step study
        const TranResult res = engines::run_tran_nr(assembler, opt);
        const auto& out = res.node(ckt, "out");
        double worst = 0.0;
        for (std::size_t i = 0; i < out.size(); ++i) {
            worst = std::max(worst,
                             std::abs(out.value_at(i) -
                                      rc_analytic(1.0, 1e3, 1e-9,
                                                  out.time_at(i))));
        }
        return worst;
    };

    const double be1 = max_err(40e-9);
    const double be2 = max_err(20e-9);
    EXPECT_NEAR(be1 / be2, 2.0, 0.5);
}

TEST(TranSwec, RcStepMatchesAnalytic) {
    Circuit ckt = refckt::rc_lowpass(1e3, 1e-9, 1.0);
    const mna::MnaAssembler assembler(ckt);
    SwecTranOptions opt;
    opt.t_stop = 5e-6;
    opt.dt_init = 5e-9;
    opt.dt_max = 20e-9;
    opt.start_from_dc = false;
    const TranResult res = engines::run_tran_swec(assembler, opt);
    const auto& out = res.node(ckt, "out");
    for (const double t : {0.5e-6, 1e-6, 2e-6, 4e-6}) {
        EXPECT_NEAR(out.at(t), rc_analytic(1.0, 1e3, 1e-9, t), 1e-2)
            << "t=" << t;
    }
    EXPECT_EQ(res.nr_iterations, 0) << "SWEC must never iterate";
}

TEST(TranSwec, AgreesWithNrOnLinearCircuit) {
    Circuit ckt = refckt::rc_lowpass(2e3, 0.5e-9, 2.0);
    const mna::MnaAssembler assembler(ckt);
    SwecTranOptions sopt;
    sopt.t_stop = 4e-6;
    sopt.dt_init = 4e-9;
    sopt.dt_max = 4e-9;
    sopt.adaptive = false;
    sopt.start_from_dc = false;
    NrTranOptions nopt;
    nopt.t_stop = 4e-6;
    nopt.dt_init = 4e-9;
    nopt.dt_max = 4e-9;
    nopt.start_from_dc = false;
    const TranResult s = engines::run_tran_swec(assembler, sopt);
    const TranResult n = engines::run_tran_nr(assembler, nopt);
    // Same integration (BE) and same fixed grid: nearly identical.
    EXPECT_LT(analysis::measure::max_abs_error(s.node(ckt, "out"),
                                               n.node(ckt, "out")),
              1e-6);
}

TEST(TranSwec, InductorBranchRlDynamics) {
    // V -> L -> R: i(t) = V/R (1 - e^{-tR/L}); node voltage across R.
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    ckt.add<VSource>("V1", in, k_ground, 1.0);
    ckt.add<Inductor>("L1", in, out, 1e-6);
    ckt.add<Resistor>("R1", out, k_ground, 10.0);
    // Parasitic node cap keeps every node dynamic (realistic and good
    // for SWEC's node-RC bound).
    ckt.add<Capacitor>("C1", out, k_ground, 1e-13);
    const mna::MnaAssembler assembler(ckt);
    SwecTranOptions opt;
    opt.t_stop = 5e-7; // 5 tau, tau = L/R = 0.1 us
    opt.dt_init = 2e-10;
    opt.dt_max = 1e-9;
    opt.start_from_dc = false;
    const TranResult res = engines::run_tran_swec(assembler, opt);
    const auto& out_w = res.node(ckt, "out");
    const double tau = 1e-6 / 10.0;
    for (const double t : {0.1e-6, 0.2e-6, 0.4e-6}) {
        const double expected = 1.0 * (1.0 - std::exp(-t / tau));
        EXPECT_NEAR(out_w.at(t), expected, 0.02) << "t=" << t;
    }
}

TEST(TranSwec, LandsOnBreakpoints) {
    // A pulse edge at 50 ns must appear exactly as a time point.
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    ckt.add<VSource>("V1", in, k_ground,
                     std::make_shared<PulseWave>(0.0, 1.0, 50e-9, 1e-9,
                                                 1e-9, 100e-9, 400e-9));
    ckt.add<Resistor>("R1", in, out, 1e3);
    ckt.add<Capacitor>("C1", out, k_ground, 1e-12);
    const mna::MnaAssembler assembler(ckt);
    SwecTranOptions opt;
    opt.t_stop = 200e-9;
    opt.start_from_dc = false;
    const TranResult res = engines::run_tran_swec(assembler, opt);
    const auto& t = res.node(ckt, "out").time();
    bool found = false;
    for (const double tt : t) {
        if (std::abs(tt - 50e-9) < 1e-15) {
            found = true;
        }
    }
    EXPECT_TRUE(found) << "pulse corner not landed on";
}

TEST(TranSwec, OptionValidation) {
    Circuit ckt = refckt::rc_lowpass();
    const mna::MnaAssembler assembler(ckt);
    SwecTranOptions opt; // t_stop unset
    EXPECT_THROW((void)engines::run_tran_swec(assembler, opt),
                 AnalysisError);
    opt.t_stop = 1e-6;
    opt.eps = -1.0;
    EXPECT_THROW((void)engines::run_tran_swec(assembler, opt),
                 AnalysisError);
    opt.eps = 0.05;
    opt.initial = linalg::Vector{1.0}; // wrong size
    EXPECT_THROW((void)engines::run_tran_swec(assembler, opt),
                 AnalysisError);
}

TEST(TranPwl, RcStepMatchesAnalytic) {
    Circuit ckt = refckt::rc_lowpass(1e3, 1e-9, 1.0);
    const mna::MnaAssembler assembler(ckt);
    engines::PwlTranOptions opt;
    opt.t_stop = 5e-6;
    opt.dt_init = 5e-9;
    opt.dt_max = 10e-9;
    opt.start_from_dc = false;
    const TranResult res = engines::run_tran_pwl(assembler, opt);
    const auto& out = res.node(ckt, "out");
    for (const double t : {1e-6, 3e-6}) {
        EXPECT_NEAR(out.at(t), rc_analytic(1.0, 1e3, 1e-9, t), 2e-2)
            << "t=" << t;
    }
}

TEST(TranResultApi, NodeLookupByName) {
    Circuit ckt = refckt::rc_lowpass();
    const mna::MnaAssembler assembler(ckt);
    SwecTranOptions opt;
    opt.t_stop = 1e-6;
    opt.start_from_dc = false;
    const TranResult res = engines::run_tran_swec(assembler, opt);
    EXPECT_EQ(res.node(ckt, "out").label(), "v(out)");
    EXPECT_THROW((void)res.node(ckt, "bogus"), NetlistError);
    EXPECT_GT(res.steps_accepted, 0);
    EXPECT_GT(res.min_dt_used, 0.0);
    EXPECT_GE(res.max_dt_used, res.min_dt_used);
}

} // namespace
} // namespace nanosim
