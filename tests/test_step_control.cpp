// Unit tests for the adaptive step controller (paper eqs. 10-12).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/ref_circuits.hpp"
#include "devices/passives.hpp"
#include "devices/sources.hpp"
#include "engines/step_control.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"

namespace nanosim {
namespace {

/// The two halves of the SWEC engine's eq. (12) bound at state (x, dvdt)
/// and t = 0, computed as its step proposal does: the device half from
/// the solver cache on the step's chords and rates, the node half from
/// the static + nonlinear node-diagonal conductances and the C diagonal.
struct Eq12 {
    double device;
    double node;
};

Eq12 engine_step_bounds(const mna::MnaAssembler& assembler,
                        const std::vector<double>& x,
                        const std::vector<double>& dvdt, double eps) {
    mna::SystemCache cache(assembler);
    const std::size_t nl = assembler.nonlinear_devices().size();
    std::vector<double> geq(nl, 0.0);
    std::vector<double> geq_rate(nl, 0.0);
    cache.eval_chords(x, dvdt, true, geq, geq_rate);
    const auto nn = static_cast<std::size_t>(assembler.num_nodes());
    std::vector<double> gdiag(nn, 0.0);
    for (const auto& e : assembler.static_g().entries()) {
        if (e.row == e.col && e.row < nn) {
            gdiag[e.row] += e.value;
        }
    }
    cache.swec_gdiag(0.0, geq, gdiag);
    std::vector<double> cdiag(nn, 0.0);
    for (std::size_t r = 0; r < nn; ++r) {
        cdiag[r] = assembler.c_csr().at(r, r);
    }
    return {cache.device_step_bound(x, dvdt, geq, geq_rate, eps),
            engines::swec_node_step_bound(cdiag, gdiag, dvdt, eps)};
}

Circuit driven_rc() {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add<ISource>("I1", k_ground, a, 1e-3);
    ckt.add<Resistor>("R1", a, k_ground, 1e3); // G = 1 mS
    ckt.add<Capacitor>("C1", a, k_ground, 1e-9);
    return ckt;
}

/// RC node: the bound should be eps * C / G while the node moves.
TEST(StepControl, NodeRcBoundMatchesClosedForm) {
    const Circuit ckt = driven_rc();
    const mna::MnaAssembler assembler(ckt);

    const std::vector<double> x{0.5};
    const std::vector<double> moving{1e6}; // strongly slewing
    const double eps = 0.05;
    const Eq12 bound = engine_step_bounds(assembler, x, moving, eps);
    EXPECT_TRUE(std::isinf(bound.device)) << "no nonlinear device";
    EXPECT_NEAR(bound.node, eps * 1e-9 / 1e-3, 1e-15); // eps * C/G = 50 ns
}

TEST(StepControl, ActivityGuardReleasesQuietNodes) {
    const Circuit ckt = driven_rc();
    const mna::MnaAssembler assembler(ckt);

    const std::vector<double> x{1.0};
    const std::vector<double> still{0.0}; // settled node
    const Eq12 bound = engine_step_bounds(assembler, x, still, 0.05);
    EXPECT_TRUE(std::isinf(std::min(bound.device, bound.node)))
        << "a quiescent node must not constrain the step";
}

TEST(StepControl, DeviceBoundDominatesWhenTighter) {
    // The MOSFET eq.-12 term: eps*2(VGS-Vth)/alpha, with a fast gate.
    Circuit ckt = refckt::fet_rtd_inverter();
    const mna::MnaAssembler assembler(ckt);
    const auto n = static_cast<std::size_t>(assembler.unknowns());
    std::vector<double> x(n, 0.0);
    std::vector<double> dvdt(n, 0.0);
    // vdd=5, in=2 (above Vth=1), out=2.5; gate slewing hard.
    x[static_cast<std::size_t>(ckt.find_node("vdd") - 1)] = 5.0;
    x[static_cast<std::size_t>(ckt.find_node("in") - 1)] = 2.0;
    x[static_cast<std::size_t>(ckt.find_node("out") - 1)] = 2.5;
    dvdt[static_cast<std::size_t>(ckt.find_node("in") - 1)] = 1e12;

    const Eq12 bound = engine_step_bounds(assembler, x, dvdt, 0.05);
    // MOSFET bound: 0.05 * 2 * (2-1) / 1e12 = 1e-13 — far tighter than
    // any node RC bound in this circuit.
    EXPECT_NEAR(std::min(bound.device, bound.node), 1e-13, 1e-15);
    EXPECT_LT(bound.device, bound.node);
}

TEST(StepControl, MeasuredLocalErrorEquation10) {
    // eps = |dV_actual - dV_est| / |dV_actual| with dV_est = h * dvdt.
    const std::vector<double> x_old{1.0, 2.0};
    const std::vector<double> x_new{1.2, 2.0}; // node 0 moved by 0.2
    const std::vector<double> dvdt{1.0e6, 0.0};
    const double h = 1e-7; // est move = 0.1
    const double err = engines::measured_local_error(x_old, x_new, dvdt,
                                                     h, 2);
    EXPECT_NEAR(err, std::abs(0.2 - 0.1) / 0.2, 1e-12);
}

TEST(StepControl, MeasuredLocalErrorSkipsNoiseFloor) {
    const std::vector<double> x_old{1.0};
    const std::vector<double> x_new{1.0 + 1e-12}; // below v_floor
    const std::vector<double> dvdt{1.0};
    EXPECT_DOUBLE_EQ(
        engines::measured_local_error(x_old, x_new, dvdt, 1.0, 1), 0.0);
}

TEST(StepControl, PerfectPredictionGivesZeroError) {
    const std::vector<double> x_old{0.0};
    const std::vector<double> x_new{0.5};
    const std::vector<double> dvdt{0.5e9};
    EXPECT_NEAR(engines::measured_local_error(x_old, x_new, dvdt, 1e-9, 1),
                0.0, 1e-12);
}

} // namespace
} // namespace nanosim
