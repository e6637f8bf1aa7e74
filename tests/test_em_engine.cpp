// Tests for the Euler-Maruyama engine (paper Sec. 4), the exact OU
// reference (the "analytic solution" of Fig. 10) and the Monte-Carlo
// baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <string>

#include "core/ref_circuits.hpp"
#include "devices/passives.hpp"
#include "devices/sources.hpp"
#include "engines/dc_swec.hpp"
#include "engines/em_engine.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/ou_exact.hpp"
#include "linalg/expm.hpp"
#include "mna/mna.hpp"
#include "runtime/execution_policy.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

using engines::EmEngine;
using engines::EmOptions;
using engines::EmScheme;

// The noisy RC bed: R=1k, C=1p -> tau = 1 ns; i_dc = 1 mA -> mean 1 V;
// sigma chosen for a visible but small voltage noise.
constexpr double k_r = 1e3;
constexpr double k_c = 1e-12;
constexpr double k_idc = 1e-3;
constexpr double k_sigma = 5e-9;
constexpr double k_tau = k_r * k_c;

EmOptions em_opts(double t_stop = 5e-9, double dt = 5e-12,
                  EmScheme scheme = EmScheme::explicit_em) {
    EmOptions o;
    o.t_stop = t_stop;
    o.dt = dt;
    o.scheme = scheme;
    return o;
}

TEST(EmEngine, RejectsCircuitsWithoutNoise) {
    Circuit ckt = refckt::rc_lowpass();
    const mna::MnaAssembler assembler(ckt);
    EXPECT_THROW(EmEngine(assembler, em_opts()), AnalysisError);
}

TEST(EmEngine, ExplicitRequiresInvertibleC) {
    // A voltage source adds a branch unknown -> C singular -> explicit
    // scheme must refuse, implicit must accept.
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add<VSource>("V1", a, k_ground, 1.0);
    ckt.add<Resistor>("R1", a, k_ground, 1e3);
    ckt.add<NoiseCurrentSource>("N1", k_ground, a, 1e-9);
    const mna::MnaAssembler assembler(ckt);
    EXPECT_THROW(EmEngine(assembler, em_opts()), AnalysisError);
    EXPECT_NO_THROW(
        EmEngine(assembler, em_opts(5e-9, 5e-12, EmScheme::implicit_be)));
}

TEST(EmEngine, ExplicitRequiresCapacitanceOnEveryNode) {
    Circuit ckt;
    const NodeId a = ckt.node("a");
    ckt.add<ISource>("I1", k_ground, a, 1e-3);
    ckt.add<Resistor>("R1", a, k_ground, 1e3); // no capacitor!
    ckt.add<NoiseCurrentSource>("N1", k_ground, a, 1e-9);
    const mna::MnaAssembler assembler(ckt);
    EXPECT_THROW(EmEngine(assembler, em_opts()), AnalysisError);
}

TEST(EmEngine, ZeroNoiseReducesToDeterministicRc) {
    // sigma = 0: the EM path must follow the deterministic charging
    // curve v(t) = I R (1 - e^{-t/tau}).
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, 0.0);
    const mna::MnaAssembler assembler(ckt);
    const EmEngine engine(assembler, em_opts(5e-9, 1e-12));
    stochastic::Rng rng(11);
    const auto path = engine.run_path(rng);
    const auto& w = path.node_waves[0];
    for (const double t : {1e-9, 2e-9, 4e-9}) {
        const double expected = 1.0 * (1.0 - std::exp(-t / k_tau));
        EXPECT_NEAR(w.at(t), expected, 5e-3) << "t=" << t;
    }
}

TEST(EmEngine, EnsembleMeanAndVarianceMatchOuTheory) {
    // Stationary OU: mean = I R, var = sigma^2 R / (2 C)... in circuit
    // form: dV = (-V/tau + I/C) dt + (sigma/C) dW, stationary variance
    // = (sigma/C)^2 * tau / 2.
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, k_sigma);
    const mna::MnaAssembler assembler(ckt);
    const EmEngine engine(assembler, em_opts(8e-9, 4e-12));
    const auto ens =
        engines::run_em_ensemble(engine, 400, 12, ckt.find_node("n1"));

    const double mean_inf = k_idc * k_r; // 1 V
    const double var_inf =
        (k_sigma / k_c) * (k_sigma / k_c) * k_tau / 2.0;
    const double sd_inf = std::sqrt(var_inf);

    // At t = 8 ns (8 tau) the process is essentially stationary.
    const std::size_t last = ens.grid.size() - 1;
    EXPECT_NEAR(ens.stats.at(last).mean(), mean_inf, 4.0 * sd_inf / 20.0);
    EXPECT_NEAR(ens.stats.at(last).stddev(), sd_inf, 0.15 * sd_inf);
}

TEST(EmEngine, ImplicitAgreesWithExplicitAtFineStep) {
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, k_sigma);
    const mna::MnaAssembler assembler(ckt);
    stochastic::Rng rng(13);
    const stochastic::WienerPath path(rng, 4e-9, 4000);

    const EmEngine exp_engine(assembler, em_opts(4e-9, 1e-12));
    const EmEngine imp_engine(
        assembler, em_opts(4e-9, 1e-12, EmScheme::implicit_be));
    const auto a = exp_engine.run_path(std::span(&path, 1));
    const auto b = imp_engine.run_path(std::span(&path, 1));
    EXPECT_LT(analysis::measure::max_abs_error(a.node_waves[0],
                                               b.node_waves[0]),
              5e-3);
}

TEST(EmEngine, ExplicitUnstableBeyondStabilityLimit) {
    // The ablation fact: explicit EM requires dt < 2 tau; implicit BE
    // does not.  At dt = 2.5 tau the explicit path blows up.
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, 0.0);
    const mna::MnaAssembler assembler(ckt);
    const EmEngine exp_engine(assembler, em_opts(50e-9, 2.5e-9));
    const EmEngine imp_engine(
        assembler, em_opts(50e-9, 2.5e-9, EmScheme::implicit_be));
    stochastic::Rng rng(14);
    const auto unstable = exp_engine.run_path(rng);
    stochastic::Rng rng2(14);
    const auto stable = imp_engine.run_path(rng2);
    EXPECT_GT(std::abs(unstable.node_waves[0].value().back()), 10.0);
    EXPECT_LT(std::abs(stable.node_waves[0].value().back()), 2.0);
}

TEST(EmEngine, StrongConvergenceOrderHalf) {
    // Higham-style strong convergence: error vs a fine-grid reference on
    // the SAME Brownian path scales ~ sqrt(dt).
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, 20e-9);
    const mna::MnaAssembler assembler(ckt);
    stochastic::Rng rng(15);

    const std::size_t fine_steps = 4096;
    const double t_stop = 4e-9;
    double err_coarse = 0.0;
    double err_mid = 0.0;
    const int reps = 40;
    for (int rep = 0; rep < reps; ++rep) {
        const stochastic::WienerPath fine(rng, t_stop, fine_steps);
        const stochastic::WienerPath mid = fine.coarsened(8);
        const stochastic::WienerPath coarse = fine.coarsened(64);

        const EmEngine ref(assembler, em_opts(t_stop, t_stop / fine_steps));
        const EmEngine em_mid(
            assembler, em_opts(t_stop, t_stop / (fine_steps / 8)));
        const EmEngine em_coarse(
            assembler, em_opts(t_stop, t_stop / (fine_steps / 64)));

        const double vf = ref.run_path(std::span(&fine, 1))
                              .node_waves[0]
                              .value()
                              .back();
        const double vm = em_mid.run_path(std::span(&mid, 1))
                              .node_waves[0]
                              .value()
                              .back();
        const double vc = em_coarse.run_path(std::span(&coarse, 1))
                              .node_waves[0]
                              .value()
                              .back();
        err_mid += std::abs(vm - vf);
        err_coarse += std::abs(vc - vf);
    }
    err_mid /= reps;
    err_coarse /= reps;
    // dt ratio 8 -> error ratio ~ sqrt(8) ~ 2.8 for strong order 1/2.
    // (For additive noise EM is strong order 1, giving ratio ~8; accept
    // anything clearly separating from order 0.)
    EXPECT_GT(err_coarse / err_mid, 2.0)
        << "coarse=" << err_coarse << " mid=" << err_mid;
}

TEST(OuExact, ScalarMomentsClosedForm) {
    const auto m = engines::scalar_ou_moments(2.0, 4.0, 0.5, 1.0, 0.7);
    const double e = std::exp(-1.4);
    EXPECT_NEAR(m.mean, e + 2.0 * (1.0 - e), 1e-12);
    EXPECT_NEAR(m.variance, 0.25 / 4.0 * (1.0 - e * e), 1e-12);
    EXPECT_THROW((void)engines::scalar_ou_moments(-1.0, 0, 1, 0, 1),
                 AnalysisError);
}

TEST(OuExact, DiscretizeLtiMatchesScalarFormulas) {
    linalg::DenseMatrix a(1, 1);
    a(0, 0) = -3.0;
    linalg::DenseMatrix q(1, 1);
    q(0, 0) = 2.0; // L L^T
    const double h = 0.4;
    const auto d = engines::discretize_lti(a, q, h);
    EXPECT_NEAR(d.phi(0, 0), std::exp(-3.0 * h), 1e-12);
    EXPECT_NEAR(d.gamma(0, 0), (1.0 - std::exp(-3.0 * h)) / 3.0, 1e-12);
    // Qd = q/(2|a|) (1 - e^{-2|a|h}).
    EXPECT_NEAR(d.qd(0, 0), 2.0 / 6.0 * (1.0 - std::exp(-2.4)), 1e-12);
}

TEST(OuExact, ExactMomentsMatchScalarOuOnRcCircuit) {
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, k_sigma);
    const mna::MnaAssembler assembler(ckt);
    const auto res = engines::exact_moments(assembler, 5e-9, 100);
    const double a = 1.0 / k_tau;
    const double c = k_idc / k_c;
    const double s = k_sigma / k_c;
    for (const std::size_t j : {10u, 50u, 99u}) {
        const auto ref = engines::scalar_ou_moments(a, c, s, 0.0,
                                                    res.grid[j]);
        EXPECT_NEAR(res.mean[j][0], ref.mean, 1e-9);
        EXPECT_NEAR(res.variance[j][0], ref.variance,
                    1e-6 * ref.variance + 1e-18);
    }
}

TEST(OuExact, EmEnsembleConvergesToExactMoments) {
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, k_sigma);
    const mna::MnaAssembler assembler(ckt);
    const auto exact = engines::exact_moments(assembler, 4e-9, 200);

    const EmEngine engine(assembler, em_opts(4e-9, 2e-11));
    const auto ens =
        engines::run_em_ensemble(engine, 600, 16, ckt.find_node("n1"));

    const double sd_end = std::sqrt(exact.variance.back()[0]);
    EXPECT_NEAR(ens.stats.at(ens.grid.size() - 1).mean(),
                exact.mean.back()[0], 4.0 * sd_end / std::sqrt(600.0));
    EXPECT_NEAR(ens.stats.at(ens.grid.size() - 1).stddev(), sd_end,
                0.15 * sd_end);
}

// ---- statistical oracles: the ensemble driver against exact moments ---

/// Wilson-Hilferty approximation of the chi-square quantile with `nu`
/// degrees of freedom at standard-normal quantile `z`.
double chi2_quantile(double nu, double z) {
    const double h = 2.0 / (9.0 * nu);
    return nu * std::pow(1.0 - h + z * std::sqrt(h), 3.0);
}

/// `ens` (the voltage of unknown `row`) against the exact OU moments at
/// every grid point after t = 0.  The mean lies within 4 sigma / sqrt(N)
/// of the exact mean, sigma the exact stddev there.  The sample stddev s
/// lies inside the two-sided chi-square band (N - 1) s^2 / sigma^2 ~
/// chi2(N - 1) at z = +-5; the wide z covers the hundreds of correlated
/// grid points checked per ensemble.  For N = 400 the band is
/// 0.83 < s / sigma < 1.18.
void expect_exact_moments(const engines::EmEnsembleResult& ens,
                          const engines::OuMomentsResult& exact,
                          std::size_t row, const std::string& what) {
    ASSERT_EQ(ens.grid.size(), exact.grid.size()) << what;
    const auto n = static_cast<double>(ens.stats.paths());
    const double lo = std::sqrt(chi2_quantile(n - 1.0, -5.0) / (n - 1.0));
    const double hi = std::sqrt(chi2_quantile(n - 1.0, 5.0) / (n - 1.0));
    for (std::size_t j = 1; j < ens.grid.size(); ++j) {
        ASSERT_NEAR(ens.grid[j], exact.grid[j], 1e-9 * exact.grid.back());
        const double sigma = std::sqrt(exact.variance[j][row]);
        ASSERT_GT(sigma, 0.0) << what << " t=" << ens.grid[j];
        EXPECT_NEAR(ens.stats.at(j).mean(), exact.mean[j][row],
                    4.0 * sigma / std::sqrt(n))
            << what << " t=" << ens.grid[j];
        const double ratio = ens.stats.at(j).stddev() / sigma;
        EXPECT_GT(ratio, lo) << what << " t=" << ens.grid[j];
        EXPECT_LT(ratio, hi) << what << " t=" << ens.grid[j];
    }
}

/// 4x4 linear RC mesh ("m<r>_<c>"): 1 kOhm edges, 1 pF and 2 kOhm to
/// ground at every node, 1 mA into the m0_0 corner, white noise at m1_1
/// and m2_2.
Circuit noisy_linear_mesh() {
    Circuit ckt;
    auto node = [&ckt](int r, int c) {
        return ckt.node("m" + std::to_string(r) + "_" + std::to_string(c));
    };
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
            const std::string tag = std::to_string(r) + std::to_string(c);
            ckt.add<Capacitor>("C" + tag, node(r, c), k_ground, 1e-12);
            ckt.add<Resistor>("RG" + tag, node(r, c), k_ground, 2e3);
            if (c + 1 < 4) {
                ckt.add<Resistor>("RH" + tag, node(r, c), node(r, c + 1),
                                  1e3);
            }
            if (r + 1 < 4) {
                ckt.add<Resistor>("RV" + tag, node(r, c), node(r + 1, c),
                                  1e3);
            }
        }
    }
    ckt.add<ISource>("IDRV", k_ground, node(0, 0), 1e-3);
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, node(1, 1), 5e-9);
    ckt.add<NoiseCurrentSource>("NOISE2", k_ground, node(2, 2), 5e-9);
    return ckt;
}

TEST(OuExact, EnsembleMatchesExactMomentsAtEveryGridPoint) {
    // noisy_rc and Fig. 10 (time-variant conductance) start from zero,
    // so their means move; the mesh starts from its DC operating point,
    // solved once per ensemble, and its variance builds up.
    struct Case {
        std::string name;
        Circuit ckt;
        const char* node;
        double t_stop;
        double dt;
        bool start_from_dc;
    };
    Case cases[] = {
        {"noisy_rc", refckt::noisy_rc(k_r, k_c, k_idc, k_sigma), "n1", 4e-9,
         2e-11, false},
        {"rc_mesh", noisy_linear_mesh(), "m1_1", 3e-9, 1e-11, true},
        {"fig10", refckt::fig10_noisy_transistor(), "n1", 1e-9, 2e-12,
         false},
    };
    constexpr int k_paths = 400;
    for (const Case& c : cases) {
        const mna::MnaAssembler assembler(c.ckt);
        const NodeId node = c.ckt.find_node(c.node);
        const auto steps =
            static_cast<std::size_t>(std::llround(c.t_stop / c.dt));
        const linalg::Vector x0 = c.start_from_dc
                                      ? engines::solve_op_swec(assembler).x
                                      : linalg::Vector{};
        const auto exact =
            engines::exact_moments(assembler, c.t_stop, steps, x0);
        for (const EmScheme scheme :
             {EmScheme::explicit_em, EmScheme::implicit_be}) {
            const std::string what =
                c.name + (scheme == EmScheme::explicit_em ? "/explicit"
                                                          : "/implicit");
            EmOptions o = em_opts(c.t_stop, c.dt, scheme);
            o.start_from_dc = c.start_from_dc;
            const EmEngine engine(assembler, o);
            const auto one = engines::run_em_ensemble(engine, k_paths, 31, node);
            const auto four = engines::run_em_ensemble(
                engine, k_paths, 31, node, runtime::ExecutionPolicy{4});
            EXPECT_EQ(one.mean.value(), four.mean.value()) << what;
            EXPECT_EQ(one.stddev.value(), four.stddev.value()) << what;
            expect_exact_moments(one, exact,
                                 static_cast<std::size_t>(node - 1), what);
        }
    }
}

TEST(OuExact, RejectsNonlinearAndBranchCircuits) {
    Circuit rtd = refckt::rtd_divider();
    const mna::MnaAssembler a1(rtd);
    EXPECT_THROW((void)engines::exact_moments(a1, 1e-9, 10),
                 AnalysisError);
}

TEST(MonteCarlo, AgreesWithEmOnNoisyRc) {
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, k_sigma);
    const mna::MnaAssembler assembler(ckt);

    engines::McOptions mc;
    mc.runs = 150;
    mc.t_stop = 5e-9;
    mc.noise_dt = 25e-12;
    mc.grid_points = 101;
    const auto mcr =
        engines::run_monte_carlo(assembler, mc, 17, ckt.find_node("n1"));

    const EmEngine engine(assembler, em_opts(5e-9, 25e-12));
    const auto em =
        engines::run_em_ensemble(engine, 150, 18, ckt.find_node("n1"));

    // Mean curves agree within Monte-Carlo error.
    const double sd =
        em.stats.at(em.grid.size() - 1).stddev() / std::sqrt(150.0);
    EXPECT_NEAR(mcr.mean.value().back(), em.mean.value().back(),
                6.0 * sd + 5e-3);
}

TEST(MonteCarlo, CostsMoreThanEmPerPath) {
    // The paper's Sec. 1 argument: a deterministic-transient MC run pays
    // the full engine per path; the EM path is a fixed-grid linear pass.
    Circuit ckt = refckt::noisy_rc(k_r, k_c, k_idc, k_sigma);
    const mna::MnaAssembler assembler(ckt);

    engines::McOptions mc;
    mc.runs = 20;
    mc.t_stop = 5e-9;
    const auto mcr =
        engines::run_monte_carlo(assembler, mc, 19, ckt.find_node("n1"));

    const EmEngine engine(assembler, em_opts(5e-9, 25e-12));
    stochastic::Rng rng2(20);
    const FlopScope em_scope;
    for (int p = 0; p < 20; ++p) {
        (void)engine.run_path(rng2);
    }
    EXPECT_LT(em_scope.counter().total(), mcr.flops.total())
        << "EM=" << em_scope.counter().total()
        << " MC=" << mcr.flops.total();

    // The same on a 16x16 RTD mesh with noise at the centre, at matched
    // grids (dt = noise_dt): per path, EM pays one restamp and one
    // cached solve per step, MC an adaptive SWEC transient.
    Circuit mesh = refckt::rc_mesh(16, 16);
    const NodeId centre = mesh.find_node("n8_8");
    mesh.add<NoiseCurrentSource>("NOISE1", k_ground, centre, 1e-9);
    const mna::MnaAssembler mesh_assembler(mesh);
    engines::McOptions mesh_mc;
    mesh_mc.runs = 8;
    mesh_mc.t_stop = 2e-9;
    mesh_mc.noise_dt = 10e-12;
    const auto mesh_mcr =
        engines::run_monte_carlo(mesh_assembler, mesh_mc, 19, centre);
    const EmEngine mesh_em(mesh_assembler,
                           em_opts(2e-9, 10e-12, EmScheme::implicit_be));
    const auto mesh_ens = engines::run_em_ensemble(mesh_em, 8, 20, centre);
    const double em_per_path =
        static_cast<double>(mesh_ens.flops.total()) / 8.0;
    const double mc_per_trial =
        static_cast<double>(mesh_mcr.flops.total()) / 8.0;
    EXPECT_LT(em_per_path, mc_per_trial)
        << "EM/path=" << em_per_path << " MC/trial=" << mc_per_trial;
    std::cout << "  16x16 mesh flops: EM/path " << em_per_path
              << ", MC/trial " << mc_per_trial << " ("
              << em_per_path / mc_per_trial << "x)\n";
}

TEST(MonteCarlo, Validation) {
    Circuit ckt = refckt::rc_lowpass();
    const mna::MnaAssembler assembler(ckt);
    engines::McOptions mc;
    mc.t_stop = 1e-9;
    EXPECT_THROW(
        (void)engines::run_monte_carlo(assembler, mc, 21, 1),
        AnalysisError); // no noise sources
}

} // namespace
} // namespace nanosim
