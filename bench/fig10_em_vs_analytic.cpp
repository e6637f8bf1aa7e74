// Figure 10 — results from the Euler-Maruyama method and the analytic
// solution.
//
// Paper: "The circuit is a time-variant nanoscale transistor with some
// parasitic RCs.  From 0-1ns, we observe a possible performance peak
// about 0.6 V."  The EM ensemble (mean +/- sigma envelope and sample
// paths) is compared point-by-point against the exact Ornstein-Uhlenbeck
// moment propagation (piecewise-constant G(t), Van Loan discretization).
#include <cmath>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/ref_circuits.hpp"
#include "engines/em_engine.hpp"
#include "engines/ou_exact.hpp"
#include "mna/mna.hpp"
#include "stochastic/stats.hpp"

using namespace nanosim;

int main() {
    bench::banner("Figure 10",
                  "Stochastic transient: Euler-Maruyama vs analytic "
                  "solution (time-variant transistor + parasitic RC + "
                  "white-noise input, 0-1 ns)");

    Circuit ckt = refckt::fig10_noisy_transistor();
    const mna::MnaAssembler assembler(ckt);
    constexpr double t_stop = 1e-9;
    constexpr std::size_t steps = 500;
    constexpr std::size_t paths = 500;

    // Analytic reference (exact OU moment propagation).
    const auto exact = engines::exact_moments(assembler, t_stop, steps);

    // EM ensemble on the same grid.
    engines::EmOptions em;
    em.t_stop = t_stop;
    em.dt = t_stop / steps;
    const engines::EmEngine engine(assembler, em);
    const auto ens =
        engines::run_em_ensemble(engine, paths, 2024, ckt.find_node("n1"));

    // One EM sample path for the figure.
    stochastic::Rng rng_path(7);
    const auto sample = engine.run_path(rng_path);

    analysis::Waveform exact_mean("analytic mean");
    analysis::Waveform exact_hi("analytic mean+sigma");
    analysis::Waveform exact_lo("analytic mean-sigma");
    for (std::size_t j = 0; j <= steps; ++j) {
        const double m = exact.mean[j][0];
        const double s = std::sqrt(exact.variance[j][0]);
        const double t = exact.grid[j] + (j == 0 ? 1e-18 : 0.0);
        exact_mean.append(t, m);
        exact_hi.append(t, m + s);
        exact_lo.append(t, m - s);
    }

    bench::section("sample path vs analytic envelope");
    bench::plot({sample.node_waves[0], exact_mean, exact_hi, exact_lo},
                "X = V(n1): one EM path against the exact mean +/- sigma",
                "t [s]", "V");

    bench::section("ensemble mean vs analytic mean");
    bench::plot({ens.mean, exact_mean}, "E[V(n1)](t), 500 EM paths",
                "t [s]", "V");

    // Point-by-point comparison table.
    analysis::Table t({"t [ns]", "EM mean [V]", "analytic mean [V]",
                       "EM sigma [mV]", "analytic sigma [mV]"});
    const std::size_t printed[] = {steps / 10, steps / 4, steps / 2,
                                   (3 * steps) / 4, steps};
    for (const std::size_t j : printed) {
        t.add_row({analysis::Table::num(exact.grid[j] * 1e9, 3),
                   analysis::Table::num(ens.stats.at(j).mean(), 4),
                   analysis::Table::num(exact.mean[j][0], 4),
                   analysis::Table::num(ens.stats.at(j).stddev() * 1e3, 3),
                   analysis::Table::num(
                       std::sqrt(exact.variance[j][0]) * 1e3, 3)});
    }
    t.print(std::cout);

    // The paper's headline number: the peak within the 0-1 ns window.
    double exact_peak = 0.0;
    for (std::size_t j = 0; j <= steps; ++j) {
        exact_peak = std::max(exact_peak, exact.mean[j][0] +
                                              std::sqrt(exact.variance[j][0]));
    }
    std::cout << "\npeak statistics over 0-1 ns (paper: \"possible "
                 "performance peak about 0.6 V\"):\n"
              << "  EM per-path peak: mean = "
              << ens.stats.peak_stats().mean() << " V, max = "
              << ens.stats.peak_stats().max() << " V, p95 = "
              << stochastic::percentile(ens.stats.peaks(), 95.0) << " V\n"
              << "  analytic mean+sigma peak: " << exact_peak << " V\n";

    // At every printed time the ensemble's moments must lie within four
    // standard errors of the analytic ones: sigma / sqrt(N) for the mean,
    // sigma / sqrt(2N) for sigma (Gaussian sampling, N = 500 paths).
    bench::section("shape checks");
    bench::ShapeChecks checks;
    const double n = static_cast<double>(paths);
    for (const std::size_t j : printed) {
        const double sigma = std::sqrt(exact.variance[j][0]);
        const std::string at =
            " at " + analysis::Table::num(exact.grid[j] * 1e9, 3) + " ns";
        checks.check(std::abs(ens.stats.at(j).mean() - exact.mean[j][0]) <=
                         4.0 * sigma / std::sqrt(n),
                     "EM mean within 4 sigma/sqrt(N) of the analytic mean" +
                         at);
        checks.check(std::abs(ens.stats.at(j).stddev() - sigma) <=
                         4.0 * sigma / std::sqrt(2.0 * n),
                     "EM sigma within 4 sigma/sqrt(2N) of the analytic "
                     "sigma" + at);
    }
    return checks.exit_code();
}
