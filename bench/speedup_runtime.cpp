// Headline claim (Secs. 1 & 6) — "The experimental results show a 20-30
// times speedup comparing with existing simulators."
//
// Two harnesses in one binary:
//  1. a flop/accuracy table across workloads (inverter, RTD chains of
//     growing size) comparing SWEC against the SPICE3-like NR engine at
//     (a) the NR engine's default accuracy and (b) matched accuracy, and
//     the EM-vs-Monte-Carlo cost for the stochastic analysis;
//  2. google-benchmark wall-time measurements of the same engines.
//
// See EXPERIMENTS.md for how the measured band relates to the paper's
// 20-30x (whose SPICE3 baseline failed outright on Fig. 8 — an
// effectively unbounded cost).
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"
#include "core/ref_circuits.hpp"
#include "engines/em_engine.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"

using namespace nanosim;

namespace {

void flop_table() {
    bench::banner("Speedup claim (Secs. 1/6)",
                  "SWEC vs SPICE3-like NR: flops and accuracy across "
                  "workloads; EM vs Monte-Carlo for stochastic analysis");

    analysis::Table t({"workload", "engine", "steps", "iter", "flops",
                       "waveform err [V]", "NRflops/SWECflops"});

    const auto run_pair = [&](const std::string& name, Circuit& ckt,
                              double t_stop, double nr_lte,
                              const std::string& observe) {
        const mna::MnaAssembler assembler(ckt);
        engines::SwecTranOptions ref_opt;
        ref_opt.t_stop = t_stop;
        ref_opt.adaptive = false;
        ref_opt.dt_init = t_stop / 4000.0;
        const auto ref = engines::run_tran_swec(assembler, ref_opt);

        engines::SwecTranOptions sopt;
        sopt.t_stop = t_stop;
        const auto s = engines::run_tran_swec(assembler, sopt);

        engines::NrTranOptions nopt;
        nopt.t_stop = t_stop;
        nopt.lte_tol = nr_lte;
        const auto n = engines::run_tran_nr(assembler, nopt);

        const double err_s = analysis::measure::max_abs_error(
            s.node(ckt, observe), ref.node(ckt, observe));
        const double err_n = analysis::measure::max_abs_error(
            n.node(ckt, observe), ref.node(ckt, observe));
        const double ratio = static_cast<double>(n.flops.total()) /
                             static_cast<double>(s.flops.total());
        t.add_row({name, "SWEC", std::to_string(s.steps_accepted),
                   std::to_string(s.nr_iterations),
                   std::to_string(s.flops.total()),
                   analysis::Table::num(err_s, 3), ""});
        t.add_row({"", "NR lte=" + analysis::Table::num(nr_lte, 1),
                   std::to_string(n.steps_accepted),
                   std::to_string(n.nr_iterations),
                   std::to_string(n.flops.total()),
                   analysis::Table::num(err_n, 3),
                   analysis::Table::num(ratio, 3)});
    };

    {
        Circuit inv = refckt::fet_rtd_inverter();
        run_pair("FET-RTD inverter, 200 ns", inv, 200e-9, 1e-4, "out");
    }
    for (const int stages : {4, 16, 32}) {
        refckt::ChainSpec spec;
        spec.stages = stages;
        Circuit chain = refckt::rtd_chain(spec);
        run_pair("RTD chain x" + std::to_string(stages) + ", 100 ns",
                 chain, 100e-9, 1e-4,
                 "n" + std::to_string(stages));
    }
    t.print(std::cout);

    bench::section("stochastic analysis: EM vs Monte-Carlo (matched "
                   "paths and grid)");
    Circuit noisy = refckt::noisy_rc();
    const mna::MnaAssembler assembler(noisy);
    constexpr int paths = 100;
    constexpr double t_stop = 5e-9;
    constexpr double dt = 25e-12;

    engines::EmOptions em;
    em.t_stop = t_stop;
    em.dt = dt;
    const engines::EmEngine engine(assembler, em);
    const FlopScope em_scope;
    const auto ens = engines::run_em_ensemble(engine, paths, 1, 1);
    const std::uint64_t em_flops = em_scope.counter().total();

    engines::McOptions mc;
    mc.runs = paths;
    mc.t_stop = t_stop;
    mc.noise_dt = dt;
    const auto mcr = engines::run_monte_carlo(assembler, mc, 2, 1);

    // Monte-Carlo as practiced on SPICE-like simulators (the paper's
    // Sec. 1 baseline): each realized-noise path runs the NR transient.
    std::uint64_t mc_nr_flops = 0;
    double mc_nr_mean_end = 0.0;
    {
        stochastic::Rng rng3(3);
        const double sqrt_dt = std::sqrt(dt);
        const auto holds = static_cast<std::size_t>(t_stop / dt);
        const FlopScope scope;
        for (int p = 0; p < paths; ++p) {
            std::vector<double> hold(holds);
            for (auto& v : hold) {
                v = 5e-9 * rng3.gauss() / sqrt_dt; // sigma of noisy_rc
            }
            engines::NrTranOptions nr;
            nr.t_stop = t_stop;
            nr.dt_max = dt;
            nr.start_from_dc = false;
            nr.noise.push_back(std::make_shared<PwlWave>(
                [&] {
                    std::vector<std::pair<double, double>> pts;
                    pts.reserve(holds);
                    for (std::size_t k = 0; k < holds; ++k) {
                        pts.emplace_back(dt * static_cast<double>(k),
                                         hold[k]);
                    }
                    return pts;
                }()));
            const auto r = engines::run_tran_nr(assembler, nr);
            mc_nr_mean_end += r.node_waves[0].value().back();
        }
        mc_nr_flops = scope.counter().total();
        mc_nr_mean_end /= paths;
    }

    analysis::Table t2({"method", "paths", "flops", "mean(end) [V]",
                        "sigma(end) [V]"});
    t2.add_row({"Euler-Maruyama", std::to_string(paths),
                std::to_string(em_flops),
                analysis::Table::num(ens.mean.value().back(), 4),
                analysis::Table::num(ens.stddev.value().back(), 4)});
    t2.add_row({"Monte-Carlo (SWEC transients)", std::to_string(paths),
                std::to_string(mcr.flops.total()),
                analysis::Table::num(mcr.mean.value().back(), 4),
                analysis::Table::num(mcr.stddev.value().back(), 4)});
    t2.add_row({"Monte-Carlo (NR transients)", std::to_string(paths),
                std::to_string(mc_nr_flops),
                analysis::Table::num(mc_nr_mean_end, 4), "-"});
    t2.print(std::cout);
    std::cout << "MC(SWEC)/EM flop ratio: "
              << static_cast<double>(mcr.flops.total()) /
                     static_cast<double>(std::max<std::uint64_t>(em_flops,
                                                                 1))
              << "x;  MC(NR)/EM flop ratio: "
              << static_cast<double>(mc_nr_flops) /
                     static_cast<double>(std::max<std::uint64_t>(em_flops,
                                                                 1))
              << "x\n";
}

// ---- google-benchmark wall-time measurements ----

void bm_swec_inverter(benchmark::State& state) {
    Circuit ckt = refckt::fet_rtd_inverter();
    const mna::MnaAssembler assembler(ckt);
    engines::SwecTranOptions opt;
    opt.t_stop = 200e-9;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engines::run_tran_swec(assembler, opt));
    }
}
BENCHMARK(bm_swec_inverter)->Unit(benchmark::kMillisecond);

void bm_nr_inverter(benchmark::State& state) {
    Circuit ckt = refckt::fet_rtd_inverter();
    const mna::MnaAssembler assembler(ckt);
    engines::NrTranOptions opt;
    opt.t_stop = 200e-9;
    opt.lte_tol = 1e-4; // matched accuracy (see flop table)
    for (auto _ : state) {
        benchmark::DoNotOptimize(engines::run_tran_nr(assembler, opt));
    }
}
BENCHMARK(bm_nr_inverter)->Unit(benchmark::kMillisecond);

void bm_swec_chain(benchmark::State& state) {
    refckt::ChainSpec spec;
    spec.stages = static_cast<int>(state.range(0));
    Circuit ckt = refckt::rtd_chain(spec);
    const mna::MnaAssembler assembler(ckt);
    engines::SwecTranOptions opt;
    opt.t_stop = 100e-9;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engines::run_tran_swec(assembler, opt));
    }
}
BENCHMARK(bm_swec_chain)->Arg(4)->Arg(16)->Arg(32)->Unit(
    benchmark::kMillisecond);

void bm_nr_chain(benchmark::State& state) {
    refckt::ChainSpec spec;
    spec.stages = static_cast<int>(state.range(0));
    Circuit ckt = refckt::rtd_chain(spec);
    const mna::MnaAssembler assembler(ckt);
    engines::NrTranOptions opt;
    opt.t_stop = 100e-9;
    opt.lte_tol = 1e-4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engines::run_tran_nr(assembler, opt));
    }
}
BENCHMARK(bm_nr_chain)->Arg(4)->Arg(16)->Arg(32)->Unit(
    benchmark::kMillisecond);

void bm_em_path(benchmark::State& state) {
    Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    engines::EmOptions em;
    em.t_stop = 5e-9;
    em.dt = 25e-12;
    const engines::EmEngine engine(assembler, em);
    stochastic::Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run_path(rng));
    }
}
BENCHMARK(bm_em_path)->Unit(benchmark::kMicrosecond);

void bm_mc_path(benchmark::State& state) {
    Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    engines::McOptions mc;
    mc.runs = 1;
    mc.t_stop = 5e-9;
    mc.noise_dt = 25e-12;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engines::run_monte_carlo(assembler, mc, 4, 1));
    }
}
BENCHMARK(bm_mc_path)->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char** argv) {
    flop_table();
    bench::section("google-benchmark wall times");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
