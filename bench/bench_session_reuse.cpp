// Nano-Sim bench — SimSession cache reuse across a whole analysis batch.
//
//   $ ./bench_session_reuse [mc_runs] [out.json] [mesh]
//
// Runs the sequence {op, DC sweep, transient, mc_runs-trial Monte-Carlo}
// on the FET-RTD inverter and a mesh x mesh RC mesh, two ways:
//
//   * session  — one SimSession::run per analysis: every engine call
//     restamps through ONE persistent SystemCache, so the union stamp
//     pattern is frozen and symbolically factored exactly once for the
//     whole batch (Monte-Carlo trials included);
//   * per-call — no session: each analysis builds its own SystemCache,
//     re-freezing the pattern and re-running the symbolic analysis every
//     time (the Monte-Carlo driver, given no cache, builds one for the
//     campaign).
//
// Writes BENCH_session.json with per-analysis wall times, the session's
// solver counters and the cross-path agreement.  Exit code 1 when the
// two paths disagree beyond 1e-12, or when the sparse workload's session
// path performed more than one symbolic factorisation — the reuse
// contract this bench exists to guard.  A full run (mc_runs >= 50)
// additionally requires the session path to be faster on the sparse
// workload; the CI smoke run (small mc_runs) skips the timing gate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "devices/sources.hpp"
#include "engines/dc_swec.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/tran_swec.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace nanosim;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/// One workload: a circuit factory plus the analysis parameters.
struct Workload {
    std::string name;
    std::function<Circuit()> make;
    std::string sweep_source;
    double sweep_stop = 0.0;
    double sweep_step = 0.0;
    double tran_stop = 0.0;
    std::string mc_node;
    double mc_stop = 0.0;
    double mc_noise_dt = 0.0;
};

struct PathTimes {
    double op_ms = 0.0;
    double dc_ms = 0.0;
    double tran_ms = 0.0;
    double mc_ms = 0.0;
    [[nodiscard]] double total() const {
        return op_ms + dc_ms + tran_ms + mc_ms;
    }
};

/// Everything compared across the two paths.  (McResult has no default
/// constructor — its stats need a grid size — hence the placeholder.)
struct PathResults {
    engines::DcResult op;
    engines::SweepResult sweep;
    engines::TranResult tran;
    engines::McResult mc{.grid = {},
                         .mean = analysis::Waveform("mean"),
                         .stddev = analysis::Waveform("stddev"),
                         .stats = stochastic::EnsembleStats(1),
                         .probes = {},
                         .trial_steps = {},
                         .failed_trials = {},
                         .rescues = {},
                         .aborted = false,
                         .flops = {},
                         .solver = {}};
    PathTimes times;
    std::size_t full_factors = 0;
    std::size_t fast_refactors = 0;
};

struct WorkloadReport {
    std::string name;
    std::size_t unknowns = 0;
    bool dense_path = false;
    PathTimes session;
    PathTimes percall;
    std::size_t session_full_factors = 0;
    std::size_t session_fast_refactors = 0;
    double speedup = 0.0;
    double max_dev = 0.0;
};

PathResults run_session(const Workload& w, int mc_runs) {
    SimSession session(w.make());
    PathResults out;

    auto t0 = Clock::now();
    AnalysisResult op = session.run(OpSpec{});
    out.times.op_ms = ms_since(t0);
    out.full_factors += op.header.solver.full_factors;
    out.fast_refactors += op.header.solver.fast_refactors;

    DcSweepSpec dc;
    dc.source = w.sweep_source;
    dc.start = 0.0;
    dc.stop = w.sweep_stop;
    dc.step = w.sweep_step;
    t0 = Clock::now();
    AnalysisResult sweep = session.run(dc);
    out.times.dc_ms = ms_since(t0);
    out.full_factors += sweep.header.solver.full_factors;
    out.fast_refactors += sweep.header.solver.fast_refactors;

    TranSpec tran;
    tran.t_stop = w.tran_stop;
    t0 = Clock::now();
    AnalysisResult tr = session.run(tran);
    out.times.tran_ms = ms_since(t0);
    out.full_factors += tr.header.solver.full_factors;
    out.fast_refactors += tr.header.solver.fast_refactors;

    MonteCarloSpec mc;
    mc.node = w.mc_node;
    mc.t_stop = w.mc_stop;
    mc.noise_dt = w.mc_noise_dt;
    mc.runs = mc_runs;
    mc.grid_points = 26;
    // Warm-start every trial from the operating point and march on the
    // noise grid directly (the realistic MC configuration: the trial
    // cost is the noise-resolving transient, not a repeated DC march or
    // an adaptive controller chasing white noise).
    mc.tran.start_from_dc = false;
    mc.tran.initial = std::get<engines::DcResult>(op.payload).x;
    mc.tran.adaptive = false;
    mc.tran.dt_init = w.mc_noise_dt;
    t0 = Clock::now();
    AnalysisResult mcr = session.run(mc);
    out.times.mc_ms = ms_since(t0);
    out.full_factors += mcr.header.solver.full_factors;
    out.fast_refactors += mcr.header.solver.fast_refactors;

    out.op = std::get<engines::DcResult>(std::move(op.payload));
    out.sweep = std::get<engines::SweepResult>(std::move(sweep.payload));
    out.tran = std::get<engines::TranResult>(std::move(tr.payload));
    out.mc = std::get<engines::McResult>(std::move(mcr.payload));
    return out;
}

PathResults run_percall(const Workload& w, int mc_runs) {
    // One assembler, but every engine call freezes its own SystemCache
    // (run_monte_carlo one for the whole campaign).
    Circuit circuit = w.make();
    const mna::MnaAssembler assembler(circuit);
    PathResults out;

    auto t0 = Clock::now();
    out.op = engines::solve_op_swec(assembler);
    out.times.op_ms = ms_since(t0);

    DcSweepSpec values_helper;
    values_helper.source = w.sweep_source;
    values_helper.stop = w.sweep_stop;
    values_helper.step = w.sweep_step;
    const linalg::Vector values = values_helper.values();
    t0 = Clock::now();
    out.sweep = engines::dc_sweep_swec(circuit, w.sweep_source, values);
    out.times.dc_ms = ms_since(t0);

    engines::SwecTranOptions tran;
    tran.t_stop = w.tran_stop;
    t0 = Clock::now();
    out.tran = engines::run_tran_swec(assembler, tran);
    out.times.tran_ms = ms_since(t0);

    engines::McOptions mc;
    mc.t_stop = w.mc_stop;
    mc.noise_dt = w.mc_noise_dt;
    mc.runs = mc_runs;
    mc.grid_points = 26;
    mc.tran.start_from_dc = false;
    mc.tran.initial = out.op.x;
    mc.tran.adaptive = false;
    mc.tran.dt_init = w.mc_noise_dt;
    const NodeId node = circuit.find_node(w.mc_node);
    t0 = Clock::now();
    out.mc = engines::run_monte_carlo(assembler, mc, 1, node);
    out.times.mc_ms = ms_since(t0);
    return out;
}

/// Max absolute deviation between the two paths' results.
double max_deviation(const PathResults& a, const PathResults& b,
                     double tran_stop) {
    double dev = 0.0;
    for (std::size_t i = 0; i < a.op.x.size(); ++i) {
        dev = std::max(dev, std::abs(a.op.x[i] - b.op.x[i]));
    }
    for (std::size_t k = 0; k < a.sweep.solutions.size(); ++k) {
        for (std::size_t i = 0; i < a.sweep.solutions[k].size(); ++i) {
            dev = std::max(dev, std::abs(a.sweep.solutions[k][i] -
                                         b.sweep.solutions[k][i]));
        }
    }
    // Transients may take (identical, but in principle differing) step
    // sequences; compare on a common sampling grid.
    for (std::size_t n = 0; n < a.tran.node_waves.size(); ++n) {
        for (int s = 0; s <= 50; ++s) {
            const double t = tran_stop * static_cast<double>(s) / 50.0;
            dev = std::max(dev, std::abs(a.tran.node_waves[n].at(t) -
                                         b.tran.node_waves[n].at(t)));
        }
    }
    for (std::size_t j = 0; j < a.mc.mean.size(); ++j) {
        dev = std::max(dev, std::abs(a.mc.mean.value()[j] -
                                     b.mc.mean.value()[j]));
        dev = std::max(dev, std::abs(a.mc.stddev.value()[j] -
                                     b.mc.stddev.value()[j]));
    }
    return dev;
}

void print_times(const char* label, const PathTimes& t) {
    std::cout << "  " << std::left << std::setw(9) << label << std::right
              << std::fixed << std::setprecision(2) << " op " << std::setw(9)
              << t.op_ms << " ms | dc " << std::setw(9) << t.dc_ms
              << " ms | tran " << std::setw(9) << t.tran_ms << " ms | mc "
              << std::setw(9) << t.mc_ms << " ms | total " << std::setw(9)
              << t.total() << " ms\n";
}

} // namespace

int main(int argc, char** argv) {
    const int mc_runs = argc > 1 ? std::stoi(argv[1]) : 100;
    const std::string out_path =
        argc > 2 ? argv[2] : std::string("BENCH_session.json");
    const int mesh = argc > 3 ? std::stoi(argv[3]) : 32;
    const bool full_run = mc_runs >= 50;

    nanosim::bench::banner(
        "session_reuse",
        "SimSession::run_all {op, dc sweep, tran, " +
            std::to_string(mc_runs) +
            "-trial MC}: one persistent solver cache vs per-call "
            "construction");

    const double kT = 20e-9;
    std::vector<Workload> workloads;
    workloads.push_back(
        {"fet_rtd_inverter",
         [] {
             Circuit ckt = refckt::fet_rtd_inverter();
             ckt.add<NoiseCurrentSource>("NOISE1", k_ground,
                                         ckt.find_node("out"), 1e-9);
             return ckt;
         },
         "VIN", 5.0, 0.25, 100e-9, "out", kT, 1e-9});
    workloads.push_back(
        {"rc_mesh" + std::to_string(mesh) + "x" + std::to_string(mesh),
         [mesh] {
             Circuit ckt = refckt::rc_mesh(mesh, mesh);
             const std::string center =
                 "n" + std::to_string(mesh / 2) + "_" +
                 std::to_string(mesh / 2);
             ckt.add<NoiseCurrentSource>("NOISE1", k_ground,
                                         ckt.find_node(center), 1e-9);
             return ckt;
         },
         "VIN", 2.0, 0.2, kT, "n" + std::to_string(mesh / 2) + "_" +
                                  std::to_string(mesh / 2),
         5e-9, 2.5e-10});

    bool pass = true;
    std::vector<WorkloadReport> reports;
    for (const Workload& w : workloads) {
        nanosim::bench::section(w.name);
        WorkloadReport rep;
        rep.name = w.name;
        {
            const mna::MnaAssembler probe(w.make());
            rep.unknowns = static_cast<std::size_t>(probe.unknowns());
            rep.dense_path = rep.unknowns <= 64;
        }

        const PathResults session = run_session(w, mc_runs);
        const PathResults percall = run_percall(w, mc_runs);
        rep.session = session.times;
        rep.percall = percall.times;
        rep.session_full_factors = session.full_factors;
        rep.session_fast_refactors = session.fast_refactors;
        rep.speedup = session.times.total() > 0.0
                          ? percall.times.total() / session.times.total()
                          : 0.0;
        rep.max_dev = max_deviation(session, percall, w.tran_stop);

        std::cout << "  " << rep.unknowns << " unknowns ("
                  << (rep.dense_path ? "dense" : "sparse")
                  << " solver path)\n";
        print_times("session", rep.session);
        print_times("per-call", rep.percall);
        std::cout << "  session symbolic factorisations: "
                  << rep.session_full_factors << " (plus "
                  << rep.session_fast_refactors
                  << " pattern-reusing refactors)\n"
                  << "  speedup " << std::setprecision(2) << rep.speedup
                  << "x | max deviation " << std::scientific
                  << std::setprecision(2) << rep.max_dev << std::fixed
                  << "\n";

        if (rep.max_dev > 1e-12) {
            std::cout << "  FAIL: paths disagree beyond 1e-12\n";
            pass = false;
        }
        if (!rep.dense_path && rep.session_full_factors != 1) {
            std::cout << "  FAIL: sparse session batch should run exactly "
                         "one symbolic factorisation\n";
            pass = false;
        }
        if (full_run && !rep.dense_path && rep.speedup <= 1.02) {
            std::cout << "  FAIL: session path not faster on the sparse "
                         "workload\n";
            pass = false;
        }
        reports.push_back(std::move(rep));
    }

    std::ofstream json(out_path);
    json << std::scientific << std::setprecision(9);
    json << "{\n  \"bench\": \"session_reuse\",\n"
         << "  \"mc_runs\": " << mc_runs << ",\n"
         << "  \"agreement_tol\": 1e-12,\n"
         << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const WorkloadReport& r = reports[i];
        auto times = [&json](const char* key, const PathTimes& t) {
            json << "      \"" << key << "_ms\": {\"op\": " << t.op_ms
                 << ", \"dc\": " << t.dc_ms << ", \"tran\": " << t.tran_ms
                 << ", \"mc\": " << t.mc_ms << ", \"total\": " << t.total()
                 << "},\n";
        };
        json << "    {\n      \"name\": \"" << r.name << "\",\n"
             << "      \"unknowns\": " << r.unknowns << ",\n"
             << "      \"solver_path\": \""
             << (r.dense_path ? "dense" : "sparse") << "\",\n";
        times("session", r.session);
        times("percall", r.percall);
        json << "      \"session_full_factors\": " << r.session_full_factors
             << ",\n      \"session_fast_refactors\": "
             << r.session_fast_refactors << ",\n      \"speedup\": "
             << r.speedup << ",\n      \"max_dev\": " << r.max_dev << "\n    }"
             << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
    std::cout << "\nwrote " << out_path << (pass ? " (pass)" : " (FAIL)")
              << "\n";
    return pass ? 0 : 1;
}
