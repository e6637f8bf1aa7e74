// Nano-Sim bench — device-evaluation fast path: StampProgram + tables.
//
//   $ ./bench_device_eval [mc_runs] [out.json] [mesh]
//
// Runs three workloads —
//
//   * fet_rtd_inverter   — 100 ns SWEC transient (dense solver path),
//   * rtd_mesh MxM       — 20 ns adaptive SWEC transient on an RTD-
//                          loaded RC mesh (sparse path),
//   * rtd_mesh MxM MC    — mc_runs-trial Monte-Carlo on an MxM mesh
//                          with an RTD at EVERY node (the device-eval
//                          stress version of BENCH_session.json's
//                          workload)
//
// — through three device-evaluation configurations:
//
//   * legacy   — SystemCache with use_stamp_program = false: per-device
//     virtual dispatch through the Stamper interface, binary-searched
//     slot lookups, per-step MnaBuilder rhs assembly, over the same flat
//     LU as the other paths.  The reference the program is checked
//     against;
//   * program  — the compiled StampProgram path with tables.enabled =
//     false: flat SoA per-class evaluation + precomputed-slot scatters,
//     exact closed-form models.  Gated BIT-IDENTICAL to legacy;
//   * tables   — the default SWEC path: program + lazily filled chord
//     tables (cubic-Hermite chord / dG/dV lookups, closed form outside
//     the range and in segments that fail the accuracy gate).  Gated to
//     <= 1e-6 relative waveform deviation and faster than `program` on
//     the Monte-Carlo workload.
//
// Exit code 1 when any gate fails: exact-path bit-identity (always),
// table accuracy (always) and tables faster than program on the MC mesh
// workload (full runs only; the CI smoke run with small mc_runs skips
// the timing gate).  The program-over-legacy speedups are informational.
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/ref_circuits.hpp"
#include "devices/sources.hpp"
#include "engines/dc_swec.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/tran_swec.hpp"
#include "mna/system_cache.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace nanosim;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/// Which device-evaluation configuration a run uses.
enum class Path { legacy, program, tables };

mna::SystemCache::Options cache_options(Path p) {
    mna::SystemCache::Options o;
    o.use_stamp_program = p != Path::legacy;
    return o;
}

/// One workload run: waveforms + wall time + the cache's step split.
struct RunResult {
    std::vector<analysis::Waveform> waves; ///< node waves or {mean, stddev}
    double ms = 0.0;
    mna::SystemCache::Stats stats;
};

struct PathReport {
    double ms = 0.0;
    double eval_ms = 0.0;
    double stamp_ms = 0.0;
    double factor_ms = 0.0;
    double solve_ms = 0.0;
    std::size_t tables_built = 0;
};

struct WorkloadReport {
    std::string name;
    std::size_t unknowns = 0;
    PathReport legacy, program, tables;
    double dev_exact = 0.0;   ///< program vs legacy (bitwise; 0 required)
    bool grids_identical = false; ///< program step grid == legacy grid
    double dev_tables = 0.0;  ///< tables vs legacy, relative
    double speedup_program = 0.0; ///< legacy / program
    double speedup_tables = 0.0;  ///< legacy / tables
};

PathReport to_report(const RunResult& r) {
    PathReport p;
    p.ms = r.ms;
    p.eval_ms = r.stats.eval_s * 1e3;
    p.stamp_ms = r.stats.stamp_s * 1e3;
    p.factor_ms = r.stats.factor_s * 1e3;
    p.solve_ms = r.stats.solve_s * 1e3;
    p.tables_built = r.stats.tables_built;
    return p;
}

/// Bitwise comparison of two waveform sets (same step sequences, same
/// values — the exact-path contract).  Returns the max |a-b| (0.0 when
/// bit-identical) and sets `same_grid`.
double exact_deviation(const std::vector<analysis::Waveform>& a,
                       const std::vector<analysis::Waveform>& b,
                       bool& same_grid) {
    same_grid = a.size() == b.size();
    double dev = 0.0;
    for (std::size_t w = 0; same_grid && w < a.size(); ++w) {
        if (a[w].size() != b[w].size()) {
            same_grid = false;
            break;
        }
        for (std::size_t i = 0; i < a[w].size(); ++i) {
            if (std::memcmp(&a[w].time()[i], &b[w].time()[i],
                            sizeof(double)) != 0) {
                same_grid = false;
            }
            dev = std::max(dev,
                           std::abs(a[w].value_at(i) - b[w].value_at(i)));
        }
    }
    if (!same_grid) {
        dev = std::max(dev, 1.0); // structural mismatch: force a failure
    }
    return dev;
}

/// Relative deviation of `a` from reference `b`, sampled on a uniform
/// grid (the tabulated path may take a different step sequence), scaled
/// by each waveform's magnitude.
double relative_deviation(const std::vector<analysis::Waveform>& a,
                          const std::vector<analysis::Waveform>& b) {
    double worst = 0.0;
    for (std::size_t w = 0; w < a.size() && w < b.size(); ++w) {
        const double t0 = b[w].t_begin();
        const double t1 = b[w].t_end();
        const double scale = std::max(
            {std::abs(b[w].max_value()), std::abs(b[w].min_value()), 1e-12});
        constexpr int samples = 400;
        for (int s = 0; s <= samples; ++s) {
            const double t = t0 + (t1 - t0) * s / samples;
            worst = std::max(worst,
                             std::abs(a[w].at(t) - b[w].at(t)) / scale);
        }
    }
    return worst;
}

// ---- workloads --------------------------------------------------------

Circuit make_inverter() {
    return refckt::fet_rtd_inverter();
}

/// MxM RC mesh with an RTD load at EVERY node — the "RTD mesh" of the
/// paper-style statistical workloads (the RTD stamps are node-diagonal,
/// so the extra devices stress model evaluation, not factorisation).
Circuit make_mesh(int mesh) {
    refckt::MeshSpec spec;
    spec.rows = mesh;
    spec.cols = mesh;
    spec.rtd_stride = 1;
    Circuit ckt = refckt::rc_mesh(spec);
    const std::string center = "n" + std::to_string(mesh / 2) + "_" +
                               std::to_string(mesh / 2);
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node(center),
                                1e-9);
    return ckt;
}

RunResult run_tran(const mna::MnaAssembler& assembler, double t_stop,
                   Path path) {
    mna::SystemCache cache(assembler, cache_options(path));
    engines::SwecTranOptions o;
    o.t_stop = t_stop;
    o.tables.enabled = path == Path::tables;
    const auto t0 = Clock::now();
    engines::TranResult res = engines::run_tran_swec(assembler, o, nullptr,
                                                     &cache);
    RunResult out;
    out.ms = ms_since(t0);
    out.waves = std::move(res.node_waves);
    out.stats = cache.stats();
    return out;
}

RunResult run_mc(const mna::MnaAssembler& assembler, NodeId node,
                 int mc_runs, double t_stop, double noise_dt, Path path) {
    mna::SystemCache cache(assembler, cache_options(path));
    // Warm start every trial from the shared operating point (computed
    // once per path through the same cache; excluded from the timing).
    const engines::DcResult op =
        engines::solve_op_swec(assembler, {}, 0.0, 1.0, &cache);

    engines::McOptions mc;
    mc.runs = mc_runs;
    mc.t_stop = t_stop;
    mc.noise_dt = noise_dt;
    mc.grid_points = 26;
    // Default (paper-faithful) per-trial configuration: the eq. (12)
    // adaptive controller stays ON (run_monte_carlo caps dt_max at the
    // noise bandwidth), so every step pays the full SWEC evaluation the
    // controller needs — chords, rates and step bounds per device.
    mc.tran.start_from_dc = false;
    mc.tran.initial = op.x;
    mc.tran.dt_init = noise_dt;
    mc.tran.tables.enabled = path == Path::tables;

    const mna::SystemCache::Stats before = cache.stats();
    const auto t0 = Clock::now();
    engines::McResult res = engines::run_monte_carlo(
        assembler, mc, 1, node, runtime::ExecutionPolicy{1}, nullptr, &cache);
    RunResult out;
    out.ms = ms_since(t0);
    out.waves.push_back(std::move(res.mean));
    out.waves.push_back(std::move(res.stddev));
    out.stats = cache.stats();
    // Report the MC phase only (the op march warmed the same cache).
    out.stats.eval_s -= before.eval_s;
    out.stats.stamp_s -= before.stamp_s;
    out.stats.factor_s -= before.factor_s;
    out.stats.solve_s -= before.solve_s;
    return out;
}

void print_path(const char* label, const PathReport& p) {
    std::cout << "  " << std::left << std::setw(8) << label << std::right
              << std::fixed << std::setprecision(2) << std::setw(9) << p.ms
              << " ms | eval " << std::setw(8) << p.eval_ms << " | stamp "
              << std::setw(8) << p.stamp_ms << " | factor " << std::setw(8)
              << p.factor_ms << " | solve " << std::setw(8) << p.solve_ms;
    if (p.tables_built > 0) {
        std::cout << " | " << p.tables_built << " tables";
    }
    std::cout << "\n";
}

} // namespace

int main(int argc, char** argv) {
    const int mc_runs = argc > 1 ? std::stoi(argv[1]) : 100;
    const std::string out_path =
        argc > 2 ? argv[2] : std::string("BENCH_device_eval.json");
    const int mesh = argc > 3 ? std::stoi(argv[3]) : 32;
    const bool full_run = mc_runs >= 50;
    constexpr double k_table_tol = 1e-6;

    nanosim::bench::banner(
        "device_eval",
        "legacy virtual stamping vs compiled StampProgram vs tabulated "
        "chord models ({inverter, mesh} transients + " +
            std::to_string(mc_runs) + "-trial mesh Monte-Carlo)");

    bool pass = true;
    std::vector<WorkloadReport> reports;

    /// Run one workload through all three paths and gate the results.
    auto evaluate = [&](const std::string& name,
                        const mna::MnaAssembler& assembler,
                        const std::function<RunResult(Path)>& run,
                        bool gate_tables_speed) {
        nanosim::bench::section(name);
        WorkloadReport rep;
        rep.name = name;
        rep.unknowns = static_cast<std::size_t>(assembler.unknowns());

        const RunResult legacy = run(Path::legacy);
        const RunResult program = run(Path::program);
        const RunResult tables = run(Path::tables);
        rep.legacy = to_report(legacy);
        rep.program = to_report(program);
        rep.tables = to_report(tables);
        rep.dev_exact =
            exact_deviation(program.waves, legacy.waves, rep.grids_identical);
        rep.dev_tables = relative_deviation(tables.waves, legacy.waves);
        rep.speedup_program =
            program.ms > 0.0 ? legacy.ms / program.ms : 0.0;
        rep.speedup_tables = tables.ms > 0.0 ? legacy.ms / tables.ms : 0.0;

        std::cout << "  " << rep.unknowns << " unknowns\n";
        print_path("legacy", rep.legacy);
        print_path("program", rep.program);
        print_path("tables", rep.tables);
        std::cout << std::scientific << std::setprecision(2)
                  << "  program vs legacy: dev " << rep.dev_exact
                  << (rep.grids_identical ? " (grids identical)"
                                          : " (GRIDS DIFFER)")
                  << " | tables vs legacy: rel dev " << rep.dev_tables
                  << std::fixed << std::setprecision(2) << " | speedup "
                  << rep.speedup_program << "x (program), "
                  << rep.speedup_tables << "x (tables)\n";

        if (rep.dev_exact != 0.0 || !rep.grids_identical) {
            std::cout << "  FAIL: StampProgram path must be bit-identical "
                         "to legacy stamping\n";
            pass = false;
        }
        if (rep.dev_tables > k_table_tol) {
            std::cout << "  FAIL: tabulated path beyond " << k_table_tol
                      << " relative deviation\n";
            pass = false;
        }
        if (full_run && gate_tables_speed &&
            rep.tables.ms >= rep.program.ms) {
            std::cout << "  FAIL: tabulated path not faster than the "
                         "exact program path\n";
            pass = false;
        }
        reports.push_back(std::move(rep));
    };

    {
        const Circuit ckt = make_inverter();
        const mna::MnaAssembler assembler(ckt);
        evaluate("fet_rtd_inverter_tran", assembler,
                 [&](Path p) { return run_tran(assembler, 100e-9, p); },
                 /*gate_tables_speed=*/false);
    }
    {
        const Circuit ckt = make_mesh(mesh);
        const mna::MnaAssembler assembler(ckt);
        evaluate("rtd_mesh" + std::to_string(mesh) + "x" +
                     std::to_string(mesh) + "_tran",
                 assembler,
                 [&](Path p) { return run_tran(assembler, 20e-9, p); },
                 /*gate_tables_speed=*/false);
    }
    {
        const Circuit ckt = make_mesh(mesh);
        const mna::MnaAssembler assembler(ckt);
        const std::string center = "n" + std::to_string(mesh / 2) + "_" +
                                   std::to_string(mesh / 2);
        const NodeId node = ckt.find_node(center);
        evaluate("rtd_mesh" + std::to_string(mesh) + "x" +
                     std::to_string(mesh) + "_mc" + std::to_string(mc_runs),
                 assembler,
                 [&](Path p) {
                     return run_mc(assembler, node, mc_runs, 2e-9, 2.5e-10,
                                   p);
                 },
                 /*gate_tables_speed=*/true);
    }

    std::ofstream json(out_path);
    json << std::scientific << std::setprecision(9);
    json << "{\n  \"bench\": \"device_eval\",\n"
         << "  \"mc_runs\": " << mc_runs << ",\n"
         << "  \"mesh\": " << mesh << ",\n"
         << "  \"exact_gate\": \"bit-identical\",\n"
         << "  \"table_rel_tol\": " << k_table_tol << ",\n"
         << "  \"timing_gates_active\": " << (full_run ? "true" : "false")
         << ",\n  \"workloads\": [\n";
    auto path_json = [&json](const char* key, const PathReport& p) {
        json << "      \"" << key << "\": {\"ms\": " << p.ms
             << ", \"eval_ms\": " << p.eval_ms << ", \"stamp_ms\": "
             << p.stamp_ms << ", \"factor_ms\": " << p.factor_ms
             << ", \"solve_ms\": " << p.solve_ms << ", \"tables_built\": "
             << p.tables_built << "},\n";
    };
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const WorkloadReport& r = reports[i];
        json << "    {\n      \"name\": \"" << r.name << "\",\n"
             << "      \"unknowns\": " << r.unknowns << ",\n";
        path_json("legacy", r.legacy);
        path_json("program", r.program);
        path_json("tables", r.tables);
        json << "      \"dev_exact\": " << r.dev_exact << ",\n"
             << "      \"grids_identical\": "
             << (r.grids_identical ? "true" : "false") << ",\n"
             << "      \"dev_tables_rel\": " << r.dev_tables << ",\n"
             << "      \"speedup_program\": " << r.speedup_program << ",\n"
             << "      \"speedup_tables\": " << r.speedup_tables << "\n    }"
             << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
    std::cout << "\nwrote " << out_path << (pass ? " (pass)" : " (FAIL)")
              << "\n";
    return pass ? 0 : 1;
}
