// Nano-Sim bench — Monte-Carlo worker scaling.
//
//   $ ./bench_parallel_scaling [runs] [out.json]
//
// Times the same fixed-seed Monte-Carlo ensemble on the noisy-RC test
// bed at 1, 2 and 4 workers, verifies that every worker count produced
// bit-identical ensemble statistics (exit 1 otherwise), and records
// wall-clock times + speedups to BENCH_parallel.json.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/nanosim.hpp"
#include "core/ref_circuits.hpp"

using namespace nanosim;
using Clock = std::chrono::steady_clock;

namespace {

[[nodiscard]] double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

} // namespace

int main(int argc, char** argv) {
    const int runs = argc > 1 ? std::stoi(argv[1]) : 64;
    const std::string out_path =
        argc > 2 ? argv[2] : std::string("BENCH_parallel.json");

    bench::banner("parallel scaling",
                  "Monte-Carlo ensemble wall time at 1/2/4 workers");

    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    const NodeId node = ckt.find_node("n1");

    // Long horizon: each realization costs ~ms so the per-task pool
    // overhead (µs) cannot mask the scaling.
    engines::McOptions options;
    options.runs = runs;
    options.t_stop = 50e-9;
    options.grid_points = 101;
    constexpr std::uint64_t k_seed = 42;

    bench::section("run_monte_carlo (per-trial noise streams)");
    const std::vector<int> thread_counts{1, 2, 4};
    std::vector<double> pool_ms;
    std::vector<engines::McResult> results;
    for (const int threads : thread_counts) {
        const auto t0 = Clock::now();
        results.push_back(engines::run_monte_carlo(
            assembler, options, k_seed, node,
            runtime::ExecutionPolicy{threads}));
        pool_ms.push_back(ms_since(t0));
        std::cout << "  threads=" << threads << ": " << pool_ms.back()
                  << " ms, speedup vs 1 thread = "
                  << pool_ms.front() / pool_ms.back() << "x\n";
    }

    // Reproducibility cross-check: every thread count must agree bit-wise.
    bool identical = true;
    for (std::size_t i = 1; i < results.size(); ++i) {
        identical = identical &&
                    results[i].mean.value() == results[0].mean.value() &&
                    results[i].stddev.value() == results[0].stddev.value();
    }
    std::cout << "\n  bit-identical across thread counts: "
              << (identical ? "yes" : "NO — BUG") << '\n';

    const double speedup4 = pool_ms.front() / pool_ms.back();
    std::ofstream json(out_path);
    json << "{\n"
         << "  \"workload\": \"noisy_rc monte carlo\",\n"
         << "  \"runs\": " << runs << ",\n"
         << "  \"t_stop\": " << options.t_stop << ",\n"
         << "  \"pool_1_thread_ms\": " << pool_ms[0] << ",\n"
         << "  \"pool_2_thread_ms\": " << pool_ms[1] << ",\n"
         << "  \"pool_4_thread_ms\": " << pool_ms[2] << ",\n"
         << "  \"speedup_4_threads\": " << speedup4 << ",\n"
         << "  \"hardware_threads\": "
         << runtime::ExecutionPolicy{}.resolved() << ",\n"
         << "  \"bit_identical\": " << (identical ? "true" : "false") << "\n"
         << "}\n";
    std::cout << "  wrote " << out_path << '\n';

    return identical ? 0 : 1;
}
