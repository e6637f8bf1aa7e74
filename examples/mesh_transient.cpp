// Nano-Sim example — 2-D RTD mesh transient through the ordered sparse
// solver.
//
//   $ ./mesh_transient [rows cols]
//
// Builds the rc_mesh workload (an RxC resistor grid with grounded
// capacitors and RTD loads, pulse-driven at one corner — the topology of
// nanotech fabrics and power-distribution networks), runs the SWEC
// transient on a SystemCache of its own, and reports what the cached
// sparse solver did (the cache's stats): which fill-reducing ordering it
// picked at pattern-freeze time, the predicted vs actual LU fill, and the
// full-factor/fast-refactor split.
// The same workload is available from the CLI as
// `nanosim run --circuit mesh:RxC`.
#include <iostream>
#include <string>

#include "core/nanosim.hpp"

using namespace nanosim;

int main(int argc, char** argv) {
    const int rows = argc > 1 ? std::stoi(argv[1]) : 12;
    const int cols = argc > 2 ? std::stoi(argv[2]) : rows;

    Circuit ckt = refckt::rc_mesh(rows, cols);
    const mna::MnaAssembler assembler(ckt);
    std::cout << "rc_mesh " << rows << "x" << cols << ": "
              << ckt.device_count() << " devices, " << assembler.unknowns()
              << " unknowns\n";

    engines::SwecTranOptions opt;
    opt.t_stop = 100e-9;
    mna::SystemCache cache(assembler);
    const engines::TranResult res =
        engines::run_tran_swec(assembler, opt, nullptr, &cache);
    const mna::SystemCache::Stats& solver = cache.stats();

    std::cout << "SWEC transient: " << res.steps_accepted
              << " accepted steps, last point at t = "
              << res.node_waves.front().t_end() << " s (t_stop = "
              << opt.t_stop << " s)\n";
    std::cout << "sparse solver: ordering "
              << linalg::ordering_name(solver.ordering) << ", pattern nnz "
              << solver.pattern_nnz << ", factor nnz " << solver.factor_nnz
              << " (predicted " << solver.predicted_fill_chosen
              << ", natural order would be "
              << solver.predicted_fill_natural << ")\n";
    std::cout << "factorisations: " << solver.full_factors << " full, "
              << solver.fast_refactors << " pattern-reusing refactors, "
              << solver.dense_solves << " dense solves\n";

    // The far-corner node shows the pulse diffusing across the grid.
    const std::string far = "n" + std::to_string(rows - 1) + "_" +
                            std::to_string(cols - 1);
    analysis::PlotOptions plot;
    plot.title = "mesh corner response";
    plot.x_label = "t [s]";
    analysis::ascii_plot(
        std::cout,
        {res.node(ckt, "n0_0"), res.node(ckt, far)}, plot);
    return 0;
}
