// Nano-Sim example — stochastic power-grid droop analysis.
//
//   $ ./power_grid_noise [grid_side]
//
// The paper motivates its stochastic engine with power-grid analysis
// under random current draws from nanodevices (its refs [11], [12]):
// "even though the average voltage drop is zero, if the transient
// voltage drop at a certain time point exceeds certain constraints, the
// whole design is still going to fail."
//
// This example builds an N x N resistive power grid with decap at every
// node, supplied from one corner, loaded by deterministic draws plus
// white-noise draws at every interior node, and uses the IMPLICIT
// Euler-Maruyama engine (the grid has a voltage source, so C is
// singular and the paper's explicit scheme does not apply) to estimate
// the worst droop distribution.  Also a scale demonstration: the MNA
// system is solved by the Gilbert-Peierls sparse LU.
#include <iostream>
#include <string>

#include "core/nanosim.hpp"

using namespace nanosim;

namespace {

Circuit build_grid(int side) {
    Circuit ckt;
    const double r_seg = 2.0;     // grid segment resistance [ohm]
    const double c_decap = 10e-12;// decap per node [F]
    const double i_load = 1e-3;   // deterministic draw per node [A]
    const double sigma = 2e-9;    // noise intensity per node

    auto name = [](int i, int j) {
        return "g" + std::to_string(i) + "_" + std::to_string(j);
    };
    // Nodes and decaps.
    for (int i = 0; i < side; ++i) {
        for (int j = 0; j < side; ++j) {
            const NodeId n = ckt.node(name(i, j));
            ckt.add<Capacitor>("C" + name(i, j), n, k_ground, c_decap);
        }
    }
    // Grid resistors.
    for (int i = 0; i < side; ++i) {
        for (int j = 0; j < side; ++j) {
            if (i + 1 < side) {
                ckt.add<Resistor>("RV" + name(i, j), ckt.node(name(i, j)),
                                  ckt.node(name(i + 1, j)), r_seg);
            }
            if (j + 1 < side) {
                ckt.add<Resistor>("RH" + name(i, j), ckt.node(name(i, j)),
                                  ckt.node(name(i, j + 1)), r_seg);
            }
        }
    }
    // Supply at the corner.
    ckt.add<VSource>("VDD", ckt.node(name(0, 0)), k_ground, 1.0);
    // Loads + noise at interior nodes.
    for (int i = 1; i < side; ++i) {
        for (int j = 1; j < side; ++j) {
            const NodeId n = ckt.node(name(i, j));
            ckt.add<ISource>("IL" + name(i, j), n, k_ground, i_load);
            ckt.add<NoiseCurrentSource>("NS" + name(i, j), n, k_ground,
                                        sigma);
        }
    }
    return ckt;
}

} // namespace

int main(int argc, char** argv) {
    const int side = argc > 1 ? std::stoi(argv[1]) : 6;
    Circuit ckt = build_grid(side);
    const mna::MnaAssembler assembler(ckt);
    std::cout << "power grid " << side << "x" << side << ": "
              << ckt.device_count() << " devices, "
              << assembler.unknowns() << " unknowns (sparse LU engaged "
              << (assembler.unknowns() > 64 ? "yes" : "no") << ")\n";

    // Observe the far corner — the worst-droop node.
    const std::string far = "g" + std::to_string(side - 1) + "_" +
                            std::to_string(side - 1);

    engines::EmOptions opt;
    opt.t_stop = 10e-9;
    opt.dt = 50e-12;
    opt.scheme = engines::EmScheme::implicit_be; // C singular: V source
    opt.start_from_dc = true;
    const engines::EmEngine engine(assembler, opt);

    const auto ens =
        engines::run_em_ensemble(engine, 200, 7, ckt.find_node(far));

    std::cout << "far-corner voltage, " << ens.stats.paths()
              << " paths over " << opt.t_stop * 1e9 << " ns:\n"
              << "  mean(end)  : "
              << ens.stats.at(ens.grid.size() - 1).mean() << " V\n"
              << "  sigma(end) : "
              << ens.stats.at(ens.grid.size() - 1).stddev() << " V\n";

    // Droop = 1.0 - min over time; collect per-path minimum via the
    // peak machinery on the negated waveform: use per-point stats here.
    double worst_mean_droop = 0.0;
    for (std::size_t j = 0; j < ens.grid.size(); ++j) {
        worst_mean_droop = std::max(
            worst_mean_droop, 1.0 - (ens.stats.at(j).mean() -
                                     3.0 * ens.stats.at(j).stddev()));
    }
    std::cout << "  worst mean-3sigma droop over the window: "
              << worst_mean_droop * 1e3 << " mV\n"
              << "A deterministic run sees only the mean droop; the "
                 "3-sigma figure is what signs off the grid.\n";
    return 0;
}
