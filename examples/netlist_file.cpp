// Nano-Sim example — deck-driven simulation.
//
//   $ ./netlist_file [deck.cir]
//
// With no argument, a demonstration deck is written to a temporary file
// first.  The example then parses the deck, runs every analysis card it
// contains (.op / .dc / .tran) and prints the results — the workflow of
// a classic SPICE-style batch run.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <variant>

#include "core/nanosim.hpp"

using namespace nanosim;

namespace {

const char* k_demo_deck = R"(.title RTD inverter demo deck
* MOBILE-style FET-RTD inverter with explicit model cards.
.model rtd_drv RTD(A=1e-4 B=2 C=1.5 D=0.3 N1=0.35 N2=0.0172 H=1.43e-8)
.model rtd_ld  RTD(A=3e-4 B=2 C=1.5 D=0.3 N1=0.35 N2=0.0172 H=4.29e-8)
.model nch NMOS(VTO=1 KP=2e-3 W=20u L=1u)

VDD vdd 0 DC 5
VIN in  0 PULSE(0 5 50n 5n 5n 95n 200n)
RTDL vdd out rtd_ld
RTDD out 0   rtd_drv
M1 out in 0 nch
COUT out 0 100p
CIN  in  0 10p

.op
.dc VIN 0 5 0.5
.tran 1n 400n
)";

void run_deck(const std::string& path) {
    SimSession session = SimSession::from_deck_file(path);
    const Circuit& ckt = session.circuit();
    std::cout << "parsed deck with " << ckt.device_count() << " devices, "
              << ckt.num_nodes() << " nodes, "
              << session.deck_analyses().size() << " analysis cards\n";

    // One spec per card, all run through the session's shared solver
    // cache (session.run_deck() would do the same in one call).
    for (const auto& card : session.deck_analyses()) {
        if (std::holds_alternative<OpCard>(card)) {
            std::cout << "\n== .op (SWEC engine) ==\n";
            const AnalysisResult op = session.run(OpSpec{});
            const NodeVoltages v = session.assembler().view(op.dc().x);
            for (NodeId n = 1; n <= ckt.num_nodes(); ++n) {
                std::cout << "  v(" << ckt.node_name(n) << ") = " << v(n)
                          << " V\n";
            }
        } else if (const auto* dc = std::get_if<DcCard>(&card)) {
            std::cout << "\n== .dc " << dc->source << ' ' << dc->start
                      << " .. " << dc->stop << " ==\n";
            DcSweepSpec spec;
            spec.source = dc->source;
            spec.start = dc->start;
            spec.stop = dc->stop;
            spec.step = dc->step;
            const AnalysisResult result = session.run(spec);
            const engines::SweepResult& sweep = result.sweep();
            const NodeId out = ckt.find_node("out");
            for (std::size_t k = 0; k < sweep.values.size(); ++k) {
                std::cout << "  " << dc->source << '=' << sweep.values[k]
                          << "  v(out)="
                          << session.assembler().view(sweep.solutions[k])(out)
                          << '\n';
            }
        } else if (const auto* tran = std::get_if<TranCard>(&card)) {
            std::cout << "\n== .tran to " << tran->tstop * 1e9
                      << " ns (SWEC engine) ==\n";
            TranSpec spec;
            spec.t_stop = tran->tstop;
            spec.common.dt_init = tran->tstep;
            const AnalysisResult result = session.run(spec);
            const engines::TranResult& res = result.tran();
            analysis::PlotOptions plot;
            plot.title = "v(out)";
            plot.x_label = "t [s]";
            analysis::ascii_plot(std::cout, {res.node(ckt, "out")}, plot);
            std::cout << "  " << res.steps_accepted << " steps, "
                      << res.flops.total() << " flops\n";
        }
    }
}

} // namespace

int main(int argc, char** argv) {
    std::string path;
    if (argc > 1) {
        path = argv[1];
    } else {
        path = "nanosim_demo_deck.cir";
        std::ofstream out(path);
        out << k_demo_deck;
        std::cout << "wrote demonstration deck to " << path << "\n\n";
    }
    try {
        run_deck(path);
    } catch (const SimError& e) {
        std::cerr << "simulation failed: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
