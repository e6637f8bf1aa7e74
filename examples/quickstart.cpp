// Nano-Sim quickstart — build a circuit in code, run analyses through a
// SimSession, find the RTD's resonance peak.
//
//   $ ./quickstart
//
// Walks the three core steps every Nano-Sim program follows:
//   1. describe the circuit (devices + nodes),
//   2. describe the analyses as AnalysisSpecs and run them through one
//      SimSession (every run shares the session's cached solver),
//   3. post-process the typed AnalysisResults.
#include <iostream>

#include "core/nanosim.hpp"

using namespace nanosim;

int main() {
    // 1. A voltage divider: V1 --- 50 ohm --- out --- RTD --- gnd.
    //    The RTD uses the Schulman physics-based I-V equation with the
    //    parameter set from the DATE'05 paper.
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    ckt.add<VSource>("V1", in, k_ground, 0.0);
    ckt.add<Resistor>("R1", in, out, 50.0);
    ckt.add<Rtd>("RTD1", out, k_ground, RtdParams::date05());

    // 2. One session, two analyses.  The DC sweep uses the SWEC engine
    //    (non-iterative: no Newton-Raphson anywhere, so the NDR region
    //    cannot break it); the transient that follows reuses the very
    //    same cached solver — the uniform result header shows the work.
    SimSession session(std::move(ckt));

    DcSweepSpec dc;
    dc.source = "V1";
    dc.start = 0.0;
    dc.stop = 5.0;
    dc.step = 0.05;
    const AnalysisResult swept = session.run(dc);
    const engines::SweepResult& sweep = swept.sweep();
    std::cout << "swept " << sweep.values.size() << " points, "
              << sweep.failures() << " failures, "
              << sweep.flops.total() << " flops total ["
              << swept.header.engine << " engine, "
              << swept.header.elapsed_s * 1e3 << " ms]\n\n";

    // 3. Recover the device I-V curve and find the peak.
    const auto& rtd = session.circuit().get<Rtd>("RTD1");
    const auto& assembler = session.assembler();
    analysis::Waveform iv("I(RTD) [mA]");
    for (std::size_t k = 0; k < sweep.values.size(); ++k) {
        const NodeVoltages v = assembler.view(sweep.solutions[k]);
        const double v_dev = v(session.circuit().find_node("out"));
        if (iv.empty() || v_dev > iv.time().back()) {
            iv.append(v_dev, rtd.branch_current(v) * 1e3);
        }
    }
    analysis::PlotOptions plot;
    plot.title = "RTD I-V recovered from the divider sweep";
    plot.x_label = "V across RTD [V]";
    analysis::ascii_plot(std::cout, {iv}, plot);

    const double v_peak = analysis::measure::peak_time(iv);
    std::cout << "\nresonance peak: " << iv.max_value() << " mA at "
              << v_peak << " V\n"
              << "current at 5 V bias: " << iv.value().back()
              << " mA (NDR region: below the peak)\n";

    // Bonus: a transient on the same session, watched by an observer.
    // The spec API makes progress + cancellation one parameter away.
    engines::AnalysisObserver observer;
    observer.on_progress = [](double f) {
        static int last = -1;
        const int pct = static_cast<int>(f * 100.0);
        if (pct / 25 != last) {
            last = pct / 25;
            std::cout << "  transient " << pct << "%\n";
        }
    };
    TranSpec tran;
    tran.t_stop = 100e-9;
    const AnalysisResult tr = session.run(tran, &observer);
    std::cout << "transient: " << tr.tran().steps_accepted
              << " steps, solver did " << tr.report.full_factors
              << " full / " << tr.report.fast_refactors
              << " fast factorisations, " << tr.report.dense_solves
              << " dense solves (cached pattern " << std::hex
              << tr.header.cache_signature << std::dec << ")\n";
    return 0;
}
