// Figure 8 — FET-RTD inverter transient: (a) circuit, output generated
// by (b) SWEC, (c) SPICE3-like NR, (d) ACES-like PWL.
//
// Paper: "SPICE3 fails to converge to the correct solution.  SWEC
// generates more accurate response without needing to solve set of non
// linear equations, thus yielding better results at less computational
// expense."
#include <iostream>

#include "bench_common.hpp"
#include "core/ref_circuits.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"

using namespace nanosim;

int main() {
    bench::banner("Figure 8",
                  "FET-RTD inverter transient (V_in: 0<->5 V pulse): "
                  "SWEC vs SPICE3-like NR vs ACES-like PWL");

    Circuit ckt = refckt::fet_rtd_inverter();
    const mna::MnaAssembler assembler(ckt);
    constexpr double t_stop = 400e-9;

    engines::SwecTranOptions sopt;
    sopt.t_stop = t_stop;
    const auto swec = engines::run_tran_swec(assembler, sopt);

    engines::NrTranOptions nopt;
    nopt.t_stop = t_stop;
    const auto nr = engines::run_tran_nr(assembler, nopt);

    engines::PwlTranOptions popt;
    popt.t_stop = t_stop;
    const auto pwl = engines::run_tran_pwl(assembler, popt);

    const auto& in = swec.node(ckt, "in");
    bench::section("input waveform");
    bench::plot({in}, "V(in)", "t [s]", "V");

    bench::section("(b) SWEC output");
    bench::plot({swec.node(ckt, "out")}, "V(out), SWEC", "t [s]", "V");

    bench::section("(c) SPICE3-like NR output");
    bench::plot({nr.node(ckt, "out")}, "V(out), NR companion model",
                "t [s]", "V");

    bench::section("(d) ACES-like PWL output");
    bench::plot({pwl.node(ckt, "out")}, "V(out), PWL segments", "t [s]",
                "V");

    bench::section("engine health and cost");
    analysis::Table t({"engine", "steps", "rejected", "iterations",
                       "non-converged steps", "flops"});
    t.add_row({"SWEC", std::to_string(swec.steps_accepted),
               std::to_string(swec.steps_rejected),
               std::to_string(swec.nr_iterations),
               std::to_string(swec.nonconverged_steps),
               std::to_string(swec.flops.total())});
    t.add_row({"NR (SPICE3-like)", std::to_string(nr.steps_accepted),
               std::to_string(nr.steps_rejected),
               std::to_string(nr.nr_iterations),
               std::to_string(nr.nonconverged_steps),
               std::to_string(nr.flops.total())});
    t.add_row({"PWL (ACES-like)", std::to_string(pwl.steps_accepted),
               std::to_string(pwl.steps_rejected),
               std::to_string(pwl.nr_iterations),
               std::to_string(pwl.nonconverged_steps),
               std::to_string(pwl.flops.total())});
    t.print(std::cout);

    std::cout << "\nShape to check (paper): SWEC switches cleanly with "
                 "ZERO nonlinear iterations and zero non-converged "
                 "steps; the NR engine needs hundreds of iterations and "
                 "shows NDR distress (rejections / non-converged "
                 "steps); PWL tracks but pays segment iterations.\n";

    bench::section("shape checks");
    bench::ShapeChecks checks;
    // Counts, so exact: no tolerance.
    checks.check(swec.nr_iterations == 0 && swec.nonconverged_steps == 0,
                 "SWEC: 0 nonlinear iterations and 0 non-converged steps "
                 "(exact)");
    checks.check(nr.steps_rejected + nr.nonconverged_steps > 0,
                 "NR: NDR distress, rejected + non-converged steps > 0");
    return checks.exit_code();
}
