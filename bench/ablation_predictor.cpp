// Ablation — the first-order Taylor conductance predictor (eq. 5).
//
// DESIGN.md question: does predicting G_eq(n+1) = G_eq(n) + h/2 G'_eq(n)
// forward actually matter, or would the stale chord G_eq(n) do?  The
// study runs the FET-RTD inverter and the RTD chain with the predictor
// on and off across error targets, and measures each run's error on the
// circuit's output node (the inverter's out, the chain's last stage)
// against a fixed-step run at 1/4000 of the horizon.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/ref_circuits.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"

using namespace nanosim;

namespace {

/// One predictor-on/off pair at one eps.
struct Pair {
    double eps = 0.0;
    int steps_on = 0;
    int steps_off = 0;
    double err_on = 0.0;  ///< max |v(node) - reference|, eq. (5) on
    double err_off = 0.0; ///< the same with the stale chord
};

std::vector<Pair> study(const std::string& name, const Circuit& ckt,
                        const std::string& node, double t_stop) {
    bench::section(name);
    const mna::MnaAssembler assembler(ckt);
    engines::SwecTranOptions ref_opt;
    ref_opt.t_stop = t_stop;
    ref_opt.adaptive = false;
    ref_opt.dt_init = t_stop / 4000.0;
    const auto ref = engines::run_tran_swec(assembler, ref_opt);

    analysis::Table t({"eps", "predictor", "steps", "flops",
                       "v(" + node + ") err [V]"});
    std::vector<Pair> pairs;
    for (const double eps : {0.05, 0.1, 0.2}) {
        Pair& pair = pairs.emplace_back();
        pair.eps = eps;
        for (const bool use : {true, false}) {
            engines::SwecTranOptions opt;
            opt.t_stop = t_stop;
            opt.eps = eps;
            opt.use_predictor = use;
            const auto r = engines::run_tran_swec(assembler, opt);
            const double err = analysis::measure::max_abs_error(
                r.node(ckt, node), ref.node(ckt, node));
            (use ? pair.steps_on : pair.steps_off) = r.steps_accepted;
            (use ? pair.err_on : pair.err_off) = err;
            t.add_row({analysis::Table::num(eps),
                       use ? "eq. (5) ON" : "OFF (stale chord)",
                       std::to_string(r.steps_accepted),
                       std::to_string(r.flops.total()),
                       analysis::Table::num(err, 4)});
        }
    }
    t.print(std::cout);
    return pairs;
}

} // namespace

int main() {
    bench::banner("Ablation: eq. (5) Taylor predictor",
                  "SWEC accuracy/cost with the conductance predictor "
                  "enabled vs disabled");
    const std::vector<Pair> inverter = study(
        "FET-RTD inverter, 200 ns", refckt::fet_rtd_inverter(), "out", 200e-9);
    refckt::ChainSpec spec;
    spec.stages = 8;
    const std::vector<Pair> chain =
        study("RTD chain x8, 100 ns", refckt::rtd_chain(spec), "n8", 100e-9);
    std::cout << "\nShape to check: on the inverter the predictor lowers "
                 "v(out)'s error at equal eps and about equal steps (~3x at "
                 "eps 0.05), and the gap in volts widens as eps grows; on "
                 "the 8-stage chain it moves neither the steps nor the last "
                 "stage's error (~3e-5 V at eps 0.05 either way): no gain "
                 "there.\n";

    bench::section("shape checks");
    bench::ShapeChecks checks;
    for (std::size_t i = 0; i < inverter.size(); ++i) {
        const Pair& p = inverter[i];
        const std::string at = " at eps " + analysis::Table::num(p.eps);
        // ~0.3-0.4 today: the bound leaves room for step-control changes
        // while failing a predictor that buys less than 2x.
        checks.check(p.err_on <= 0.5 * p.err_off,
                     "inverter: error with eq. (5) <= 0.5x without" + at);
        if (i > 0) {
            // The gap is the error without eq. (5) minus the error with
            // it; strictly growing, no tolerance.
            const Pair& q = inverter[i - 1];
            checks.check(p.err_off - p.err_on > q.err_off - q.err_on,
                         "inverter: the volt gap grows from eps " +
                             analysis::Table::num(q.eps) + " to " +
                             analysis::Table::num(p.eps));
        }
    }
    for (const Pair& p : chain) {
        const std::string at = " at eps " + analysis::Table::num(p.eps);
        checks.check(p.steps_on == p.steps_off,
                     "chain: equal steps with and without eq. (5)" + at +
                         " (exact)");
        // ~1% apart today: the chain's chords barely move within a step.
        checks.check(std::abs(p.err_on - p.err_off) <=
                         0.05 * std::max(p.err_on, p.err_off),
                     "chain: v(n8) errors within 5% of each other" + at);
    }
    return checks.exit_code();
}
