// Table I — comparison of DC simulation performance (floating point
// operations), SWEC vs our implementation of the Modified Limiting
// Algorithm (MLA).
//
// Paper: "Table I compares the number of floating point operations
// needed to perform different types of simulations by SWEC and MLA ...
// SWEC is a non iterative method and thus yields high simulation speed."
// The scanned table's row content is not legible in the text source, so
// the same KINDS of rows are reported: cold-start operating points and
// full sweeps on the Sec. 5.1 circuits.
#include <iostream>

#include "bench_common.hpp"
#include "core/ref_circuits.hpp"
#include "devices/sources.hpp"
#include "engines/dc_mla.hpp"
#include "engines/dc_swec.hpp"
#include "linalg/vecops.hpp"
#include "mna/mna.hpp"

using namespace nanosim;

namespace {

struct Row {
    std::string name;
    std::uint64_t swec = 0;
    std::uint64_t mla = 0;
    bool swec_ok = true;
    bool mla_ok = true;
};

Row op_row(const std::string& name, Circuit ckt, double bias) {
    ckt.get_mutable<VSource>("V1").set_wave(std::make_shared<DcWave>(bias));
    const mna::MnaAssembler assembler(ckt);
    Row row;
    row.name = name;
    const auto swec = engines::solve_op_swec(assembler);
    const auto mla = engines::solve_op_mla(assembler);
    row.swec = swec.flops.total();
    row.mla = mla.flops.total();
    row.swec_ok = swec.converged;
    row.mla_ok = mla.converged;
    return row;
}

Row sweep_row(const std::string& name, Circuit ckt_a, Circuit ckt_b,
              double lo, double hi, std::size_t points) {
    const linalg::Vector values = linalg::linspace(lo, hi, points);
    Row row;
    row.name = name;
    const auto swec = engines::dc_sweep_swec(ckt_a, "V1", values);
    const auto mla = engines::dc_sweep_mla(ckt_b, "V1", values);
    row.swec = swec.flops.total();
    row.mla = mla.flops.total();
    row.swec_ok = swec.failures() == 0;
    row.mla_ok = mla.failures() == 0;
    return row;
}

/// Cold-start sweep: every point solved from scratch, the configuration
/// closest to "run a DC analysis per bias" (and the one that exposes the
/// iterative solver's restart cost, as Table I's standalone DC rows do).
Row cold_sweep_row(const std::string& name, Circuit ckt, double lo,
                   double hi, std::size_t points) {
    Row row;
    row.name = name;
    const linalg::Vector values = linalg::linspace(lo, hi, points);
    auto set_level = [&ckt](double v) {
        ckt.get_mutable<VSource>("V1").set_wave(
            std::make_shared<DcWave>(v));
    };
    {
        set_level(values.front());
        const mna::MnaAssembler assembler(ckt);
        const FlopScope scope;
        for (const double v : values) {
            set_level(v);
            const auto r = engines::solve_op_swec(assembler);
            row.swec_ok = row.swec_ok && r.converged;
        }
        row.swec = scope.counter().total();
    }
    {
        set_level(values.front());
        const mna::MnaAssembler assembler(ckt);
        const FlopScope scope;
        for (const double v : values) {
            set_level(v);
            const auto r = engines::solve_op_mla(assembler);
            row.mla_ok = row.mla_ok && r.converged;
        }
        row.mla = scope.counter().total();
    }
    return row;
}

} // namespace

int main() {
    bench::banner("Table I",
                  "DC simulation cost in floating point operations: "
                  "SWEC vs MLA (our implementation, as in the paper)");

    std::vector<Row> rows;
    rows.push_back(op_row("RTD divider op @ 2.0 V (cold start)",
                          refckt::rtd_divider(50.0), 2.0));
    rows.push_back(op_row("RTD divider op @ 5.0 V (cold start)",
                          refckt::rtd_divider(50.0), 5.0));
    rows.push_back(op_row("RTD divider op @ 5.0 V, R=220 (NDR-crossing)",
                          refckt::rtd_divider(220.0), 5.0));
    {
        refckt::ChainSpec spec;
        spec.stages = 8;
        Circuit chain = refckt::rtd_chain(spec);
        // Reuse the chain's pulse source as a DC bias point.
        chain.get_mutable<VSource>("V1").set_wave(
            std::make_shared<DcWave>(5.0));
        const mna::MnaAssembler assembler(chain);
        Row row;
        row.name = "8-stage RTD chain op @ 5.0 V (cold start)";
        const auto swec = engines::solve_op_swec(assembler);
        const auto mla = engines::solve_op_mla(assembler);
        row.swec = swec.flops.total();
        row.mla = mla.flops.total();
        row.swec_ok = swec.converged;
        row.mla_ok = mla.converged;
        rows.push_back(row);
    }
    rows.push_back(sweep_row("RTD divider sweep 0-5 V, 101 pts (warm)",
                             refckt::rtd_divider(50.0),
                             refckt::rtd_divider(50.0), 0.0, 5.0, 101));
    rows.push_back(sweep_row("nanowire divider sweep -2..2 V, 81 pts (warm)",
                             refckt::nanowire_divider(1e3),
                             refckt::nanowire_divider(1e3), -2.0, 2.0,
                             81));
    rows.push_back(cold_sweep_row(
        "RTD divider sweep 0-5 V, 101 pts (cold per point)",
        refckt::rtd_divider(50.0), 0.0, 5.0, 101));

    analysis::Table t({"DC simulation", "SWEC flops", "MLA flops",
                       "MLA/SWEC", "both converged"});
    for (const auto& r : rows) {
        t.add_row({r.name, std::to_string(r.swec), std::to_string(r.mla),
                   analysis::Table::num(
                       static_cast<double>(r.mla) /
                           static_cast<double>(std::max<std::uint64_t>(
                               r.swec, 1)),
                       3),
                   r.swec_ok && r.mla_ok ? "yes" : "NO"});
    }
    t.print(std::cout);
    std::cout << "\nShape to check (paper): SWEC needs fewer flops than "
                 "the iterative MLA on every row; the paper reports "
                 "20-30x for its workloads, and warm-started sweeps "
                 "narrow the gap.\n";
    return 0;
}
