// Golden-file test for the paper's DC results: the Fig. 7 divider sweeps
// and the seven Table I rows, recomputed with the same calls
// bench/fig7_dc_sweep.cpp and bench/table1_dc_flops.cpp make and compared
// with tests/golden/dc_fig7_table1.txt.  Flop counts, iteration counts
// and convergence flags must match exactly; every solution must match
// within 1e-12 of its point's largest unknown.
//
// The file is regenerated only on purpose, in a commit that says why the
// outputs moved:
//
//   ./build/test_golden_dc --gtest_also_run_disabled_tests
//                          --gtest_filter=GoldenDc.DISABLED_Regenerate
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ref_circuits.hpp"
#include "devices/sources.hpp"
#include "engines/dc_mla.hpp"
#include "engines/dc_swec.hpp"
#include "linalg/vecops.hpp"
#include "mna/mna.hpp"

namespace nanosim {
namespace {

const char* const k_golden_path = NANOSIM_GOLDEN_DIR "/dc_fig7_table1.txt";

struct NamedSweep {
    std::string name;
    engines::SweepResult result;
};

/// One Table I row: flops of the SWEC and the MLA run, and whether every
/// solve of each converged.
struct Row {
    std::string name;
    std::uint64_t swec = 0;
    std::uint64_t mla = 0;
    bool swec_ok = true;
    bool mla_ok = true;
};

struct Golden {
    std::vector<NamedSweep> sweeps;
    std::vector<Row> rows;
};

// ---- the bench calls ---------------------------------------------------

Row op_row(const std::string& name, Circuit ckt, double bias) {
    ckt.get_mutable<VSource>("V1").set_wave(std::make_shared<DcWave>(bias));
    const mna::MnaAssembler assembler(ckt);
    const auto swec = engines::solve_op_swec(assembler);
    const auto mla = engines::solve_op_mla(assembler);
    return {name, swec.flops.total(), mla.flops.total(), swec.converged,
            mla.converged};
}

Row sweep_row(const std::string& name, Circuit ckt_a, Circuit ckt_b,
              double lo, double hi, std::size_t points) {
    const linalg::Vector values = linalg::linspace(lo, hi, points);
    const auto swec = engines::dc_sweep_swec(ckt_a, "V1", values);
    const auto mla = engines::dc_sweep_mla(ckt_b, "V1", values);
    return {name, swec.flops.total(), mla.flops.total(),
            swec.failures() == 0, mla.failures() == 0};
}

Row cold_sweep_row(const std::string& name, Circuit ckt, double lo,
                   double hi, std::size_t points) {
    Row row;
    row.name = name;
    const linalg::Vector values = linalg::linspace(lo, hi, points);
    auto set_level = [&ckt](double v) {
        ckt.get_mutable<VSource>("V1").set_wave(std::make_shared<DcWave>(v));
    };
    {
        set_level(values.front());
        const mna::MnaAssembler assembler(ckt);
        const FlopScope scope;
        for (const double v : values) {
            set_level(v);
            row.swec_ok = engines::solve_op_swec(assembler).converged &&
                          row.swec_ok;
        }
        row.swec = scope.counter().total();
    }
    {
        set_level(values.front());
        const mna::MnaAssembler assembler(ckt);
        const FlopScope scope;
        for (const double v : values) {
            set_level(v);
            row.mla_ok = engines::solve_op_mla(assembler).converged &&
                         row.mla_ok;
        }
        row.mla = scope.counter().total();
    }
    return row;
}

Golden compute() {
    Golden g;
    {
        // Fig. 7(a): the RTD divider traced by SWEC and by the MLA.
        Circuit swec = refckt::rtd_divider(50.0);
        Circuit mla = refckt::rtd_divider(50.0);
        const linalg::Vector values = linalg::linspace(0.0, 5.0, 101);
        g.sweeps.push_back(
            {"fig7a_swec", engines::dc_sweep_swec(swec, "V1", values)});
        g.sweeps.push_back(
            {"fig7a_mla", engines::dc_sweep_mla(mla, "V1", values)});
    }
    {
        // Fig. 7(b): the nanowire divider, at the 101 points the figure
        // uses and at the 81 points of Table I's nanowire row.
        for (const std::size_t points : {101U, 81U}) {
            Circuit ckt = refckt::nanowire_divider(1e3);
            g.sweeps.push_back(
                {"fig7b_swec_" + std::to_string(points),
                 engines::dc_sweep_swec(ckt, "V1",
                                        linalg::linspace(-2.0, 2.0, points))});
        }
    }

    g.rows.push_back(op_row("op_rtd_2v", refckt::rtd_divider(50.0), 2.0));
    g.rows.push_back(op_row("op_rtd_5v", refckt::rtd_divider(50.0), 5.0));
    g.rows.push_back(
        op_row("op_rtd_5v_r220", refckt::rtd_divider(220.0), 5.0));
    {
        refckt::ChainSpec spec;
        spec.stages = 8;
        g.rows.push_back(op_row("op_chain8_5v", refckt::rtd_chain(spec), 5.0));
    }
    g.rows.push_back(sweep_row("sweep_rtd_101_warm", refckt::rtd_divider(50.0),
                               refckt::rtd_divider(50.0), 0.0, 5.0, 101));
    g.rows.push_back(sweep_row("sweep_nanowire_81_warm",
                               refckt::nanowire_divider(1e3),
                               refckt::nanowire_divider(1e3), -2.0, 2.0, 81));
    g.rows.push_back(cold_sweep_row("sweep_rtd_101_cold",
                                    refckt::rtd_divider(50.0), 0.0, 5.0, 101));
    return g;
}

const Golden& computed() {
    static const Golden g = compute();
    return g;
}

// ---- file format -------------------------------------------------------
//
//   sweep NAME POINTS TOTAL_ITERATIONS ADD MUL DIV SPECIAL LU_FACTOR
//         LU_SOLVE DEVICE_EVAL
//   VALUE CONVERGED UNKNOWNS X0 X1 ...        (one line per point)
//   row NAME SWEC_FLOPS MLA_FLOPS SWEC_OK MLA_OK

void write(std::ostream& out, const Golden& g) {
    out << "# Golden DC outputs of the paper benches: the Fig. 7 divider\n"
           "# sweeps (bench/fig7_dc_sweep.cpp) and the Table I flop rows\n"
           "# (bench/table1_dc_flops.cpp), checked by tests/test_golden_dc.cpp.\n"
           "# Regenerate only in a commit that explains why the outputs\n"
           "# moved:\n"
           "#   ./build/test_golden_dc --gtest_also_run_disabled_tests \\\n"
           "#       --gtest_filter=GoldenDc.DISABLED_Regenerate\n"
           "# Format (doubles at 17 significant digits):\n"
           "#   sweep NAME POINTS TOTAL_ITERATIONS ADD MUL DIV SPECIAL "
           "LU_FACTOR LU_SOLVE DEVICE_EVAL\n"
           "#   VALUE CONVERGED UNKNOWNS X...   (one line per point)\n"
           "#   row NAME SWEC_FLOPS MLA_FLOPS SWEC_OK MLA_OK\n";
    out.precision(17);
    for (const NamedSweep& s : g.sweeps) {
        const engines::SweepResult& r = s.result;
        const FlopCounter& f = r.flops;
        out << "sweep " << s.name << ' ' << r.values.size() << ' '
            << r.total_iterations << ' ' << f.add << ' ' << f.mul << ' '
            << f.div << ' ' << f.special << ' ' << f.lu_factor << ' '
            << f.lu_solve << ' ' << f.device_eval << '\n';
        for (std::size_t k = 0; k < r.values.size(); ++k) {
            out << r.values[k] << ' ' << int{r.converged[k]} << ' '
                << r.solutions[k].size();
            for (const double x : r.solutions[k]) {
                out << ' ' << x;
            }
            out << '\n';
        }
    }
    for (const Row& row : g.rows) {
        out << "row " << row.name << ' ' << row.swec << ' ' << row.mla << ' '
            << int{row.swec_ok} << ' ' << int{row.mla_ok} << '\n';
    }
}

Golden read(std::istream& in) {
    Golden g;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line.front() == '#') {
            continue;
        }
        std::istringstream fields(line);
        std::string tag;
        fields >> tag;
        if (tag == "row") {
            Row row;
            fields >> row.name >> row.swec >> row.mla >> row.swec_ok >>
                row.mla_ok;
            g.rows.push_back(row);
            continue;
        }
        NamedSweep s;
        std::size_t points = 0;
        FlopCounter& f = s.result.flops;
        fields >> s.name >> points >> s.result.total_iterations >> f.add >>
            f.mul >> f.div >> f.special >> f.lu_factor >> f.lu_solve >>
            f.device_eval;
        for (std::size_t k = 0; k < points && std::getline(in, line); ++k) {
            std::istringstream point(line);
            double value = 0.0;
            int converged = 0;
            std::size_t unknowns = 0;
            point >> value >> converged >> unknowns;
            linalg::Vector x(unknowns);
            for (double& xi : x) {
                point >> xi;
            }
            s.result.values.push_back(value);
            s.result.converged.push_back(converged != 0);
            s.result.solutions.push_back(std::move(x));
        }
        g.sweeps.push_back(std::move(s));
    }
    return g;
}

Golden load() {
    std::ifstream in(k_golden_path);
    EXPECT_TRUE(in.good()) << "cannot open " << k_golden_path;
    return read(in);
}

// ---- the checks --------------------------------------------------------

TEST(GoldenDc, Fig7SweepsMatchGolden) {
    const Golden want = load();
    const std::vector<NamedSweep>& got = computed().sweeps;
    ASSERT_EQ(got.size(), want.sweeps.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const engines::SweepResult& a = got[i].result;
        const engines::SweepResult& b = want.sweeps[i].result;
        SCOPED_TRACE(want.sweeps[i].name);
        EXPECT_EQ(got[i].name, want.sweeps[i].name);
        EXPECT_EQ(a.values, b.values);
        EXPECT_EQ(a.converged, b.converged);
        EXPECT_EQ(a.total_iterations, b.total_iterations);
        EXPECT_EQ(a.flops.add, b.flops.add);
        EXPECT_EQ(a.flops.mul, b.flops.mul);
        EXPECT_EQ(a.flops.div, b.flops.div);
        EXPECT_EQ(a.flops.special, b.flops.special);
        EXPECT_EQ(a.flops.lu_factor, b.flops.lu_factor);
        EXPECT_EQ(a.flops.lu_solve, b.flops.lu_solve);
        EXPECT_EQ(a.flops.device_eval, b.flops.device_eval);
        ASSERT_EQ(a.solutions.size(), b.solutions.size());
        for (std::size_t k = 0; k < a.solutions.size(); ++k) {
            ASSERT_EQ(a.solutions[k].size(), b.solutions[k].size());
            const double tol = 1e-12 * linalg::norm_inf(b.solutions[k]);
            for (std::size_t j = 0; j < a.solutions[k].size(); ++j) {
                EXPECT_NEAR(a.solutions[k][j], b.solutions[k][j], tol)
                    << "point " << k << ", unknown " << j;
            }
        }
    }
}

TEST(GoldenDc, Table1RowsMatchGolden) {
    const Golden want = load();
    const std::vector<Row>& got = computed().rows;
    ASSERT_EQ(got.size(), want.rows.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(want.rows[i].name);
        EXPECT_EQ(got[i].name, want.rows[i].name);
        EXPECT_EQ(got[i].swec, want.rows[i].swec);
        EXPECT_EQ(got[i].mla, want.rows[i].mla);
        EXPECT_EQ(got[i].swec_ok, want.rows[i].swec_ok);
        EXPECT_EQ(got[i].mla_ok, want.rows[i].mla_ok);
    }
}

TEST(GoldenDc, DISABLED_Regenerate) {
    std::ofstream out(k_golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << k_golden_path;
    write(out, computed());
}

} // namespace
} // namespace nanosim
