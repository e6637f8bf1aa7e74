// Golden-file test for the paper's transient results: the Fig. 8 FET-RTD
// inverter on SWEC, NR and PWL and the Fig. 9 RTD flip-flop on SWEC,
// recomputed with the same calls bench/fig8_fet_rtd_inverter.cpp and
// bench/fig9_rtd_dff.cpp make and compared with
// tests/golden/tran_fig8_fig9.txt.  Step, rejection, iteration and
// non-converged counts, every step-bound and rescue counter and the flops
// must match exactly; the output waveform, sampled at 41 fixed times,
// must match within 1e-12 of its swing (max - min over the run).
//
// The file is regenerated only on purpose, in a commit that says why the
// outputs moved:
//
//   ./build/test_golden_tran --gtest_also_run_disabled_tests
//                            --gtest_filter=GoldenTran.DISABLED_Regenerate
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/ref_circuits.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"
#include "util/fields.hpp"

namespace nanosim {
namespace {

const char* const k_golden_path = NANOSIM_GOLDEN_DIR "/tran_fig8_fig9.txt";
constexpr int k_samples = 41;

using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/// One transient of a bench: its exact counters and one sampled wave.
struct GoldenRun {
    std::string name;
    Counters counters;
    std::string wave;   ///< label of the sampled node wave
    double swing = 0.0; ///< max - min of that wave over the whole run
    std::vector<std::pair<double, double>> samples; ///< (t, v)
};

// ---- the bench calls ---------------------------------------------------

template <typename S>
void append_fields(Counters& out, const std::string& prefix, const S& s) {
    for_each_field<S>([&](const auto& field) {
        out.emplace_back(prefix + field.key,
                         static_cast<std::uint64_t>(s.*field.member));
    });
}

GoldenRun make_run(std::string name, const engines::TranResult& r,
                   const Circuit& ckt, const std::string& node,
                   double t_stop) {
    GoldenRun run;
    run.name = std::move(name);
    run.counters = {
        {"steps_accepted", static_cast<std::uint64_t>(r.steps_accepted)},
        {"steps_rejected", static_cast<std::uint64_t>(r.steps_rejected)},
        {"nr_iterations", static_cast<std::uint64_t>(r.nr_iterations)},
        {"nonconverged_steps",
         static_cast<std::uint64_t>(r.nonconverged_steps)}};
    append_fields(run.counters, "step_bounds.", r.step_bounds);
    append_fields(run.counters, "rescues.", r.rescues);
    append_fields(run.counters, "flops.", r.flops);

    const analysis::Waveform& w = r.node(ckt, node);
    run.wave = w.label();
    const auto [lo, hi] =
        std::minmax_element(w.value().begin(), w.value().end());
    run.swing = *hi - *lo;
    for (int k = 0; k < k_samples; ++k) {
        const double t = t_stop * k / (k_samples - 1);
        run.samples.emplace_back(t, w.at(t));
    }
    return run;
}

std::vector<GoldenRun> compute() {
    std::vector<GoldenRun> runs;
    {
        // Fig. 8: the FET-RTD inverter at 400 ns on every engine.
        const Circuit ckt = refckt::fet_rtd_inverter();
        const mna::MnaAssembler assembler(ckt);
        constexpr double t_stop = 400e-9;
        engines::SwecTranOptions sopt;
        sopt.t_stop = t_stop;
        runs.push_back(make_run("fig8_swec",
                                engines::run_tran_swec(assembler, sopt), ckt,
                                "out", t_stop));
        engines::NrTranOptions nopt;
        nopt.t_stop = t_stop;
        runs.push_back(make_run("fig8_nr",
                                engines::run_tran_nr(assembler, nopt), ckt,
                                "out", t_stop));
        engines::PwlTranOptions popt;
        popt.t_stop = t_stop;
        runs.push_back(make_run("fig8_pwl",
                                engines::run_tran_pwl(assembler, popt), ckt,
                                "out", t_stop));
    }
    {
        // Fig. 9: the RTD flip-flop at 500 ns on SWEC.
        const Circuit ckt = refckt::rtd_dff();
        const mna::MnaAssembler assembler(ckt);
        constexpr double t_stop = 500e-9;
        engines::SwecTranOptions opt;
        opt.t_stop = t_stop;
        runs.push_back(make_run("fig9_swec",
                                engines::run_tran_swec(assembler, opt), ckt,
                                "q", t_stop));
    }
    return runs;
}

const std::vector<GoldenRun>& computed() {
    static const std::vector<GoldenRun> runs = compute();
    return runs;
}

// ---- file format -------------------------------------------------------
//
//   run NAME
//   count KEY VALUE               (one line per exact counter)
//   wave LABEL SWING SAMPLES
//   T V                           (one line per sample)

void write(std::ostream& out, const std::vector<GoldenRun>& runs) {
    out << "# Golden transient outputs of the paper benches: the Fig. 8\n"
           "# FET-RTD inverter on SWEC, NR and PWL\n"
           "# (bench/fig8_fet_rtd_inverter.cpp) and the Fig. 9 RTD\n"
           "# flip-flop on SWEC (bench/fig9_rtd_dff.cpp), checked by\n"
           "# tests/test_golden_tran.cpp.  Regenerate only in a commit\n"
           "# that explains why the outputs moved:\n"
           "#   ./build/test_golden_tran --gtest_also_run_disabled_tests \\\n"
           "#       --gtest_filter=GoldenTran.DISABLED_Regenerate\n"
           "# Format (doubles at 17 significant digits):\n"
           "#   run NAME\n"
           "#   count KEY VALUE            (one line per exact counter)\n"
           "#   wave LABEL SWING SAMPLES\n"
           "#   T V                        (one line per sample)\n";
    out.precision(17);
    for (const GoldenRun& run : runs) {
        out << "run " << run.name << '\n';
        for (const auto& [key, value] : run.counters) {
            out << "count " << key << ' ' << value << '\n';
        }
        out << "wave " << run.wave << ' ' << run.swing << ' '
            << run.samples.size() << '\n';
        for (const auto& [t, v] : run.samples) {
            out << t << ' ' << v << '\n';
        }
    }
}

std::vector<GoldenRun> read(std::istream& in) {
    std::vector<GoldenRun> runs;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line.front() == '#') {
            continue;
        }
        std::istringstream fields(line);
        std::string tag;
        fields >> tag;
        if (tag == "run") {
            runs.emplace_back();
            fields >> runs.back().name;
        } else if (tag == "count" && !runs.empty()) {
            std::pair<std::string, std::uint64_t> c;
            fields >> c.first >> c.second;
            runs.back().counters.push_back(std::move(c));
        } else if (tag == "wave" && !runs.empty()) {
            GoldenRun& run = runs.back();
            std::size_t samples = 0;
            fields >> run.wave >> run.swing >> samples;
            for (std::size_t k = 0; k < samples && std::getline(in, line);
                 ++k) {
                std::istringstream point(line);
                double t = 0.0;
                double v = 0.0;
                point >> t >> v;
                run.samples.emplace_back(t, v);
            }
        }
    }
    return runs;
}

std::vector<GoldenRun> load() {
    std::ifstream in(k_golden_path);
    EXPECT_TRUE(in.good()) << "cannot open " << k_golden_path;
    return read(in);
}

// ---- the checks --------------------------------------------------------

TEST(GoldenTran, CountersMatchGolden) {
    const std::vector<GoldenRun> want = load();
    const std::vector<GoldenRun>& got = computed();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(want[i].name);
        EXPECT_EQ(got[i].name, want[i].name);
        EXPECT_EQ(got[i].counters, want[i].counters);
    }
}

TEST(GoldenTran, WaveformsMatchGolden) {
    const std::vector<GoldenRun> want = load();
    const std::vector<GoldenRun>& got = computed();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(want[i].name);
        EXPECT_EQ(got[i].wave, want[i].wave);
        const double tol = 1e-12 * want[i].swing;
        EXPECT_NEAR(got[i].swing, want[i].swing, tol);
        ASSERT_EQ(got[i].samples.size(), want[i].samples.size());
        for (std::size_t k = 0; k < got[i].samples.size(); ++k) {
            EXPECT_EQ(got[i].samples[k].first, want[i].samples[k].first);
            EXPECT_NEAR(got[i].samples[k].second, want[i].samples[k].second,
                        tol)
                << "t = " << want[i].samples[k].first;
        }
    }
}

TEST(GoldenTran, DISABLED_Regenerate) {
    std::ofstream out(k_golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << k_golden_path;
    write(out, computed());
}

} // namespace
} // namespace nanosim
