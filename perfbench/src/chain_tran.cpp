// nanosim perfbench — chain_tran: SWEC transients of the 200-stage RTD
// ladder (the paper's scaling circuit, refckt::rtd_chain), fed as a
// generated deck and run on one thread.
//
// Why: device evaluation is about two thirds of the wall time and the
// tridiagonal factor under a tenth, with no Monte-Carlo driver, thread
// pool or service involved — evaluation and step-control changes show
// here, factor and service changes should not.
//
// The seed fixes the deck text: each value is written in one of several
// spellings that parse to the same double ("100", "1e2", "100Ohm", ...)
// and fields are separated by seeded runs of blanks, while the card order
// (and with it the MNA node numbering) stays canonical.  Every seed
// therefore describes the same circuit at the same cost and is checked
// against the one committed reference waveform.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/sim_session.hpp"
#include "netlist/parser.hpp"

namespace perfbench {
namespace {

using namespace nanosim;

constexpr int k_stages = 200;
constexpr double k_t_stop = 2e-6;
constexpr const char* k_out_node = "n1";
/// Set-ups timed after each transient, so the set-up median samples the
/// whole run rather than a burst at its start.
constexpr int k_setups_per_transient = 4;
constexpr const char* k_ref_file = "chain_tran_n1.csv";
/// Allowed deviation of v(n1) from the committed reference, a tight
/// backward-Euler Newton run (see make_chain_reference).  The maximum is
/// set by edge timing: at the 5 ns pulse edges SWEC and the reference sit
/// ~0.24 V apart at every eps tried (0.05 down to 0.001), while the mean
/// absolute deviation at the default eps is ~2 mV.  A wrong branch or a
/// broken step control moves both far past these limits.
constexpr double k_max_err_tol = 0.35;
constexpr double k_mean_err_tol = 0.01;

/// The ladder as deck text.  With `vary`, a generator keyed by `seed`
/// picks each value's spelling and each field separator; without it the
/// deck is the canonical one the reference was made from.
std::string chain_deck(std::uint64_t seed, bool vary) {
    // Spellings that parse_deck turns into bit-identical doubles.
    static const char* const k_ohms[] = {"100", "100.0", "1e2", "100Ohm",
                                         "100.00"};
    static const char* const k_farads[] = {"100p", "100.0p", "100pF",
                                           "1e2p", "100.000p"};
    static const char* const k_blanks[] = {" ", "  ", "\t", " \t"};
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 1;
    auto pick = [&](auto const& options) -> const char* {
        if (!vary) {
            return options[0];
        }
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL); // splitmix64
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        z ^= z >> 31;
        return options[z % std::size(options)];
    };
    auto card = [&](std::initializer_list<std::string> fields) {
        std::string line;
        for (const std::string& f : fields) {
            line += line.empty() ? "" : pick(k_blanks);
            line += f;
        }
        return line + '\n';
    };

    std::ostringstream deck;
    deck << "* perfbench chain_tran: " << k_stages
         << "-stage RTD ladder, seed " << seed << '\n'
         << card({"V1", "in", "0", "PULSE(0 5 50n 5n 5n 95n 200n)"});
    std::string prev = "in";
    for (int i = 1; i <= k_stages; ++i) {
        const std::string node = "n" + std::to_string(i);
        const std::string index = std::to_string(i);
        deck << card({"R" + index, prev, node, pick(k_ohms)})
             << card({"RTD" + index, node, "0"})
             << card({"C" + index, node, "0", pick(k_farads)});
        prev = node;
    }
    deck << ".end\n";
    return deck.str();
}

/// Max and mean |v(t) - ref(t)| over the reference grid.
std::pair<double, double> deviation(const analysis::Waveform& w,
                                    const std::vector<double>& t,
                                    const std::vector<double>& v) {
    double max = 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const double d = std::abs(w.at(t[i]) - v[i]);
        max = std::max(max, d);
        sum += d;
    }
    return {max, sum / static_cast<double>(t.size())};
}

} // namespace

Outcome run_chain_tran(const Config& cfg) {
    Outcome out;
    const auto ref = read_csv(cfg.ref_dir + "/" + k_ref_file, 2);
    const std::string deck = chain_deck(cfg.seed, true);

    set_tracing(cfg.trace);
    std::vector<double> setup;
    auto set_up = [&] {
        const auto t0 = Clock::now();
        std::unique_ptr<SimSession> fresh;
        {
            const Span span("perfbench", "setup");
            ParsedDeck parsed;
            {
                const Span s("netlist", "parse_deck");
                parsed = parse_deck(deck);
            }
            {
                const Span s("core", "SimSession()");
                fresh = std::make_unique<SimSession>(std::move(parsed.circuit));
            }
            {
                const Span s("mna", "SimSession::solver_cache");
                (void)fresh->solver_cache();
            }
        }
        setup.push_back(seconds_since(t0));
        return fresh;
    };
    const std::unique_ptr<SimSession> session = set_up();

    TranSpec spec;
    spec.t_stop = k_t_stop;
    std::vector<double> walls;
    std::vector<double> cpu;
    std::vector<double> first_wave;
    double max_err = 0.0;
    double mean_err = 0.0;
    AnalysisResult last;
    auto unit = [&] {
        const auto t0 = Clock::now();
        const double c0 = cpu_seconds();
        {
            const Span span("core", "SimSession::run(tran)");
            last = session->run(spec);
        }
        cpu.push_back(cpu_seconds() - c0);
        walls.push_back(seconds_since(t0));
        for (int k = 0; k < k_setups_per_transient; ++k) {
            (void)set_up();
        }
        ++out.attempted;
        const analysis::Waveform& w =
            last.tran().node(session->circuit(), k_out_node);
        const auto [err, mean] = deviation(w, ref[0], ref[1]);
        max_err = std::max(max_err, err);
        mean_err = std::max(mean_err, mean);
        if (!(err <= k_max_err_tol) || !(mean <= k_mean_err_tol)) {
            out.fail_check("chain_tran: |v(n1) - ref| max " +
                           std::to_string(err) + " V, mean " +
                           std::to_string(mean) + " V exceed " +
                           std::to_string(k_max_err_tol) + " / " +
                           std::to_string(k_mean_err_tol) + " V");
        } else if (first_wave.empty()) {
            first_wave = w.value();
        } else if (w.value() != first_wave) {
            out.fail_check("chain_tran: repeated transient is not "
                           "bit-identical to the first");
        }
    };

    double untraced_wall = 0.0;
    if (cfg.trace) {
        set_tracing(false);
        run_for(cfg.seconds * k_untraced_share, 3, unit);
        untraced_wall = median(walls);
        walls.clear();
        cpu.clear();
        set_tracing(true);
    }
    run_for(
        cfg.trace ? cfg.seconds * (1.0 - k_untraced_share) : cfg.seconds, 3,
        unit);

    const double wall = median(walls);
    out.e2e.set("setup_s", median(setup), "s");
    out.e2e.set("wall_s", wall, "s");
    // The ladder runs on one thread by construction: its single-thread
    // baseline is the same measurement.
    out.e2e.set("wall_1t_s", wall, "s");
    out.e2e.set("cpu_s", median(cpu), "s");
    out.extra.set("max_err", max_err, "V");
    out.extra.set("mean_err", mean_err, "V");
    out.extra.set("transients", static_cast<double>(walls.size()), "count");

    if (cfg.trace) {
        Metrics& l = out.layer;
        const obs::RunReport& rep = last.report;
        l.set("netlist.parse_s", median(span_durations("netlist", "parse_deck")),
              "s");
        l.set("core.session_build_s",
              median(span_durations("core", "SimSession()")), "s");
        report_run(rep, last.tran().flops, 1.0, l);
        l.set("engines.max_err", max_err, "V");
        l.set("engines.worker_util", median(cpu) / wall, "ratio");
        l.set("obs.trace_overhead_frac", wall / untraced_wall - 1.0, "ratio");

        const AnalysisResult op = session->run(OpSpec{});
        const double h = k_t_stop / static_cast<double>(rep.steps_accepted);
        report_probe(probe_layers(session->assembler(), op.dc().x, h, 2.0),
                     l);
    }
    set_tracing(false);
    return out;
}

void make_chain_reference(const Config& cfg) {
    SimSession session(parse_deck(chain_deck(0, false)).circuit);
    auto run = [&](double dt_max) {
        TranSpec spec;
        spec.t_stop = k_t_stop;
        spec.engine = TranEngine::newton_raphson;
        spec.common.abstol = 1e-9;
        spec.common.reltol = 1e-7;
        spec.common.dt_max = dt_max;
        const AnalysisResult r = session.run(spec);
        if (r.tran().nonconverged_steps != 0) {
            throw std::runtime_error("reference run left non-converged steps");
        }
        return r.tran().node(session.circuit(), k_out_node);
    };
    const analysis::Waveform fine = run(1e-11);
    const analysis::Waveform coarse = run(2e-11);
    const std::size_t points = 2001;
    std::vector<double> t(points);
    std::vector<double> v(points);
    for (std::size_t i = 0; i < points; ++i) {
        t[i] = k_t_stop * static_cast<double>(i) /
               static_cast<double>(points - 1);
        v[i] = fine.at(t[i]);
    }
    const double self_err = deviation(coarse, t, v).first;
    const std::string path = cfg.ref_dir + "/" + k_ref_file;
    std::ofstream f(path);
    f << "# chain_tran reference: v(n1) of the " << k_stages
      << "-stage RTD ladder over 0.." << k_t_stop << " s\n"
      << "# backward-Euler Newton transient, dt_max=1e-11 s, reltol=1e-7,"
         " abstol=1e-9 V\n"
      << "# max deviation from the dt_max=2e-11 s run: " << self_err
      << " V\n"
      << "t,v\n";
    char line[64];
    for (std::size_t i = 0; i < points; ++i) {
        std::snprintf(line, sizeof line, "%.17g,%.17g\n", t[i], v[i]);
        f << line;
    }
    if (!f) {
        throw std::runtime_error("cannot write " + path);
    }
    std::printf("wrote %s (self-convergence %.3g V)\n", path.c_str(),
                self_err);
}

} // namespace perfbench
