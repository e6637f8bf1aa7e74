// nanosim — command-line batch simulator.
//
//   nanosim [run] [options] deck.cir        single-deck batch run
//   nanosim report [options] deck.cir       run + per-analysis RunReport
//   nanosim sweep deck.cir --param DEV:P=start:stop:points [...]
//
// run options:
//   --engine swec|nr|mla|pwl   transient/DC engine (default: swec)
//   --csv PREFIX               write waveforms/sweeps to PREFIX_*.csv
//   --trace FILE.json          Chrome/Perfetto trace of the run
//   --metrics FILE.json        dump the metrics registry after the run
//   --progress                 live progress meter (rate + ETA) on stderr
//   --quiet                    suppress ASCII plots
//   --verbose                  raise log level to info
//   --version                  print version and exit
//
// sweep options (parameter-grid campaign over the deck's .op/.tran
// cards; axes combine as a cartesian grid):
//   --param DEV:P=a:b:n        sweep device DEV parameter P over n
//                              uniformly spaced values in [a, b]
//                              (repeatable; engineering notation ok)
//   --threads N                worker threads (default: all cores)
//   --out FILE.csv             write the aggregated campaign CSV
//   --trace / --metrics        as for run (pool queue-wait shows up here)
//   --quiet                    suppress ASCII plots
//
// The NANOSIM_LOG environment variable (trace|debug|info|warn|error|off)
// sets the log threshold before flags are parsed; --verbose overrides it.
//
// `run` maps every analysis card in the deck (.op, .dc, .tran) onto an
// AnalysisSpec and executes it through one SimSession — the same single
// execution path library callers and the sweep campaigns use, so the
// whole deck shares one cached symbolic factorisation — then prints
// results in SPICE-batch style.  Exit code 0 on success, 1 on
// simulation failure, 2 on usage errors.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "core/nanosim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "util/failpoints.hpp"

using namespace nanosim;

namespace {

struct CliOptions {
    std::string deck_path;
    DcEngine dc_engine = DcEngine::swec;
    TranEngine tran_engine = TranEngine::swec;
    std::string engine_name = "swec";
    std::optional<std::string> csv_prefix;
    std::optional<std::string> circuit_spec; ///< built-in generator spec
    double tstop = 200e-9;                   ///< --circuit transient horizon
    bool quiet = false;
    bool progress = false;                   ///< stderr progress meter
    bool report = false;                     ///< `report` verb: pretty RunReports
    double deadline_s = 0.0;                 ///< per-analysis wall budget [s]
    std::optional<std::string> trace_path;   ///< --trace FILE.json
    std::optional<std::string> metrics_path; ///< --metrics FILE.json
    std::optional<std::string> failpoints;   ///< --failpoints SPEC
};

/// Progress meter on stderr, driven by the AnalysisObserver.  Redraws on
/// >= 1% increments or every 250 ms (whichever comes first) so the rate
/// and ETA fields stay live without drowning tight step loops in
/// terminal writes.  Rate comes from the on_step/on_trial item counts;
/// ETA extrapolates the completed fraction against elapsed wall time.
class ProgressMeter {
public:
    void begin(const std::string& label) {
        label_ = label;
        last_percent_ = -1;
        max_len_ = 0;
        items_ = 0;
        unit_ = nullptr;
        start_ = Clock::now();
        last_draw_ = start_;
        draw(0.0, /*force=*/true);
    }
    /// Latest item count from on_step (accepted steps) / on_trial (done
    /// trials); gives the rate field its numerator and unit label.
    void items(long count, const char* unit) {
        items_ = count;
        unit_ = unit;
    }
    void draw(double fraction, bool force = false) {
        fraction = std::min(std::max(fraction, 0.0), 1.0);
        const int percent = static_cast<int>(fraction * 100.0);
        const auto now = Clock::now();
        if (!force && percent == last_percent_ &&
            now - last_draw_ < std::chrono::milliseconds(250)) {
            return;
        }
        last_percent_ = percent;
        last_draw_ = now;
        const double elapsed =
            std::chrono::duration<double>(now - start_).count();

        std::ostringstream line;
        line << "  " << label_ << " [";
        constexpr int width = 24;
        const int filled = static_cast<int>(fraction * width);
        for (int i = 0; i < width; ++i) {
            line << (i < filled ? '=' : (i == filled ? '>' : ' '));
        }
        line << "] " << percent << '%';
        if (items_ > 0 && unit_ != nullptr && elapsed > 0.0) {
            line << " | " << std::setprecision(3)
                 << static_cast<double>(items_) / elapsed << ' ' << unit_
                 << "/s";
        }
        // ETA once there is enough signal to extrapolate from.
        if (fraction > 0.0 && fraction < 1.0 && elapsed > 0.1) {
            const double eta = elapsed * (1.0 - fraction) / fraction;
            line << " | ETA ";
            if (eta < 60.0) {
                line << std::fixed << std::setprecision(1) << eta << "s";
                line.unsetf(std::ios::fixed);
            } else {
                line << static_cast<long>(eta / 60.0) << "m"
                     << static_cast<long>(eta) % 60 << "s";
            }
        }
        const std::string text = line.str();
        // Pad to the longest line written so a shrinking ETA does not
        // leave stale characters behind the cursor.
        max_len_ = std::max(max_len_, text.size());
        std::cerr << '\r' << text
                  << std::string(max_len_ - text.size(), ' ') << std::flush;
    }
    void end() {
        if (last_percent_ >= 0) {
            std::cerr << '\r' << std::string(max_len_, ' ') << '\r'
                      << std::flush;
            last_percent_ = -1;
        }
    }

private:
    using Clock = std::chrono::steady_clock;
    std::string label_;
    int last_percent_ = -1;
    std::size_t max_len_ = 0;
    long items_ = 0;
    const char* unit_ = nullptr;
    Clock::time_point start_;
    Clock::time_point last_draw_;
};

void usage(std::ostream& os) {
    os << "usage: nanosim [run] [options] deck.cir\n"
          "       nanosim run --circuit mesh:RxC [options]\n"
          "       nanosim report [options] deck.cir\n"
          "       nanosim sweep deck.cir --param DEV:P=start:stop:points\n"
          "       nanosim serve [--port N] [--workers N] [options]\n"
          "       nanosim submit --port N (deck.cir | --circuit SPEC)\n"
          "                      [--spec JSON] [options]\n"
          "run options:\n"
          "  --engine swec|nr|mla|pwl   analysis engine (default swec;\n"
          "                             SWEC transients evaluate RTD,\n"
          "                             diode and nanowire chords from\n"
          "                             lazily filled lookup tables, each\n"
          "                             segment gated to <= 1e-6 rel.\n"
          "                             error, closed form elsewhere)\n"
          "  --csv PREFIX               export results as PREFIX_*.csv\n"
          "  --trace FILE.json          write a Chrome/Perfetto trace of\n"
          "                             the run (load in ui.perfetto.dev\n"
          "                             or chrome://tracing)\n"
          "  --metrics FILE.json        enable the metrics registry and\n"
          "                             dump it (counters + histograms)\n"
          "                             after the run\n"
          "  --progress                 live progress meter with rate and\n"
          "                             ETA on stderr\n"
          "  --circuit SPEC             built-in workload instead of a\n"
          "                             deck: mesh:RxC (RTD-loaded RC\n"
          "                             mesh) or grid:RxC[:vias] (power-\n"
          "                             distribution grid); runs .op +\n"
          "                             .tran to --tstop\n"
          "  --tstop T                  --circuit transient horizon [s]\n"
          "                             (default 200e-9)\n"
          "  --deadline T               wall-clock budget per analysis [s];\n"
          "                             on expiry the run is cancelled via\n"
          "                             the observer path and returns an\n"
          "                             aborted PARTIAL result (exit 1)\n"
          "  --failpoints SPEC          arm fault-injection sites (chaos\n"
          "                             testing): comma list of name=mode,\n"
          "                             mode off|always|1inN|N; see README\n"
          "                             'Robustness' for the site catalog\n"
          "  --quiet                    no ASCII plots\n"
          "  --verbose                  info-level logging\n"
          "  --version                  print version\n"
          "report verb: run the deck's analyses like `run`, then print a\n"
          "  structured per-run solver report (step-bound winners, factor\n"
          "  strategy mix, analyze/eval/stamp/factor/solve time split,\n"
          "  chord tables built)\n"
          "  instead of waveform plots; accepts all run options\n"
          "sweep options:\n"
          "  --param DEV:P=a:b:n        axis: device DEV, parameter P, n\n"
          "                             points in [a, b]; repeat for a\n"
          "                             cartesian grid (RTD params A,B,C,\n"
          "                             D,N1,N2,H,TEMP; R/C/L values; V/I\n"
          "                             DC; NOISE SIGMA)\n"
          "  --threads N                worker threads (default all cores)\n"
          "  --out FILE.csv             aggregated campaign CSV\n"
          "  --trace FILE.json          Chrome/Perfetto trace (as in run)\n"
          "  --metrics FILE.json        metrics registry dump (as in run)\n"
          "  --quiet                    no ASCII plots\n"
          "serve options (NDJSON analysis service on TCP; see README):\n"
          "  --host H / --port N        bind address (default 127.0.0.1,\n"
          "                             port 0 = ephemeral; the bound port\n"
          "                             is printed as 'listening on ...')\n"
          "  --workers N                concurrent job executors (default 2)\n"
          "  --queue-depth N            backpressure bound (default 64)\n"
          "  --max-sessions N           session-dedup cache capacity\n"
          "  --idle-timeout T           per-connection read idle budget\n"
          "                             [s]: one quiet interval sends a\n"
          "                             heartbeat probe, a second closes\n"
          "                             the connection (0 = wait forever)\n"
          "  --metrics FILE.json        dump the metrics registry on stop\n"
          "  --failpoints SPEC          arm fault-injection sites (as in\n"
          "                             run)\n"
          "  SIGTERM/SIGINT             drain the queue and exit 0; a\n"
          "                             second signal force-cancels\n"
          "submit options (client for `nanosim serve`):\n"
          "  --host H / --port N        server address (--port required)\n"
          "  deck.cir | --circuit SPEC  circuit source (deck file is sent\n"
          "                             by value; SPEC as in run)\n"
          "  --spec JSON                wire-format analysis spec, e.g.\n"
          "                             '{\"kind\":\"mc\",\"node\":\"n1_1\",\n"
          "                             \"t_stop\":1e-9}' (default: op)\n"
          "  --noise NODE:SIGMA         add a noise source at NODE\n"
          "                             (repeatable)\n"
          "  --priority P               higher runs first (default 0)\n"
          "  --deadline T               queue+run wall budget [s]\n"
          "  --json                     echo raw protocol lines (events +\n"
          "                             final result document) to stdout\n"
          "  --no-follow                submit and exit without streaming\n"
          "  --connect-timeout T        TCP connect budget [s] (default 5;\n"
          "                             0 = blocking POSIX connect)\n"
          "  --read-timeout T           per-read budget [s] while waiting\n"
          "                             for responses/events (default 0 =\n"
          "                             wait forever; pair with the\n"
          "                             server's --idle-timeout heartbeat)\n"
          "  --retries N                submit attempts on connection\n"
          "                             errors with capped exponential\n"
          "                             backoff (default 3); resubmits\n"
          "                             carry an idempotency key so the\n"
          "                             job runs at most once\n"
          "  --checkpoint FILE          persist the latest mc checkpoint\n"
          "                             event doc to FILE (atomic rename);\n"
          "                             requires an mc --spec with\n"
          "                             \"checkpoint_every\" set\n"
          "  --resume FILE              resume an mc job from a checkpoint\n"
          "                             written by --checkpoint; requires\n"
          "                             the SAME --spec as the original\n"
          "                             run (surviving trials stay bit-\n"
          "                             identical to an uninterrupted run)\n"
          "  --failpoints SPEC          arm fault-injection sites in the\n"
          "                             SERVER process (sent on the wire)\n"
          "environment:\n"
          "  NANOSIM_LOG=LEVEL          log threshold before flag parsing\n"
          "                             (trace|debug|info|warn|error|off);\n"
          "                             --verbose overrides it\n"
          "  NANOSIM_FAILPOINTS=SPEC    arm fault-injection sites before\n"
          "                             any verb runs (same syntax as\n"
          "                             --failpoints)\n"
          "example:\n"
          "  nanosim sweep deck.cir --param RTD1:A=1e-3:2e-3:11 \\\n"
          "      --threads 8 --out sweep.csv\n";
}

std::optional<CliOptions> parse_args(int argc, char** argv) {
    CliOptions opt;
    bool tstop_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--version") {
            std::cout << "nanosim " << version_string() << '\n';
            std::exit(0);
        }
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        }
        if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--progress") {
            opt.progress = true;
        } else if (arg == "--verbose") {
            log::set_level(log::Level::info);
        } else if (arg == "--engine") {
            if (++i >= argc) {
                return std::nullopt;
            }
            const std::string e = argv[i];
            opt.engine_name = e;
            if (e == "swec") {
                opt.dc_engine = DcEngine::swec;
                opt.tran_engine = TranEngine::swec;
            } else if (e == "nr") {
                opt.dc_engine = DcEngine::newton_raphson;
                opt.tran_engine = TranEngine::newton_raphson;
            } else if (e == "mla") {
                opt.dc_engine = DcEngine::mla;
                opt.tran_engine = TranEngine::swec; // no MLA transient
            } else if (e == "pwl") {
                opt.dc_engine = DcEngine::swec;
                opt.tran_engine = TranEngine::pwl;
            } else {
                return std::nullopt;
            }
        } else if (arg == "--csv") {
            if (++i >= argc) {
                return std::nullopt;
            }
            opt.csv_prefix = argv[i];
        } else if (arg == "--trace") {
            if (++i >= argc) {
                return std::nullopt;
            }
            opt.trace_path = argv[i];
        } else if (arg == "--metrics") {
            if (++i >= argc) {
                return std::nullopt;
            }
            opt.metrics_path = argv[i];
        } else if (arg == "--failpoints") {
            if (++i >= argc) {
                return std::nullopt;
            }
            opt.failpoints = argv[i];
        } else if (arg == "--circuit") {
            if (++i >= argc) {
                return std::nullopt;
            }
            opt.circuit_spec = argv[i];
        } else if (arg == "--deadline") {
            if (++i >= argc) {
                return std::nullopt;
            }
            try {
                opt.deadline_s = parse_value(argv[i]);
                if (opt.deadline_s <= 0.0) {
                    return std::nullopt;
                }
            } catch (const std::exception&) {
                return std::nullopt;
            }
        } else if (arg == "--tstop") {
            if (++i >= argc) {
                return std::nullopt;
            }
            try {
                opt.tstop = parse_value(argv[i]);
                tstop_set = true;
            } catch (const std::exception&) {
                return std::nullopt;
            }
        } else if (!arg.empty() && arg[0] == '-') {
            return std::nullopt;
        } else if (opt.deck_path.empty()) {
            opt.deck_path = arg;
        } else {
            return std::nullopt;
        }
    }
    if (opt.deck_path.empty() == !opt.circuit_spec.has_value()) {
        return std::nullopt; // exactly one of deck / --circuit
    }
    if (tstop_set && !opt.circuit_spec) {
        // A deck's .tran card owns its horizon; silently ignoring the
        // flag would run a different simulation than the user asked for.
        return std::nullopt;
    }
    return opt;
}

void maybe_plot(const CliOptions& cli,
                const std::vector<analysis::Waveform>& waves,
                const std::string& title, const std::string& x_label) {
    if (cli.quiet || waves.empty()) {
        return;
    }
    analysis::PlotOptions plot;
    plot.title = title;
    plot.x_label = x_label;
    analysis::ascii_plot(std::cout, waves, plot);
}

/// Per-step wall-time attribution of a cached-solver analysis (the
/// RunReport's analyze/eval/stamp/factor/solve/step/record split); silent
/// when the analysis never went through a SystemCache.
void print_step_split(const obs::SolverWork& sw) {
    double total = 0.0;
    obs::for_each_layer(sw, [&total](std::string_view, double s) {
        total += s;
    });
    if (total <= 0.0) {
        return;
    }
    const auto flags = std::cout.flags();
    const auto precision = std::cout.precision();
    std::cout << std::fixed << std::setprecision(2) << "  step time:";
    const char* sep = " ";
    obs::for_each_layer(sw, [&sep](std::string_view layer, double s) {
        std::cout << sep << layer << ' ' << s * 1e3 << " ms";
        sep = " | ";
    });
    if (sw.tables_built > 0) {
        std::cout << " | " << sw.tables_built << " chord tables built";
    }
    std::cout << '\n';
    std::cout.flags(flags);
    std::cout.precision(precision);
}

int run_op(const SimSession& session, const AnalysisResult& result,
           int index) {
    std::cout << "\n* analysis " << index << ": .op (engine "
              << result.header.engine << ")\n";
    const auto& op = result.dc();
    if (!op.converged) {
        std::cout << "  OPERATING POINT DID NOT CONVERGE after "
                  << op.iterations << " iterations (residual "
                  << op.residual << ")\n";
        return 1;
    }
    const auto v = session.assembler().view(op.x);
    for (NodeId n = 1; n <= session.circuit().num_nodes(); ++n) {
        std::cout << "  v(" << session.circuit().node_name(n)
                  << ") = " << v(n) << " V\n";
    }
    std::cout << "  [" << op.iterations << " iterations/steps, "
              << op.flops.total() << " flops]\n";
    print_step_split(result.report);
    return 0;
}

int run_dc(const SimSession& session, const CliOptions& cli,
           const DcSweepSpec& spec, const AnalysisResult& result,
           int index) {
    std::cout << "\n* analysis " << index << ": .dc " << spec.source
              << ' ' << spec.start << " -> " << spec.stop << " step "
              << spec.step << " (engine " << result.header.engine << ")\n";
    const auto& sweep = result.sweep();
    std::cout << "  " << sweep.values.size() << " points, "
              << sweep.failures() << " failures, "
              << sweep.flops.total() << " flops\n";

    // One waveform per node, indexed by the sweep value in ascending
    // order: the values are monotone, so a descending card (`.dc V1 1 0
    // -0.1`) is read back to front.
    const std::size_t points = sweep.values.size();
    const bool descending =
        points > 1 && sweep.values.front() > sweep.values.back();
    std::vector<analysis::Waveform> waves;
    for (NodeId n = 1; n <= session.circuit().num_nodes(); ++n) {
        analysis::Waveform w("v(" + session.circuit().node_name(n) + ")");
        for (std::size_t i = 0; i < points; ++i) {
            const std::size_t k = descending ? points - 1 - i : i;
            if (w.empty() || sweep.values[k] > w.time().back()) {
                w.append(sweep.values[k],
                         session.assembler().view(sweep.solutions[k])(n));
            }
        }
        waves.push_back(std::move(w));
    }
    maybe_plot(cli, waves, "DC sweep", spec.source + " [V]");
    if (cli.csv_prefix) {
        const std::string path =
            *cli.csv_prefix + "_dc" + std::to_string(index) + ".csv";
        analysis::write_csv_file(path, waves, spec.source);
        std::cout << "  wrote " << path << '\n';
    }
    return sweep.failures() == 0 ? 0 : 1;
}

/// `cache` is the session cache the transient ran on: the ordering
/// decision of its sparse path.
int run_tran(const CliOptions& cli, const TranSpec& spec,
             const AnalysisResult& result,
             const mna::SystemCache::Stats& cache, int index) {
    std::cout << "\n* analysis " << index << ": .tran "
              << spec.common.dt_init << ' ' << spec.t_stop << " (engine "
              << result.header.engine << ")\n";
    const auto& res = result.tran();
    std::cout << "  " << res.steps_accepted << " steps ("
              << res.steps_rejected << " rejected), "
              << res.nr_iterations << " nonlinear iterations, "
              << res.nonconverged_steps << " non-converged, "
              << res.flops.total() << " flops\n";
    const obs::RunReport& rep = result.report;
    if (rep.full_factors + rep.fast_refactors > 0) {
        std::cout << "  sparse solver: ordering "
                  << linalg::ordering_name(cache.ordering) << ", factor nnz "
                  << cache.factor_nnz << " (predicted "
                  << cache.predicted_fill_chosen << " vs natural "
                  << cache.predicted_fill_natural << "), "
                  << rep.full_factors << " full / " << rep.fast_refactors
                  << " fast factorisations, " << rep.refactors_skipped
                  << " refactors skipped (" << rep.refine_sweeps
                  << " refine sweeps, max backward error "
                  << rep.max_backward_error << ")\n";
    }
    print_step_split(result.report);
    maybe_plot(cli, res.node_waves, "transient", "t [s]");
    if (cli.csv_prefix) {
        const std::string path =
            *cli.csv_prefix + "_tran" + std::to_string(index) + ".csv";
        analysis::write_csv_file(path, res.node_waves);
        std::cout << "  wrote " << path << '\n';
    }
    return 0;
}

/// Enable the telemetry backends requested on the command line.  Called
/// before the first analysis so the session's symbolic setup is covered.
void start_telemetry(const std::optional<std::string>& trace_path,
                     const std::optional<std::string>& metrics_path,
                     bool report) {
    if (metrics_path || report) {
        // The report verb reads the pool counters, which only tick when
        // the registry is live.
        obs::set_metrics_enabled(true);
    }
    if (trace_path) {
        obs::start_trace();
    }
}

/// Write the --trace / --metrics artifacts after the analyses complete
/// (shared by the run/report and sweep verbs).
void write_telemetry(const std::optional<std::string>& trace_path,
                     const std::optional<std::string>& metrics_path) {
    if (trace_path) {
        obs::stop_trace();
        obs::write_trace_file(*trace_path);
        std::cout << "  wrote " << *trace_path << " ("
                  << obs::trace_event_count() << " trace events";
        if (obs::trace_dropped_count() > 0) {
            std::cout << ", " << obs::trace_dropped_count() << " dropped";
        }
        std::cout << ")\n";
    }
    if (metrics_path) {
        obs::metrics().write_json_file(*metrics_path);
        std::cout << "  wrote " << *metrics_path << " ("
                  << obs::metrics().size() << " instruments)\n";
    }
}

// ---- sweep verb -------------------------------------------------------

struct SweepCliOptions {
    std::string deck_path;
    runtime::JobPlan plan;
    runtime::CampaignOptions campaign;
    std::optional<std::string> out_path;
    std::optional<std::string> trace_path;
    std::optional<std::string> metrics_path;
    bool quiet = false;
};

[[nodiscard]] long parse_int_arg(const char* flag, const std::string& text) {
    try {
        std::size_t used = 0;
        const long value = std::stol(text, &used);
        if (used == text.size()) {
            return value;
        }
    } catch (const std::exception&) {
    }
    throw NetlistError(std::string(flag) + " wants an integer, got '" +
                       text + "'");
}

std::optional<SweepCliOptions> parse_sweep_args(int argc, char** argv,
                                                int first) {
    SweepCliOptions opt;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        }
        if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--param") {
            if (++i >= argc) {
                return std::nullopt;
            }
            opt.plan.add_axis(runtime::parse_param_axis(argv[i]));
        } else if (arg == "--threads") {
            if (++i >= argc) {
                return std::nullopt;
            }
            opt.campaign.policy.threads =
                static_cast<int>(parse_int_arg("--threads", argv[i]));
        } else if (arg == "--out") {
            if (++i >= argc) {
                return std::nullopt;
            }
            opt.out_path = argv[i];
        } else if (arg == "--trace") {
            if (++i >= argc) {
                return std::nullopt;
            }
            opt.trace_path = argv[i];
        } else if (arg == "--metrics") {
            if (++i >= argc) {
                return std::nullopt;
            }
            opt.metrics_path = argv[i];
        } else if (!arg.empty() && arg[0] == '-') {
            return std::nullopt;
        } else if (opt.deck_path.empty()) {
            opt.deck_path = arg;
        } else {
            return std::nullopt;
        }
    }
    if (opt.deck_path.empty() || opt.plan.axes().empty()) {
        return std::nullopt;
    }
    return opt;
}

int run_sweep(const SweepCliOptions& cli) {
    start_telemetry(cli.trace_path, cli.metrics_path, /*report=*/false);
    const SimSession session = SimSession::from_deck_file(cli.deck_path);
    std::cout << "nanosim " << version_string() << " | sweep | "
              << cli.deck_path << " | " << cli.plan.size() << " points on "
              << cli.campaign.policy.resolved() << " threads\n";
    for (const auto& axis : cli.plan.axes()) {
        std::cout << "  axis " << axis.label() << ": " << axis.start
                  << " -> " << axis.stop << " (" << axis.points
                  << " points)\n";
    }

    const runtime::CampaignResult result =
        session.sweep(cli.plan, cli.campaign);
    std::cout << "  " << result.rows.size() << " jobs, "
              << result.failures() << " failures, "
              << result.metric_names.size() << " metrics per point\n";
    for (const auto& row : result.rows) {
        if (!row.ok) {
            std::cout << "  point " << row.index << " FAILED: " << row.error
                      << '\n';
        }
    }

    // Persist before plotting: a plot hiccup must not cost the CSV.
    if (cli.out_path) {
        result.write_csv_file(*cli.out_path);
        std::cout << "  wrote " << *cli.out_path << '\n';
    }
    write_telemetry(cli.trace_path, cli.metrics_path);

    // 1-D campaigns: plot every metric against the swept parameter.
    if (!cli.quiet && cli.plan.axes().size() == 1) {
        std::vector<analysis::Waveform> waves;
        for (const auto& metric : result.metric_names) {
            analysis::Waveform w = result.metric_wave(metric);
            if (w.size() >= 2) {
                waves.push_back(std::move(w));
            }
        }
        if (!waves.empty()) {
            analysis::PlotOptions plot;
            plot.title = "sweep campaign";
            plot.x_label = cli.plan.axes()[0].label();
            analysis::ascii_plot(std::cout, waves, plot);
        }
    }

    return result.failures() == 0 ? 0 : 1;
}

// ---- serve verb -------------------------------------------------------

/// Self-pipe for SIGTERM/SIGINT: the handler only write()s (async-signal
/// safe); a watcher thread turns bytes into Server::stop calls.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_stop_signal(int /*sig*/) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

struct ServeCliOptions {
    service::ServerOptions server;
    std::optional<std::string> metrics_path;
    std::optional<std::string> failpoints; ///< --failpoints SPEC
};

std::optional<ServeCliOptions> parse_serve_args(int argc, char** argv,
                                                int first) {
    ServeCliOptions opt;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        }
        if (arg == "--verbose") {
            log::set_level(log::Level::info);
            continue;
        }
        if (++i >= argc) {
            return std::nullopt; // every remaining flag takes a value
        }
        try {
            if (arg == "--port") {
                opt.server.port =
                    static_cast<int>(parse_int_arg("--port", argv[i]));
            } else if (arg == "--host") {
                opt.server.host = argv[i];
            } else if (arg == "--workers") {
                opt.server.workers =
                    static_cast<int>(parse_int_arg("--workers", argv[i]));
            } else if (arg == "--queue-depth") {
                opt.server.queue_depth = static_cast<std::size_t>(
                    parse_int_arg("--queue-depth", argv[i]));
            } else if (arg == "--max-sessions") {
                opt.server.max_sessions = static_cast<std::size_t>(
                    parse_int_arg("--max-sessions", argv[i]));
            } else if (arg == "--idle-timeout") {
                opt.server.idle_timeout_s = parse_value(argv[i]);
                if (opt.server.idle_timeout_s < 0.0) {
                    return std::nullopt;
                }
            } else if (arg == "--metrics") {
                opt.metrics_path = argv[i];
            } else if (arg == "--failpoints") {
                opt.failpoints = argv[i];
            } else {
                return std::nullopt;
            }
        } catch (const std::exception&) {
            return std::nullopt;
        }
    }
    if (opt.server.port < 0 || opt.server.port > 65535 ||
        opt.server.workers < 1 || opt.server.queue_depth < 1) {
        return std::nullopt;
    }
    return opt;
}

int run_serve(const ServeCliOptions& cli) {
    if (cli.metrics_path) {
        obs::set_metrics_enabled(true);
    }
    if (cli.failpoints) {
        failpoints::arm_from_spec(*cli.failpoints);
    }
    service::Server server(cli.server);
    server.start();
    // Scripted clients (and the CI smoke) parse this exact line to learn
    // the ephemeral port — keep it first and flushed.
    std::cout << "listening on " << cli.server.host << ":" << server.port()
              << '\n'
              << std::flush;

    if (::pipe(g_signal_pipe) != 0) {
        std::cerr << "nanosim serve: cannot create signal pipe\n";
        return 1;
    }
    std::signal(SIGTERM, on_stop_signal);
    std::signal(SIGINT, on_stop_signal);
    std::thread watcher([&server] {
        char byte = 0;
        int stops = 0;
        while (::read(g_signal_pipe[0], &byte, 1) == 1) {
            ++stops;
            if (stops == 1) {
                // First signal: graceful — drain everything queued.
                std::cerr << "nanosim serve: draining queue...\n";
                server.stop(/*drain=*/true);
            } else {
                // Second signal: force — cancel queued and running jobs.
                std::cerr << "nanosim serve: force stop\n";
                server.stop(/*drain=*/false);
                break;
            }
        }
    });

    // Blocks until a signal or an {"op":"shutdown"} request stops the
    // server and the queue finishes per the stop mode.
    server.wait();

    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    ::close(g_signal_pipe[1]); // EOF unblocks the watcher's read()
    watcher.join();
    ::close(g_signal_pipe[0]);

    if (cli.metrics_path) {
        obs::metrics().write_json_file(*cli.metrics_path);
        std::cerr << "nanosim serve: wrote " << *cli.metrics_path << '\n';
    }
    std::cout << "stopped\n";
    return 0;
}

// ---- submit verb ------------------------------------------------------

struct SubmitCliOptions {
    std::string host = "127.0.0.1";
    int port = 0;
    std::string deck_path;                   ///< positional deck file
    std::optional<std::string> circuit_spec; ///< --circuit generator spec
    std::vector<service::wire::NoiseInjection> noise;
    std::optional<std::string> spec_json;    ///< --spec raw wire JSON
    int priority = 0;
    double deadline_s = 0.0;
    bool follow = true;   ///< subscribe + stream events until terminal
    bool json_out = false; ///< echo raw protocol lines instead of prose
    service::ClientOptions client;           ///< --connect/--read-timeout
    int retries = 3;                         ///< --retries (submit attempts)
    std::optional<std::string> failpoints;   ///< --failpoints SPEC (server side)
    std::optional<std::string> checkpoint_path; ///< --checkpoint FILE
    std::optional<std::string> resume_path;     ///< --resume FILE
};

std::optional<SubmitCliOptions> parse_submit_args(int argc, char** argv,
                                                  int first) {
    SubmitCliOptions opt;
    bool port_set = false;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        }
        if (arg == "--no-follow") {
            opt.follow = false;
            continue;
        }
        if (arg == "--json") {
            opt.json_out = true;
            continue;
        }
        if (!arg.empty() && arg[0] != '-') {
            if (!opt.deck_path.empty()) {
                return std::nullopt;
            }
            opt.deck_path = arg;
            continue;
        }
        if (++i >= argc) {
            return std::nullopt;
        }
        try {
            if (arg == "--host") {
                opt.host = argv[i];
            } else if (arg == "--port") {
                opt.port = static_cast<int>(parse_int_arg("--port", argv[i]));
                port_set = true;
            } else if (arg == "--circuit") {
                opt.circuit_spec = argv[i];
            } else if (arg == "--spec") {
                opt.spec_json = argv[i];
            } else if (arg == "--priority") {
                opt.priority =
                    static_cast<int>(parse_int_arg("--priority", argv[i]));
            } else if (arg == "--deadline") {
                opt.deadline_s = parse_value(argv[i]);
                if (opt.deadline_s <= 0.0) {
                    return std::nullopt;
                }
            } else if (arg == "--connect-timeout") {
                opt.client.connect_timeout_s = parse_value(argv[i]);
                if (opt.client.connect_timeout_s < 0.0) {
                    return std::nullopt;
                }
            } else if (arg == "--read-timeout") {
                opt.client.read_timeout_s = parse_value(argv[i]);
                if (opt.client.read_timeout_s < 0.0) {
                    return std::nullopt;
                }
            } else if (arg == "--retries") {
                opt.retries =
                    static_cast<int>(parse_int_arg("--retries", argv[i]));
                if (opt.retries < 1) {
                    return std::nullopt;
                }
            } else if (arg == "--failpoints") {
                opt.failpoints = argv[i];
            } else if (arg == "--checkpoint") {
                opt.checkpoint_path = argv[i];
            } else if (arg == "--resume") {
                opt.resume_path = argv[i];
            } else if (arg == "--noise") {
                // NODE:SIGMA — matched against circuit node names server
                // side, so errors surface in the job result.
                const std::string pair = argv[i];
                const auto colon = pair.rfind(':');
                if (colon == std::string::npos || colon == 0) {
                    return std::nullopt;
                }
                service::wire::NoiseInjection inj;
                inj.node = pair.substr(0, colon);
                inj.sigma = parse_value(pair.substr(colon + 1));
                opt.noise.push_back(std::move(inj));
            } else {
                return std::nullopt;
            }
        } catch (const std::exception&) {
            return std::nullopt;
        }
    }
    if (!port_set || opt.port < 1 || opt.port > 65535) {
        return std::nullopt;
    }
    if (opt.deck_path.empty() == !opt.circuit_spec.has_value()) {
        return std::nullopt; // exactly one of deck / --circuit
    }
    if (opt.resume_path && !opt.spec_json) {
        // A checkpoint only carries accumulator state — the mc spec it
        // belongs to must be restated so the resumed run is well-defined.
        return std::nullopt;
    }
    return opt;
}

/// Read a whole file (deck, checkpoint JSON) or throw IoError.
std::string slurp_file(const std::string& path, const char* what) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw IoError(std::string("submit: cannot read ") + what + " '" +
                      path + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

int run_submit(const SubmitCliOptions& cli) {
    namespace json = service::json;

    service::wire::CircuitSource circuit;
    if (cli.circuit_spec) {
        circuit.builtin = *cli.circuit_spec;
    } else {
        circuit.deck = slurp_file(cli.deck_path, "deck");
    }
    circuit.noise = cli.noise;

    json::Value request{json::Object{}};
    request.set("op", "submit");
    request.set("circuit", circuit.to_json());
    if (cli.spec_json) {
        json::Value spec = json::parse(*cli.spec_json);
        if (cli.resume_path) {
            // Accept either the bare checkpoint document or a full
            // {"event":"checkpoint",...} line captured from the stream.
            json::Value doc =
                json::parse(slurp_file(*cli.resume_path, "checkpoint"));
            if (doc.find("event") != nullptr &&
                doc.find("checkpoint") != nullptr) {
                doc = doc.at("checkpoint");
            }
            spec.set("resume", std::move(doc));
        }
        // Validate the wire spec locally so a typo is a usage error here
        // rather than a rejected request there.
        request.set("spec", service::wire::spec_to_json(
                                service::wire::spec_from_json(spec)));
    }
    if (cli.failpoints) {
        request.set("failpoints", json::Value(*cli.failpoints));
    }
    if (cli.priority != 0) {
        request.set("priority", json::Value(cli.priority));
    }
    if (cli.deadline_s > 0.0) {
        request.set("deadline_s", json::Value(cli.deadline_s));
    }
    request.set("subscribe", json::Value(cli.follow));

    // Events may legitimately interleave ahead of the submit response on
    // a subscribed connection (the worker can even finish a small job
    // first), so the same collector runs during every request; a
    // terminal event seen early short-circuits wait_for_terminal.
    std::optional<json::Value> early_terminal;
    const auto on_event = [&](const json::Value& event) {
        if (cli.json_out) {
            std::cout << event.dump() << '\n' << std::flush;
        } else if (const json::Value* f = event.find("fraction")) {
            std::cerr << "\r  " << static_cast<int>(f->as_number() * 100)
                      << "%" << std::flush;
        } else if (event.find("done") != nullptr &&
                   event.find("total") != nullptr) {
            std::cerr << "\r  trial " << event.at("done").as_int() << '/'
                      << event.at("total").as_int() << std::flush;
        }
        const std::string& name = event.at("event").as_string();
        if (cli.checkpoint_path && name == "checkpoint") {
            if (const json::Value* cp = event.find("checkpoint")) {
                // Write-then-rename: a kill mid-write leaves the previous
                // complete checkpoint in place, never a torn file.
                const std::string tmp = *cli.checkpoint_path + ".tmp";
                {
                    std::ofstream out(tmp,
                                      std::ios::binary | std::ios::trunc);
                    out << cp->dump() << '\n';
                }
                std::rename(tmp.c_str(), cli.checkpoint_path->c_str());
            }
        }
        if (name == "done" || name == "failed" || name == "cancelled" ||
            name == "expired") {
            early_terminal = event;
        }
    };

    // Idempotent submit with retries: the key makes a resubmit after a
    // lost connection return the SAME job instead of double-running it.
    request.set("idempotency_key", service::idempotency_key(request));
    service::RetryPolicy policy;
    policy.attempts = cli.retries;
    std::unique_ptr<service::Client> client_ptr;
    json::Value reply;
    for (int attempt = 1;; ++attempt) {
        try {
            client_ptr = std::make_unique<service::Client>(
                cli.host, cli.port, cli.client);
            reply = client_ptr->request(request, on_event);
            break;
        } catch (const IoError&) {
            if (attempt >= policy.attempts) {
                throw;
            }
            std::this_thread::sleep_for(
                std::chrono::duration<double>(policy.delay_s(attempt)));
        }
    }
    service::Client& client = *client_ptr;
    if (cli.json_out) {
        std::cout << reply.dump() << '\n' << std::flush;
    }
    if (!reply.at("ok").as_bool()) {
        if (!cli.json_out) {
            std::cerr << "nanosim submit: rejected: "
                      << reply.at("error").as_string() << '\n';
        }
        return 1;
    }
    const std::uint64_t id = reply.at("id").as_uint();
    if (!cli.json_out) {
        std::cout << "submitted job " << id << '\n';
    }
    if (!cli.follow) {
        return 0;
    }

    const json::Value terminal = early_terminal
                                     ? *early_terminal
                                     : client.wait_for_terminal(id, on_event);
    if (!cli.json_out) {
        std::cerr << '\r';
    }
    const std::string& outcome = terminal.at("event").as_string();

    if (outcome == "done" || outcome == "cancelled") {
        json::Value fetch{json::Object{}};
        fetch.set("op", "result");
        fetch.set("id", json::Value(static_cast<double>(id)));
        const json::Value result = client.request(fetch);
        if (cli.json_out) {
            std::cout << result.dump() << '\n' << std::flush;
        } else if (result.at("ok").as_bool()) {
            const json::Value& header =
                result.at("result").at("header");
            std::cout << "job " << id << ' ' << outcome << ": "
                      << header.at("kind").as_string() << " via "
                      << header.at("engine").as_string() << ", "
                      << header.at("elapsed_s").as_number() << " s\n";
        }
    } else if (!cli.json_out) {
        std::cout << "job " << id << ' ' << outcome;
        if (const json::Value* err = terminal.find("error")) {
            std::cout << ": " << err->as_string();
        }
        std::cout << '\n';
    }
    return outcome == "done" ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    // Environment-driven log threshold first, so parse/setup diagnostics
    // already honour it; --verbose below still overrides.
    log::set_level_from_env();
    try {
        // NANOSIM_FAILPOINTS arms injection sites before any verb runs;
        // --failpoints flags below layer on top.
        failpoints::arm_from_env();
    } catch (const SimError& e) {
        std::cerr << "nanosim: NANOSIM_FAILPOINTS: " << e.what() << '\n';
        return 2;
    }
    // Verb dispatch: "sweep" runs a campaign, "report" runs the deck's
    // cards and prints structured solver reports, "run" (or a bare deck
    // path, for compatibility) runs the deck's own analysis cards.
    int first = 1;
    bool sweep_verb = false;
    bool report_verb = false;
    bool serve_verb = false;
    bool submit_verb = false;
    if (argc > 1) {
        const std::string verb = argv[1];
        if (verb == "sweep") {
            sweep_verb = true;
            first = 2;
        } else if (verb == "run") {
            first = 2;
        } else if (verb == "report") {
            report_verb = true;
            first = 2;
        } else if (verb == "serve") {
            serve_verb = true;
            first = 2;
        } else if (verb == "submit") {
            submit_verb = true;
            first = 2;
        }
    }
    if (serve_verb) {
        const auto cli = parse_serve_args(argc, argv, first);
        if (!cli) {
            usage(std::cerr);
            return 2;
        }
        try {
            return run_serve(*cli);
        } catch (const SimError& e) {
            std::cerr << "nanosim: " << e.what() << '\n';
            return 1;
        }
    }
    if (submit_verb) {
        const auto cli = parse_submit_args(argc, argv, first);
        if (!cli) {
            usage(std::cerr);
            return 2;
        }
        try {
            return run_submit(*cli);
        } catch (const SimError& e) {
            std::cerr << "nanosim: " << e.what() << '\n';
            return 1;
        }
    }
    if (sweep_verb) {
        std::optional<SweepCliOptions> cli;
        try {
            cli = parse_sweep_args(argc, argv, first);
        } catch (const std::exception& e) { // bad --param/--threads values
            std::cerr << "nanosim: " << e.what() << '\n';
            usage(std::cerr);
            return 2;
        }
        if (!cli) {
            usage(std::cerr);
            return 2;
        }
        try {
            return run_sweep(*cli);
        } catch (const SimError& e) {
            std::cerr << "nanosim: " << e.what() << '\n';
            return 1;
        }
    }

    auto cli = parse_args(argc - (first - 1), argv + (first - 1));
    if (!cli) {
        usage(std::cerr);
        return 2;
    }
    cli->report = report_verb;
    try {
        if (cli->failpoints) {
            failpoints::arm_from_spec(*cli->failpoints);
        }
        start_telemetry(cli->trace_path, cli->metrics_path, cli->report);
        // One persistent session: every analysis below shares its cached
        // stamp pattern + symbolic factorisation (the run_deck path).
        SimSession session =
            cli->circuit_spec
                ? SimSession(refckt::builtin_circuit(*cli->circuit_spec))
                : SimSession::from_deck_file(cli->deck_path);
        const std::string source =
            cli->circuit_spec ? *cli->circuit_spec : cli->deck_path;
        std::cout << "nanosim " << version_string() << " | " << source
                  << " | "
                  << session.circuit().device_count() << " devices, "
                  << session.circuit().num_nodes() << " nodes, "
                  << session.assembler().unknowns() << " unknowns\n";
        // Deck cards (or .op + .tran for built-in circuits) map onto
        // specs; --engine applies uniformly.
        std::vector<AnalysisSpec> specs;
        if (cli->circuit_spec) {
            OpSpec op;
            op.engine = cli->dc_engine;
            specs.emplace_back(std::move(op));
            TranSpec tran;
            tran.engine = cli->tran_engine;
            tran.t_stop = cli->tstop;
            tran.common.dt_init = cli->tstop / 500.0;
            specs.emplace_back(std::move(tran));
        } else {
            specs = SimSession::specs_from_deck(
                session.deck_analyses(), cli->dc_engine, cli->tran_engine);
        }
        if (specs.empty()) {
            std::cout << "deck has no analysis cards (.op/.dc/.tran); "
                         "nothing to do\n";
            return 0;
        }
        if (cli->deadline_s > 0.0) {
            for (AnalysisSpec& spec : specs) {
                std::visit(
                    [&](auto& s) { s.common.deadline_s = cli->deadline_s; },
                    spec);
            }
        }

        ProgressMeter meter;
        engines::AnalysisObserver observer;
        observer.on_progress = [&meter](double f) { meter.draw(f); };
        observer.on_step = [&meter](double, int accepted) {
            meter.items(accepted, "steps");
        };
        observer.on_trial = [&meter](int done, int total) {
            meter.items(done, "trials");
            if (total > 0) {
                meter.draw(static_cast<double>(done) / total);
            }
        };
        const engines::AnalysisObserver* obs =
            cli->progress ? &observer : nullptr;

        int rc = 0;
        int index = 0;
        for (const AnalysisSpec& spec : specs) {
            ++index;
            if (obs != nullptr) {
                meter.begin("analysis " + std::to_string(index));
            }
            AnalysisResult result;
            try {
                result = session.run(spec, obs);
            } catch (...) {
                // Erase the meter line so the error lands on a clean one.
                meter.end();
                throw;
            }
            meter.end();
            if (result.header.aborted) {
                // Deadline (or observer cancel) path: partial results are
                // still printed below, but the exit code flags the cut.
                std::cout << "\n* analysis " << index
                          << " ABORTED after " << std::setprecision(3)
                          << result.header.elapsed_s
                          << " s (deadline/cancel) — partial results\n";
                rc |= 1;
            }
            if (cli->report) {
                // Structured per-run solver report instead of waveforms.
                std::cout << "\n* analysis " << index << ": "
                          << result.report.pretty();
                continue;
            }
            if (std::holds_alternative<OpSpec>(spec)) {
                rc |= run_op(session, result, index);
            } else if (const auto* dc = std::get_if<DcSweepSpec>(&spec)) {
                rc |= run_dc(session, *cli, *dc, result, index);
            } else if (const auto* tran = std::get_if<TranSpec>(&spec)) {
                rc |= run_tran(*cli, *tran, result,
                               session.solver_cache().stats(), index);
            }
        }
        write_telemetry(cli->trace_path, cli->metrics_path);
        return rc;
    } catch (const SimError& e) {
        std::cerr << "nanosim: " << e.what() << '\n';
        return 1;
    }
}
