// nanosim perfbench — command-line entry point.
//
//   nanosim_perfbench --workload chain_tran|mesh_mc|service_mix
//                     --seed N --seconds S --trace 0|1
//                     [--ref-dir DIR] [--benchmark-json FILE] [--trace-out FILE]
//                     [--git-rev REV] [--src-digest HEX]
//   nanosim_perfbench --make-ref chain_tran|mesh_mc [--ref-dir DIR]
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exit status: 0 when every output check passed, 1 when a
// check failed, 2 on a usage error, 3 when the build may not report
// timings (not optimized, or sanitized).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/version.hpp"
#include "service/json.hpp"

namespace {

using perfbench::Config;
using perfbench::Metrics;
using perfbench::Outcome;
namespace json = nanosim::service::json;

/// Why this build may not report timings; empty when it may.
std::string timing_refusal() {
#ifndef NDEBUG
    return "assertions are enabled (NDEBUG not defined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "built with a sanitizer";
#endif
    const std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo") {
        return "build type '" + type + "' is not optimized";
    }
    return {};
}

std::string metrics_json(const Metrics& m) {
    std::string s = "{";
    bool first = true;
    for (const auto& metric : m.all()) {
        s += first ? "" : ", ";
        s += "\"" + metric.name + "\": {\"value\": " +
             json::number_to_string(metric.value) + ", \"unit\": \"" +
             metric.unit + "\"}";
        first = false;
    }
    return s + "}";
}

void print_table(const char* title, const Metrics& m) {
    std::printf("%s\n", title);
    for (const auto& metric : m.all()) {
        std::printf("  %-28s %14.6g %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    }
}

int usage(const char* why) {
    std::cerr << "nanosim_perfbench: " << why << "\n"
              << "usage: nanosim_perfbench --workload chain_tran|mesh_mc|"
                 "service_mix --seed N --seconds S --trace 0|1\n"
              << "       [--ref-dir DIR] [--benchmark-json FILE]"
                 " [--trace-out FILE]\n"
              << "       [--git-rev REV] [--src-digest HEX]\n"
              << "       nanosim_perfbench --make-ref chain_tran|mesh_mc\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    Config cfg;
    std::string make_ref;
    std::string git_rev = "unknown";
    std::string src_digest = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            return usage(("missing value for " + arg).c_str());
        }
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                cfg.workload = value;
            } else if (arg == "--seed") {
                cfg.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                cfg.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") {
                    return usage("--trace takes 0 or 1");
                }
                cfg.trace = value == "1";
            } else if (arg == "--ref-dir") {
                cfg.ref_dir = value;
            } else if (arg == "--benchmark-json") {
                cfg.benchmark_json = value;
            } else if (arg == "--trace-out") {
                cfg.trace_out = value;
            } else if (arg == "--git-rev") {
                git_rev = value;
            } else if (arg == "--src-digest") {
                src_digest = value;
            } else if (arg == "--make-ref") {
                make_ref = value;
            } else {
                return usage(("unknown option " + arg).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    const int nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    cfg.workers = std::min(cfg.workers, nproc);
    cfg.clients = std::min(cfg.clients, nproc);

    try {
        if (!make_ref.empty()) {
            if (make_ref == "chain_tran") {
                perfbench::make_chain_reference(cfg);
            } else if (make_ref == "mesh_mc") {
                cfg.workers = nproc;
                perfbench::make_mesh_reference(cfg);
            } else {
                return usage("--make-ref takes chain_tran or mesh_mc");
            }
            return 0;
        }
        if (!(cfg.seconds > 0.0) || cfg.seconds > 120.0) {
            return usage("--seconds must be in (0, 120]");
        }
        if (const std::string why = timing_refusal(); !why.empty()) {
            std::cerr << "nanosim_perfbench: refusing to report timings: "
                      << why << '\n';
            return 3;
        }

        // The reported metric names and units are BENCHMARK.json's.
        const auto e2e_list =
            perfbench::read_metric_list(cfg.benchmark_json, "end_to_end");
        const auto layer_list =
            perfbench::read_metric_list(cfg.benchmark_json, "per_layer");
        Outcome out;
        if (cfg.workload == "chain_tran") {
            out = perfbench::run_chain_tran(cfg);
        } else if (cfg.workload == "mesh_mc") {
            out = perfbench::run_mesh_mc(cfg);
        } else if (cfg.workload == "service_mix") {
            out = perfbench::run_service_mix(cfg);
        } else {
            return usage("--workload takes chain_tran, mesh_mc or service_mix");
        }
        out.e2e.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
        perfbench::conform(out.e2e, e2e_list, false);
        out.extra.set("failed_frac",
                      out.attempted == 0
                          ? 1.0
                          : static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted),
                      "ratio");

        std::printf("nanosim perfbench: workload %s, seed %llu, %g s, trace %d\n",
                    cfg.workload.c_str(),
                    static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                    cfg.trace ? 1 : 0);
        std::printf("provenance {\"nproc\": %d, \"workers_N\": %d, "
                    "\"clients_C\": %d, \"server_workers\": %d, "
                    "\"git_rev\": \"%s\", \"src_digest\": \"%s\", "
                    "\"nanosim_version\": \"%s\", \"compiler\": \"%s\", "
                    "\"build_type\": \"%s\", \"cxx_flags\": \"%s\"}\n",
                    nproc, cfg.workers, cfg.clients, cfg.server_workers,
                    git_rev.c_str(), src_digest.c_str(),
                    nanosim::version_string(), __VERSION__,
                    PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
        print_table("end-to-end:", out.e2e);
        print_table("workload-specific:", out.extra);
        Metrics& reported = cfg.trace ? out.layer : out.e2e;
        if (cfg.trace) {
            perfbench::conform(out.layer, layer_list, true);
            print_table("per-layer:", out.layer);
            if (!cfg.trace_out.empty()) {
                perfbench::export_trace(cfg.trace_out);
            }
        }
        for (const auto& m : reported.all()) {
            if (!std::isfinite(m.value)) {
                out.fail_check("metric " + m.name + " is not finite");
                reported.set(m.name, 0.0, m.unit);
            }
        }
        std::printf("checks: %zu failed of %llu ops\n",
                    out.check_failures.size(),
                    static_cast<unsigned long long>(out.attempted));
        const bool correct = out.check_failures.empty() && out.failed == 0 &&
                             out.attempted > 0;
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": %s}\n",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(std::max<std::uint64_t>(
                        out.attempted, 1)),
                    static_cast<unsigned long long>(out.failed),
                    metrics_json(reported).c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "nanosim_perfbench: " << e.what() << '\n';
        return 1;
    }
}
