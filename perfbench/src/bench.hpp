// nanosim perfbench — shared declarations of the benchmark program.
//
// One binary runs one workload per invocation (chain_tran, mesh_mc,
// service_mix).  Untraced runs measure the end-to-end metrics; traced
// runs additionally record spans around every call the benchmark makes
// into the simulator's public API and derive the per-layer metrics from
// them.  All spans live in this directory — nothing under src/ is
// instrumented for the benchmark.
#ifndef NANOSIM_PERFBENCH_BENCH_HPP
#define NANOSIM_PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mna/mna.hpp"
#include "obs/report.hpp"
#include "util/flops.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// getrusage(RUSAGE_SELF) user + system time [s] (all threads).
[[nodiscard]] double cpu_seconds();
/// Peak resident set size of the process [MB].
[[nodiscard]] double peak_rss_mb();

/// Median (average of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// The `columns` numeric columns of a committed reference CSV ('#'
/// comment lines and one header line skipped).  Throws on a missing file
/// or a malformed line.
[[nodiscard]] std::vector<std::vector<double>>
read_csv(const std::string& path, std::size_t columns);

/// Name -> (value, unit) in insertion order.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};
class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit);
    [[nodiscard]] const std::vector<Metric>& all() const noexcept {
        return items_;
    }

private:
    std::vector<Metric> items_;
};

/// Command-line configuration of one run.
struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string ref_dir = "perfbench/ref";
    std::string benchmark_json = "BENCHMARK.json"; ///< the metric lists
    std::string trace_out; ///< Chrome trace path (traced runs)
    int workers = 2;       ///< mesh_mc trial workers (N)
    int clients = 2;       ///< service_mix closed-loop clients (C)
    int server_workers = 2;
};

/// Everything one workload run reports.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Failed output checks (each also counted in `failed`).
    std::vector<std::string> check_failures;
    /// Metrics every workload reports (the gated end-to-end set).
    Metrics e2e;
    /// Workload-specific end-to-end figures (printed, not gated).
    Metrics extra;
    /// Per-layer metrics (traced runs only).
    Metrics layer;

    void fail_check(const std::string& what, std::uint64_t ops = 1);
};

/// Per-layer timings of one workload's circuit at one state, each a
/// median over repeated public-API calls (see probes.cpp).
struct LayerProbe {
    double analyze_s = 0.0;   ///< SystemCache construction
    double eval_us = 0.0;     ///< SystemCache::eval_chords
    double stamp_us = 0.0;    ///< SystemCache::begin + restamp_swec
    double ordering_s = 0.0;  ///< candidate orderings + fill prediction
    double refactor_us = 0.0; ///< SparseLu::refactor
    double solve_us = 0.0;    ///< SparseLu::solve
    double refactor_flops = 0.0; ///< per refactor call
    double solve_flops = 0.0;    ///< per solve call
    double pattern_nnz = 0.0;
    double factor_nnz = 0.0;
};

/// Probe the mna and linalg layers on `assembler` at unknown vector `x`
/// with reactive step `h`, spending roughly `budget_s`.
[[nodiscard]] LayerProbe probe_layers(const nanosim::mna::MnaAssembler& assembler,
                                      std::span<const double> x, double h,
                                      double budget_s);

/// Fill the mna.* / linalg.* per-layer metrics from a probe.
void report_probe(const LayerProbe& p, Metrics& layer);

/// Fill the step-control counts, the flop counts and the eval / factor
/// time shares from one run's report and flop tally.  Counts are divided
/// by `per` (1 for one run, the job count for a per-job mean).
void report_run(const nanosim::obs::RunReport& rep,
                const nanosim::FlopCounter& flops, double per, Metrics& layer);

/// (name, unit) of every metric of one list of BENCHMARK.json.
using MetricList = std::vector<std::pair<std::string, std::string>>;
[[nodiscard]] MetricList read_metric_list(const std::string& benchmark_json,
                                          const std::string& list);

/// Put `metrics` in the order of `list`, throwing on a metric the list
/// lacks or a unit it contradicts.  A listed metric that was not set is
/// an error, or with `zero_missing` reads 0 (a layer the workload does
/// not exercise), so each run prints the full set.
void conform(Metrics& metrics, const MetricList& list, bool zero_missing);

/// Run `step` repeatedly until `seconds` have elapsed (at least
/// `min_reps` times).  The steps time themselves.
void run_for(double seconds, int min_reps, const std::function<void()>& step);

// ---- tracing: spans recorded by this benchmark only ----------------------

/// True while spans record (traced runs, inside the traced window).
[[nodiscard]] bool tracing() noexcept;
void set_tracing(bool on) noexcept;

/// RAII span: a named interval in one layer, nested under the span open
/// on the same thread, tagged with an optional request id (service jobs).
class Span {
public:
    Span(const char* layer, const char* name, std::uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    const char* layer_;
    const char* name_;
    std::uint64_t request_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::int64_t t0_ns_ = -1;
};

/// Median per-call time [us] of `call`, timed in batches of `calls` (one
/// span per batch) until `budget_s` is spent, and at least 5 batches.
template <typename F>
double per_call_us(const char* layer, const char* name, int calls,
                   double budget_s, F&& call) {
    std::vector<double> per_call;
    const auto t0 = Clock::now();
    while (per_call.size() < 5 || seconds_since(t0) < budget_s) {
        const auto tb = Clock::now();
        {
            const Span span(layer, name);
            for (int i = 0; i < calls; ++i) {
                call();
            }
        }
        per_call.push_back(1e6 * seconds_since(tb) / calls);
    }
    return median(per_call);
}

/// Durations [s] of every recorded span with this layer and name.
[[nodiscard]] std::vector<double> span_durations(const char* layer,
                                                 const char* name);
/// Print a per-span table (count, total, self time) to stdout and write
/// the Chrome/Perfetto trace-event JSON to `path`.
void export_trace(const std::string& path);

// ---- workloads ------------------------------------------------------------

[[nodiscard]] Outcome run_chain_tran(const Config& cfg);
[[nodiscard]] Outcome run_mesh_mc(const Config& cfg);
[[nodiscard]] Outcome run_service_mix(const Config& cfg);

/// Regenerate the committed references (slow; not timed).
void make_chain_reference(const Config& cfg);
void make_mesh_reference(const Config& cfg);

/// The untraced / traced windows of a run: a traced run spends
/// `untraced_share` of its budget with spans off, the rest with spans on,
/// and reports the wall-time ratio as obs.trace_overhead_frac.
inline constexpr double k_untraced_share = 0.4;

} // namespace perfbench

#endif // NANOSIM_PERFBENCH_BENCH_HPP
