// Nano-Sim — parameter-sweep / campaign orchestration.
//
// A JobPlan is the cartesian grid over one or more ParamAxis entries;
// each grid point is one independent job: build a fresh Circuit from the
// caller's factory, apply the point's parameter overrides
// (runtime/params.hpp), assemble, run the requested analyses, and reduce
// the results to a row of scalar metrics.  Jobs run on a ThreadPool and
// the rows are merged in job-index order, so a campaign's output is
// independent of the thread count.  Per-job failures (non-convergence,
// singular matrices at extreme parameter values) are captured in the row
// instead of aborting the campaign — a 1000-point exploration should
// report its 3 bad corners, not die on them.
#ifndef NANOSIM_RUNTIME_SWEEP_HPP
#define NANOSIM_RUNTIME_SWEEP_HPP

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/waveform.hpp"
#include "netlist/parser.hpp"
#include "runtime/execution_policy.hpp"
#include "stochastic/stats.hpp"

namespace nanosim::runtime {

/// One swept parameter: `points` uniformly spaced values over
/// [start, stop] applied to "<device>:<param>".
struct ParamAxis {
    std::string device;
    std::string param;
    double start = 0.0;
    double stop = 0.0;
    std::size_t points = 0;

    /// "<device>:<param>" (CSV header / axis label).
    [[nodiscard]] std::string label() const { return device + ":" + param; }

    /// The axis values (throws AnalysisError for points == 0, or for
    /// points == 1 with start != stop).
    [[nodiscard]] std::vector<double> values() const;
};

/// Parse "DEV:PARAM=start:stop:points" with engineering-notation values
/// ("RTD1:A=1e-4:2e-4:11").  Throws NetlistError on malformed input.
[[nodiscard]] ParamAxis parse_param_axis(const std::string& spec);

/// Cartesian product of parameter axes = the batch of jobs to run.
class JobPlan {
public:
    /// Append an axis (validates and caches its expanded values, so
    /// point() never re-materialises a linspace per job).
    void add_axis(ParamAxis axis);

    [[nodiscard]] const std::vector<ParamAxis>& axes() const noexcept {
        return axes_;
    }

    /// Cached values of axis `a` (parallel to axes()).
    [[nodiscard]] const std::vector<double>&
    axis_values(std::size_t a) const {
        return axis_values_.at(a);
    }

    /// Total number of grid points (1 for an empty plan: the campaign
    /// still runs the base circuit once).
    [[nodiscard]] std::size_t size() const noexcept;

    /// Parameter values of grid point `index`, parallel to axes().
    /// Row-major: the LAST axis varies fastest.  O(axes) — reads the
    /// per-axis value cache instead of rebuilding each axis's linspace
    /// (which made a 10^6-point campaign allocate per point per axis).
    [[nodiscard]] std::vector<double> point(std::size_t index) const;

private:
    std::vector<ParamAxis> axes_;
    std::vector<std::vector<double>> axis_values_; // parallel to axes_
};

/// Metrics of one grid point.
struct CampaignRow {
    std::size_t index = 0;           ///< grid index
    std::vector<double> params;      ///< parallel to JobPlan::axes()
    bool ok = false;                 ///< false: see `error`, metrics NaN
    std::string error;
    std::vector<double> metrics;     ///< parallel to metric_names
};

/// Aggregated campaign output: a row per grid point plus the metric
/// schema, with CSV export and ensemble reductions.
class CampaignResult {
public:
    std::vector<std::string> param_names;  ///< axis labels
    std::vector<std::string> metric_names; ///< e.g. "op.v(out)"
    std::vector<CampaignRow> rows;         ///< grid order

    /// Rows that failed.
    [[nodiscard]] std::size_t failures() const noexcept;

    /// Index of a metric by name (throws AnalysisError when absent).
    [[nodiscard]] std::size_t metric_index(const std::string& name) const;

    /// Metric-vs-parameter waveform for single-axis campaigns, ordered
    /// by ascending parameter value (duplicate values keep the first
    /// row).  Failed rows are skipped.  Throws AnalysisError for
    /// multi-axis campaigns or an unknown metric.
    [[nodiscard]] analysis::Waveform
    metric_wave(const std::string& metric) const;

    /// Distribution of one metric across all successful rows.
    [[nodiscard]] stochastic::RunningStats
    metric_stats(const std::string& metric) const;

    /// CSV: param columns, "ok", then metric columns (failed rows print
    /// "nan" metrics).
    void write_csv(std::ostream& os) const;
    void write_csv_file(const std::string& path) const;
};

/// Campaign knobs.
struct CampaignOptions {
    ExecutionPolicy policy; ///< worker threads
};

/// Builds one fresh Circuit per job (called concurrently — must be
/// reentrant, e.g. re-parse a deck or rebuild programmatically).
using CircuitFactory = std::function<Circuit()>;

/// Run the campaign.  At every grid point the factory's circuit gets the
/// point's overrides applied and the `analyses` run with the SWEC
/// engines: OpCard contributes "op.v(<node>)" metrics, each TranCard
/// contributes "tran<k>.peak.v(<node>)" / "tran<k>.final.v(<node>)"
/// metrics.  DcCard entries are ignored (a sweep of sweeps); with no
/// usable card the campaign runs a bare operating point.
[[nodiscard]] CampaignResult
run_sweep_campaign(const JobPlan& plan, const CircuitFactory& factory,
                   const std::vector<AnalysisCard>& analyses,
                   const CampaignOptions& options = {});

} // namespace nanosim::runtime

#endif // NANOSIM_RUNTIME_SWEEP_HPP
