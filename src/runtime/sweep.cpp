#include "runtime/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <utility>
#include <variant>

#include "core/sim_session.hpp"
#include "mna/mna.hpp"
#include "runtime/params.hpp"
#include "runtime/thread_pool.hpp"
#include "util/error.hpp"

namespace nanosim::runtime {

std::vector<double> ParamAxis::values() const {
    if (points == 0) {
        throw AnalysisError("ParamAxis " + label() + ": need >= 1 point");
    }
    if (points == 1) {
        if (start != stop) {
            throw AnalysisError("ParamAxis " + label() +
                                ": 1 point needs start == stop");
        }
        return {start};
    }
    std::vector<double> out(points);
    for (std::size_t i = 0; i < points; ++i) {
        out[i] = start + (stop - start) * static_cast<double>(i) /
                             static_cast<double>(points - 1);
    }
    return out;
}

ParamAxis parse_param_axis(const std::string& spec) {
    // DEV:PARAM=start:stop:points
    const auto eq = spec.find('=');
    const auto colon = spec.find(':');
    if (eq == std::string::npos || colon == std::string::npos || colon > eq ||
        colon == 0) {
        throw NetlistError("bad sweep spec '" + spec +
                           "' (want DEV:PARAM=start:stop:points)");
    }
    ParamAxis axis;
    axis.device = spec.substr(0, colon);
    axis.param = spec.substr(colon + 1, eq - colon - 1);
    if (axis.param.empty()) {
        throw NetlistError("bad sweep spec '" + spec + "': empty parameter");
    }
    const std::string range = spec.substr(eq + 1);
    const auto c1 = range.find(':');
    const auto c2 = range.find(':', c1 == std::string::npos ? c1 : c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
        throw NetlistError("bad sweep range '" + range +
                           "' (want start:stop:points)");
    }
    axis.start = parse_value(range.substr(0, c1));
    axis.stop = parse_value(range.substr(c1 + 1, c2 - c1 - 1));
    const double pts = parse_value(range.substr(c2 + 1));
    if (!(pts >= 1.0) || pts != std::floor(pts)) {
        throw NetlistError("bad sweep point count in '" + spec + "'");
    }
    axis.points = static_cast<std::size_t>(pts);
    return axis;
}

void JobPlan::add_axis(ParamAxis axis) {
    // Validate now, not at campaign time — and keep the expansion so the
    // per-job point() calls are pure lookups.
    axis_values_.push_back(axis.values());
    axes_.push_back(std::move(axis));
}

std::size_t JobPlan::size() const noexcept {
    std::size_t n = 1;
    for (const auto& axis : axes_) {
        n *= axis.points;
    }
    return n;
}

std::vector<double> JobPlan::point(std::size_t index) const {
    if (index >= size()) {
        throw AnalysisError("JobPlan::point: index out of range");
    }
    std::vector<double> out(axes_.size());
    // Row-major decomposition, last axis fastest.
    std::size_t rem = index;
    for (std::size_t a = axes_.size(); a-- > 0;) {
        const std::size_t n = axes_[a].points;
        const std::size_t i = rem % n;
        rem /= n;
        out[a] = axis_values_[a][i];
    }
    return out;
}

std::size_t CampaignResult::failures() const noexcept {
    std::size_t n = 0;
    for (const auto& row : rows) {
        n += row.ok ? 0 : 1;
    }
    return n;
}

std::size_t CampaignResult::metric_index(const std::string& name) const {
    for (std::size_t i = 0; i < metric_names.size(); ++i) {
        if (metric_names[i] == name) {
            return i;
        }
    }
    throw AnalysisError("campaign has no metric '" + name + "'");
}

analysis::Waveform CampaignResult::metric_wave(const std::string& metric) const {
    if (param_names.size() != 1) {
        throw AnalysisError("metric_wave: needs a single-axis campaign");
    }
    const std::size_t m = metric_index(metric);
    // Axes may run high-to-low; Waveform needs strictly increasing
    // abscissae, so order by parameter value and drop duplicates.
    std::vector<std::pair<double, double>> points;
    for (const auto& row : rows) {
        if (row.ok) {
            points.emplace_back(row.params[0], row.metrics[m]);
        }
    }
    std::sort(points.begin(), points.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    analysis::Waveform wave(metric);
    for (const auto& [x, y] : points) {
        if (wave.empty() || x > wave.t_end()) {
            wave.append(x, y);
        }
    }
    return wave;
}

stochastic::RunningStats
CampaignResult::metric_stats(const std::string& metric) const {
    const std::size_t m = metric_index(metric);
    stochastic::RunningStats stats;
    for (const auto& row : rows) {
        if (row.ok) {
            stats.add(row.metrics[m]);
        }
    }
    return stats;
}

void CampaignResult::write_csv(std::ostream& os) const {
    for (const auto& name : param_names) {
        os << name << ',';
    }
    os << "ok";
    for (const auto& name : metric_names) {
        os << ',' << name;
    }
    os << '\n';
    for (const auto& row : rows) {
        for (const double p : row.params) {
            os << p << ',';
        }
        os << (row.ok ? 1 : 0);
        for (std::size_t m = 0; m < metric_names.size(); ++m) {
            os << ',';
            if (row.ok) {
                os << row.metrics[m];
            } else {
                os << "nan";
            }
        }
        os << '\n';
    }
}

void CampaignResult::write_csv_file(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
        throw IoError("cannot open '" + path + "' for writing");
    }
    write_csv(os);
    if (!os) {
        throw IoError("write to '" + path + "' failed");
    }
}

namespace {

/// Metric schema and evaluation for one grid point.  The schema (names)
/// is derived once from a probe circuit; every job must produce metrics
/// in exactly this order.
struct MetricSchema {
    std::vector<std::string> names;
    std::vector<AnalysisCard> cards; ///< usable cards (op/tran only)
};

[[nodiscard]] MetricSchema make_schema(const Circuit& circuit,
                                       const std::vector<AnalysisCard>& cards) {
    MetricSchema schema;
    for (const auto& card : cards) {
        if (!std::holds_alternative<DcCard>(card)) {
            schema.cards.push_back(card);
        }
    }
    if (schema.cards.empty()) {
        schema.cards.emplace_back(OpCard{});
    }
    int tran_index = 0;
    for (const auto& card : schema.cards) {
        if (std::holds_alternative<OpCard>(card)) {
            for (NodeId n = 1; n <= circuit.num_nodes(); ++n) {
                schema.names.push_back("op.v(" + circuit.node_name(n) + ")");
            }
        } else if (std::holds_alternative<TranCard>(card)) {
            ++tran_index;
            const std::string prefix = "tran" + std::to_string(tran_index);
            for (NodeId n = 1; n <= circuit.num_nodes(); ++n) {
                schema.names.push_back(prefix + ".peak.v(" +
                                       circuit.node_name(n) + ")");
            }
            for (NodeId n = 1; n <= circuit.num_nodes(); ++n) {
                schema.names.push_back(prefix + ".final.v(" +
                                       circuit.node_name(n) + ")");
            }
        }
    }
    return schema;
}

[[nodiscard]] std::vector<double> evaluate_point(Circuit circuit,
                                                 const MetricSchema& schema) {
    // One per-job session: the job's .op and .tran cards (and every step
    // inside them) share a single frozen stamp pattern + symbolic LU —
    // the execution path library callers, the CLI and the service use.
    SimSession session(std::move(circuit));
    const std::vector<AnalysisResult> results =
        session.run_all(SimSession::specs_from_deck(schema.cards));

    std::vector<double> metrics;
    metrics.reserve(schema.names.size());
    const NodeId nodes = session.circuit().num_nodes();
    for (const AnalysisResult& result : results) {
        if (result.header.kind == AnalysisKind::op) {
            const engines::DcResult& op = result.dc();
            if (!op.converged) {
                throw ConvergenceError("operating point did not converge",
                                       op.iterations, op.residual);
            }
            const auto v = session.assembler().view(op.x);
            for (NodeId n = 1; n <= nodes; ++n) {
                metrics.push_back(v(n));
            }
        } else if (result.header.kind == AnalysisKind::tran) {
            const engines::TranResult& res = result.tran();
            for (const auto& wave : res.node_waves) {
                metrics.push_back(wave.max_value());
            }
            for (const auto& wave : res.node_waves) {
                metrics.push_back(wave.value().back());
            }
        }
    }
    return metrics;
}

} // namespace

CampaignResult run_sweep_campaign(const JobPlan& plan,
                                  const CircuitFactory& factory,
                                  const std::vector<AnalysisCard>& analyses,
                                  const CampaignOptions& options) {
    if (!factory) {
        throw AnalysisError("run_sweep_campaign: null circuit factory");
    }
    const MetricSchema schema = make_schema(factory(), analyses);

    CampaignResult result;
    for (const auto& axis : plan.axes()) {
        result.param_names.push_back(axis.label());
    }
    result.metric_names = schema.names;
    result.rows.resize(plan.size());

    ThreadPool pool(options.policy.resolved());
    parallel_for(pool, plan.size(), [&](std::size_t index) {
        CampaignRow row;
        row.index = index;
        row.params = plan.point(index);
        try {
            Circuit circuit = factory();
            for (std::size_t a = 0; a < plan.axes().size(); ++a) {
                set_device_param(circuit, plan.axes()[a].device,
                                 plan.axes()[a].param, row.params[a]);
            }
            row.metrics = evaluate_point(std::move(circuit), schema);
            row.ok = true;
        } catch (const SimError& e) {
            row.ok = false;
            row.error = e.what();
            row.metrics.assign(schema.names.size(),
                               std::numeric_limits<double>::quiet_NaN());
        }
        result.rows[index] = std::move(row); // distinct slots: no race
    });
    return result;
}

} // namespace nanosim::runtime
