// nanosim perfbench — statistics, resource usage and the metric lists.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <sys/resource.h>

#include "bench.hpp"
#include "service/json.hpp"

namespace perfbench {

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               1e-6 * static_cast<double>(t.tv_usec);
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::vector<std::vector<double>> read_csv(const std::string& path,
                                          std::size_t columns) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("perfbench: cannot read reference " + path);
    }
    std::vector<std::vector<double>> cols(columns);
    std::string line;
    bool header_seen = false;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        if (!header_seen) {
            header_seen = true;
            continue;
        }
        std::istringstream row(line);
        for (std::size_t c = 0; c < columns; ++c) {
            std::string cell;
            if (!std::getline(row, cell, ',')) {
                throw std::runtime_error("perfbench: short line in " + path);
            }
            std::size_t used = 0;
            cols[c].push_back(std::stod(cell, &used));
            if (used != cell.size()) {
                throw std::runtime_error("perfbench: bad number in " + path);
            }
        }
    }
    if (cols[0].empty()) {
        throw std::runtime_error("perfbench: empty reference " + path);
    }
    return cols;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
    for (Metric& m : items_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    items_.push_back(Metric{name, value, unit});
}

void Outcome::fail_check(const std::string& what, std::uint64_t ops) {
    std::cerr << "perfbench: check failed: " << what << '\n';
    check_failures.push_back(what);
    failed += ops;
}

void run_for(double seconds, int min_reps, const std::function<void()>& step) {
    const auto t0 = Clock::now();
    for (int reps = 0; reps < min_reps || seconds_since(t0) < seconds; ++reps) {
        step();
    }
}

MetricList read_metric_list(const std::string& benchmark_json,
                             const std::string& list) {
    std::ifstream in(benchmark_json);
    if (!in) {
        throw std::runtime_error("perfbench: cannot read " + benchmark_json);
    }
    std::ostringstream text;
    text << in.rdbuf();
    MetricList out;
    const auto doc = nanosim::service::json::parse(text.str());
    for (const auto& m : doc.at(list).as_array()) {
        out.emplace_back(m.at("name").as_string(), m.at("unit").as_string());
    }
    return out;
}

void conform(Metrics& metrics, const MetricList& list, bool zero_missing) {
    Metrics ordered;
    for (const auto& [name, unit] : list) {
        const auto it =
            std::find_if(metrics.all().begin(), metrics.all().end(),
                         [&](const Metric& m) { return m.name == name; });
        if (it == metrics.all().end() && !zero_missing) {
            throw std::logic_error("perfbench: metric " + name + " not set");
        }
        if (it != metrics.all().end() && it->unit != unit) {
            throw std::logic_error("perfbench: unit of " + name + " is " +
                                   it->unit + ", BENCHMARK.json says " + unit);
        }
        // 0 = layer not exercised by this workload
        ordered.set(name, it == metrics.all().end() ? 0.0 : it->value, unit);
    }
    for (const Metric& m : metrics.all()) {
        if (std::none_of(list.begin(), list.end(),
                         [&](const auto& l) { return l.first == m.name; })) {
            throw std::logic_error("perfbench: metric " + m.name +
                                   " is not in BENCHMARK.json");
        }
    }
    metrics = std::move(ordered);
}

void report_run(const nanosim::obs::RunReport& rep,
                const nanosim::FlopCounter& flops, double per, Metrics& l) {
    const auto count = [&](const char* name, double v) {
        l.set(name, v / per, "count");
    };
    const auto share = [&](double part) {
        return rep.elapsed_s > 0.0 ? part / rep.elapsed_s : 0.0;
    };
    l.set("mna.eval_share", share(rep.eval_s), "ratio");
    l.set("linalg.refactor_share", share(rep.factor_s), "ratio");
    count("linalg.factor_flops", static_cast<double>(flops.lu_factor));
    count("linalg.solve_flops", static_cast<double>(flops.lu_solve));
    count("devices.eval_flops", static_cast<double>(flops.device_eval));
    count("engines.steps", static_cast<double>(rep.steps_accepted));
    count("engines.steps_rejected", static_cast<double>(rep.steps_rejected));
    count("engines.bound.device", static_cast<double>(rep.bounds.device));
    count("engines.bound.node", static_cast<double>(rep.bounds.node));
    count("engines.bound.growth", static_cast<double>(rep.bounds.growth));
    count("engines.bound.dt_max", static_cast<double>(rep.bounds.dt_max));
    count("engines.bound.breakpoint",
          static_cast<double>(rep.bounds.breakpoint));
    count("engines.bound.horizon", static_cast<double>(rep.bounds.horizon));
    count("engines.rescues",
          static_cast<double>(rep.rescues.total_attempted()));
}

void report_probe(const LayerProbe& p, Metrics& layer) {
    layer.set("mna.analyze_s", p.analyze_s, "s");
    layer.set("mna.eval_us", p.eval_us, "us");
    layer.set("mna.stamp_us", p.stamp_us, "us");
    layer.set("mna.pattern_nnz", p.pattern_nnz, "count");
    layer.set("linalg.ordering_s", p.ordering_s, "s");
    layer.set("linalg.refactor_us", p.refactor_us, "us");
    layer.set("linalg.solve_us", p.solve_us, "us");
    layer.set("linalg.factor_nnz", p.factor_nnz, "count");
    layer.set("linalg.refactor_gflops",
              p.refactor_us > 0.0 ? p.refactor_flops / (p.refactor_us * 1e3)
                                  : 0.0,
              "GFLOP/s");
    layer.set("linalg.solve_gflops",
              p.solve_us > 0.0 ? p.solve_flops / (p.solve_us * 1e3) : 0.0,
              "GFLOP/s");
}

} // namespace perfbench
