#include "obs/report.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "obs/metrics.hpp" // json_escape

namespace nanosim::obs {

namespace {

/// "  label: value" line for pretty(); seconds rendered in ms.
void time_line(std::ostream& os, const char* label, double seconds) {
    os << "  " << std::left << std::setw(22) << label << std::right
       << std::fixed << std::setprecision(3) << seconds * 1e3 << " ms\n";
    os.unsetf(std::ios::fixed);
    os << std::setprecision(6);
}

void count_line(std::ostream& os, const char* label, std::uint64_t v) {
    os << "  " << std::left << std::setw(22) << label << std::right << v
       << '\n';
}

// to_json: one writer per member type, then the field-table walk.
void append_json(std::ostream& os, const std::string& s) {
    os << '"' << json_escape(s) << '"';
}
void append_json(std::ostream& os, bool v) { os << (v ? "true" : "false"); }
void append_json(std::ostream& os, std::uint64_t v) { os << v; }

/// 17 significant digits (exact round trip); non-finite values are null.
void append_json(std::ostream& os, double v) {
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << v;
    os << tmp.str();
}

template <HasFields S>
void append_json(std::ostream& os, const S& s) {
    os << '{';
    const char* sep = "";
    for_each_field<S>([&](const auto& field) {
        os << sep << '"' << field.key << "\":";
        append_json(os, s.*field.member);
        sep = ",";
    });
    os << '}';
}

} // namespace

std::string RunReport::to_json() const {
    std::ostringstream os;
    append_json(os, *this);
    return os.str();
}

std::string RunReport::pretty() const {
    std::ostringstream os;
    os << "run report: " << analysis << " [" << kind << " / " << engine
       << "]" << (aborted ? "  (ABORTED)" : "") << '\n';
    os << "  " << std::left << std::setw(22) << "elapsed" << std::right
       << std::fixed << std::setprecision(3) << elapsed_s * 1e3
       << " ms\n";
    os.unsetf(std::ios::fixed);
    os << std::setprecision(6);

    if (steps_accepted > 0 || steps_rejected > 0) {
        os << "step control:\n";
        count_line(os, "steps accepted", steps_accepted);
        count_line(os, "steps rejected", steps_rejected);
        if (nr_iterations > 0) {
            count_line(os, "NR iterations", nr_iterations);
        }
        if (nonconverged_steps > 0) {
            count_line(os, "non-converged steps", nonconverged_steps);
        }
        if (min_dt > 0.0) {
            os << "  " << std::left << std::setw(22) << "dt range"
               << std::right << std::scientific << std::setprecision(3)
               << min_dt << " .. " << max_dt << " s\n";
            os.unsetf(std::ios::scientific);
            os << std::setprecision(6);
        }
        if (bounds.total() > 0) {
            os << "step bound winners:\n";
            const auto line = [&os](const char* label, std::uint64_t v) {
                if (v > 0) {
                    count_line(os, label, v);
                }
            };
            line("device error bound", bounds.device);
            line("node voltage bound", bounds.node);
            line("growth limit", bounds.growth);
            line("dt_max ceiling", bounds.dt_max);
            line("dt_min floor", bounds.dt_min);
            line("breakpoint clip", bounds.breakpoint);
            line("horizon clip", bounds.horizon);
            line("fixed step", bounds.fixed);
        }
    }
    if (rescues.total_attempted() > 0) {
        os << "rescue ladder:\n";
        const auto rung = [&os](const char* label, std::uint64_t attempted,
                                std::uint64_t succeeded) {
            if (attempted > 0) {
                os << "  " << std::left << std::setw(22) << label
                   << std::right << succeeded << " / " << attempted
                   << " succeeded\n";
            }
        };
        rung("dt backoff", rescues.dt_backoff_attempted,
             rescues.dt_backoff_succeeded);
        rung("gmin stepping", rescues.gmin_attempted,
             rescues.gmin_succeeded);
        rung("source stepping", rescues.source_attempted,
             rescues.source_succeeded);
    }
    if (failed_trials > 0) {
        count_line(os, "quarantined trials", failed_trials);
    }
    if (trials > 0) {
        count_line(os, "trials", trials);
    }

    os << "solver cache:\n";
    count_line(os, "full factors", full_factors);
    count_line(os, "fast refactors", fast_refactors);
    count_line(os, "refactors skipped", refactors_skipped);
    count_line(os, "dense solves", dense_solves);
    if (refactors_skipped > 0 || refine_sweeps > 0) {
        count_line(os, "refine sweeps", refine_sweeps);
        os << "  " << std::left << std::setw(22) << "max backward error"
           << std::right << std::scientific << std::setprecision(2)
           << max_backward_error << '\n';
        os.unsetf(std::ios::scientific);
        os << std::setprecision(6);
    }
    if (pivot_fallbacks > 0) {
        count_line(os, "pivot fallbacks", pivot_fallbacks);
    }
    if (pattern_rebuilds > 0) {
        count_line(os, "pattern rebuilds", pattern_rebuilds);
    }
    if (tables_built > 0) {
        count_line(os, "chord tables built", tables_built);
    }
    os << "  " << std::left << std::setw(22) << "cache signature"
       << std::right << std::hex << std::showbase << cache_signature
       << std::dec << std::noshowbase << '\n';

    os << "time split:\n";
    time_line(os, "analyze", analyze_s);
    time_line(os, "eval", eval_s);
    time_line(os, "stamp", stamp_s);
    time_line(os, "factor", factor_s);
    time_line(os, "solve", solve_s);

    if (pool_tasks > 0) {
        os << "thread pool:\n";
        count_line(os, "tasks", pool_tasks);
        time_line(os, "queue wait (sum)", pool_queue_wait_s);
    }
    return os.str();
}

} // namespace nanosim::obs
