#include "engines/dc_nr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "engines/dc_sweep.hpp"
#include "engines/options_common.hpp"
#include "linalg/vecops.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"
#include "util/log.hpp"

namespace nanosim::engines {

DcResult solve_op_nr(const mna::MnaAssembler& assembler,
                     const NrOptions& options, double t,
                     double source_scale) {
    constexpr const char* who = "solve_op_nr";
    require_at_least(who, "max_iterations", options.max_iterations, 1);
    require_positive(who, "abstol", options.abstol);
    require_non_negative(who, "reltol", options.reltol);
    require_non_negative(who, "gmin", options.gmin);
    require_in_unit(who, "damping", options.damping);
    const FlopScope scope;
    const auto n = static_cast<std::size_t>(assembler.unknowns());
    DcResult result;
    result.x.assign(n, 0.0);
    if (!options.initial_guess.empty()) {
        if (options.initial_guess.size() != n) {
            throw AnalysisError("solve_op_nr: initial guess size mismatch");
        }
        result.x = options.initial_guess;
    }
    if (options.record_trace) {
        result.trace.push_back(result.x);
    }

    linalg::Vector prev2; // iterate two steps back, for cycle detection
    for (int it = 0; it < options.max_iterations; ++it) {
        linalg::Triplets g = assembler.static_g();
        assembler.add_time_varying_stamps(t, g);
        linalg::Vector rhs = assembler.rhs(t);
        if (source_scale != 1.0) {
            for (double& v : rhs) {
                v *= source_scale;
            }
        }
        assembler.add_nr_stamps(result.x, g, rhs);
        if (options.gmin > 0.0) {
            for (int k = 0; k < assembler.num_nodes(); ++k) {
                g.add(static_cast<std::size_t>(k),
                      static_cast<std::size_t>(k), options.gmin);
            }
        }

        linalg::Vector x_new;
        bool solved = false;
        try {
            if (failpoints::enabled()) {
                static auto& fp = failpoints::site("dc.singular");
                if (fp.fire()) {
                    throw SingularMatrixError("fail-point dc.singular fired");
                }
            }
            x_new = mna::solve_system(g, rhs);
            solved = true;
        } catch (const SingularMatrixError&) {
            // gmin rescue: retry with an escalating diagonal
            // regularisation — a structurally singular operating point
            // (floating node) solves at a tiny leak, and a diagnosed
            // AnalysisError replaces the raw pivot failure otherwise.
            for (const double gmin : {1e-9, 1e-6, 1e-3}) {
                linalg::Triplets g2 = g;
                for (int k = 0; k < assembler.num_nodes(); ++k) {
                    g2.add(static_cast<std::size_t>(k),
                           static_cast<std::size_t>(k), gmin);
                }
                try {
                    x_new = mna::solve_system(g2, rhs);
                    solved = true;
                    break;
                } catch (const SingularMatrixError&) {
                }
            }
            if (!solved) {
                throw AnalysisError(
                    "solve_op_nr: singular system at iteration " +
                    std::to_string(it) + "; gmin rescue exhausted");
            }
        }
        if (options.damping < 1.0) {
            for (std::size_t i = 0; i < n; ++i) {
                x_new[i] = result.x[i] +
                           options.damping * (x_new[i] - result.x[i]);
            }
        }

        // A NaN/Inf iterate (poisoned RHS, overflowed companion model)
        // must read as divergence — max_abs_diff's max() quietly drops
        // NaN operands, so an unchecked iterate could "converge" on
        // garbage.
        if (!linalg::all_finite(x_new)) {
            result.x = std::move(x_new);
            result.iterations = it + 1;
            result.residual = std::numeric_limits<double>::infinity();
            break; // converged stays false: diagnosed non-convergence
        }

        const double delta = linalg::max_abs_diff(x_new, result.x);
        const double scale = std::max(linalg::norm_inf(x_new), 1.0);
        result.iterations = it + 1;
        result.residual = delta;

        // Cycle (period-2 oscillation) detection: the NDR signature of
        // paper Fig. 2 — iterates bounce between two distant points.
        if (!prev2.empty()) {
            const double back = linalg::max_abs_diff(x_new, prev2);
            if (back < options.abstol + options.reltol * scale &&
                delta > 100.0 * (options.abstol + options.reltol * scale)) {
                result.oscillation_detected = true;
            }
        }
        prev2 = result.x;
        result.x = std::move(x_new);
        if (options.record_trace) {
            result.trace.push_back(result.x);
        }

        if (delta < options.abstol + options.reltol * scale) {
            result.converged = true;
            break;
        }
        if (result.oscillation_detected) {
            break; // further iterations just repeat the cycle
        }
    }
    result.flops = scope.counter();
    return result;
}

DcResult solve_op_source_stepping(const mna::MnaAssembler& assembler,
                                  const SourceSteppingOptions& options) {
    const FlopScope scope;
    NrOptions nr = options.nr;
    nr.record_trace = false;
    DcResult start;
    start.x.assign(static_cast<std::size_t>(assembler.unknowns()), 0.0);
    DcResult result = source_ramp(
        [&](double lambda, const linalg::Vector& warm) {
            nr.initial_guess = warm;
            return solve_op_nr(assembler, nr, 0.0, lambda);
        },
        std::move(start), options.initial_steps, options.max_halvings);
    result.flops = scope.counter();
    return result;
}

DcResult source_ramp(const RampRung& rung, DcResult fallback,
                     int initial_steps, int max_halvings) {
    DcResult last = std::move(fallback);
    linalg::Vector warm(last.x.size(), 0.0);
    int total_iterations = last.iterations;
    double lambda = 0.0;
    double dlambda = 1.0 / std::max(initial_steps, 1);
    int halvings = 0;
    while (lambda < 1.0) {
        const double target = std::min(1.0, lambda + dlambda);
        DcResult step = rung(target, warm);
        total_iterations += step.iterations;
        if (step.converged) {
            lambda = target;
            warm = step.x;
            last = std::move(step);
            // Gentle ramp acceleration after a success.
            dlambda = std::min(dlambda * 1.5, 1.0 - lambda + 1e-12);
        } else {
            dlambda /= 2.0;
            if (++halvings > max_halvings) {
                last.converged = false;
                break;
            }
        }
    }
    last.iterations = total_iterations;
    return last;
}

SweepResult dc_sweep_nr(Circuit& circuit,
                        const mna::MnaAssembler& assembler,
                        const std::string& source_name,
                        const linalg::Vector& values,
                        const NrOptions& options,
                        const AnalysisObserver* observer) {
    NrOptions nr = options;
    auto solve_point = [&](const linalg::Vector& previous) {
        if (!previous.empty()) {
            nr.initial_guess = previous; // warm start from the last point
        }
        return solve_op_nr(assembler, nr);
    };
    return dc_sweep(circuit, source_name, values, observer, solve_point);
}

SweepResult dc_sweep_nr(Circuit& circuit, const std::string& source_name,
                        const linalg::Vector& values,
                        const NrOptions& options,
                        const AnalysisObserver* observer) {
    const mna::MnaAssembler assembler(circuit);
    return dc_sweep_nr(circuit, assembler, source_name, values, options,
                       observer);
}

} // namespace nanosim::engines
