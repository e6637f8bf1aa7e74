#include "engines/dc_mla.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "engines/dc_nr.hpp"
#include "engines/dc_sweep.hpp"
#include "engines/options_common.hpp"
#include "linalg/vecops.hpp"

namespace nanosim::engines {

namespace {

/// Largest per-device terminal-voltage change implied by an update, over
/// the nonlinear devices (the quantities MLA limits).
double max_device_voltage_move(const mna::MnaAssembler& assembler,
                               const linalg::Vector& x_old,
                               const linalg::Vector& x_new) {
    const NodeVoltages vo = assembler.view(x_old);
    const NodeVoltages vn = assembler.view(x_new);
    double worst = 0.0;
    for (const Device* dev : assembler.nonlinear_devices()) {
        const auto terms = dev->terminals();
        for (std::size_t a = 0; a + 1 < terms.size(); ++a) {
            for (std::size_t b = a + 1; b < terms.size(); ++b) {
                const double before = vo(terms[a]) - vo(terms[b]);
                const double after = vn(terms[a]) - vn(terms[b]);
                worst = std::max(worst, std::abs(after - before));
            }
        }
    }
    return worst;
}

/// Limited-NR inner loop: plain NR, but each update is scaled so that no
/// nonlinear device's branch voltage moves more than v_limit.
DcResult limited_nr(const mna::MnaAssembler& assembler,
                    const MlaOptions& options, double t,
                    double source_scale,
                    const linalg::Vector& initial) {
    const auto n = static_cast<std::size_t>(assembler.unknowns());
    DcResult result;
    result.x = initial.empty() ? linalg::Vector(n, 0.0) : initial;

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
        linalg::Vector x_new = mna::solve_system(g, rhs);

        // Device-voltage limiting.
        const double move =
            max_device_voltage_move(assembler, result.x, x_new);
        if (move > options.v_limit) {
            const double scale = options.v_limit / move;
            for (std::size_t i = 0; i < n; ++i) {
                x_new[i] = result.x[i] + scale * (x_new[i] - result.x[i]);
            }
        }

        const double delta = linalg::max_abs_diff(x_new, result.x);
        const double scale = std::max(linalg::norm_inf(x_new), 1.0);
        result.x = std::move(x_new);
        result.iterations = it + 1;
        result.residual = delta;
        if (delta < options.abstol + options.reltol * scale) {
            result.converged = true;
            break;
        }
    }
    return result;
}

} // namespace

DcResult solve_op_mla(const mna::MnaAssembler& assembler,
                      const MlaOptions& options, double t,
                      double source_scale) {
    constexpr const char* who = "solve_op_mla";
    require_at_least(who, "max_iterations", options.max_iterations, 1);
    require_positive(who, "abstol", options.abstol);
    require_non_negative(who, "reltol", options.reltol);
    require_positive(who, "v_limit", options.v_limit);
    require_at_least(who, "ramp_initial_steps", options.ramp_initial_steps, 1);
    require_at_least(who, "ramp_max_halvings", options.ramp_max_halvings, 0);
    const FlopScope scope;
    // Phase 1: voltage-limited NR from the supplied guess.
    DcResult result =
        limited_nr(assembler, options, t, source_scale,
                   options.initial_guess);
    if (result.converged) {
        result.flops = scope.counter();
        return result;
    }

    // Phase 2: source stepping with automatic ramp-step reduction.
    result = source_ramp(
        [&](double lambda, const linalg::Vector& warm) {
            return limited_nr(assembler, options, t, source_scale * lambda,
                              warm);
        },
        std::move(result), options.ramp_initial_steps,
        options.ramp_max_halvings);
    result.flops = scope.counter();
    return result;
}

SweepResult dc_sweep_mla(Circuit& circuit,
                         const mna::MnaAssembler& assembler,
                         const std::string& source_name,
                         const linalg::Vector& values,
                         const MlaOptions& options,
                         const AnalysisObserver* observer) {
    MlaOptions opt = options;
    auto solve_point = [&](const linalg::Vector& previous) {
        if (!previous.empty()) {
            opt.initial_guess = previous; // warm start from the last point
        }
        return solve_op_mla(assembler, opt);
    };
    return dc_sweep(circuit, source_name, values, observer, solve_point);
}

SweepResult dc_sweep_mla(Circuit& circuit, const std::string& source_name,
                         const linalg::Vector& values,
                         const MlaOptions& options,
                         const AnalysisObserver* observer) {
    const mna::MnaAssembler assembler(circuit);
    return dc_sweep_mla(circuit, assembler, source_name, values, options,
                        observer);
}

} // namespace nanosim::engines
