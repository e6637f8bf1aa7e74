#include "engines/dc_swec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "engines/dc_sweep.hpp"
#include "engines/options_common.hpp"
#include "linalg/vecops.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace nanosim::engines {

namespace {

void validate(const SwecDcOptions& o) {
    constexpr const char* who = "solve_op_swec";
    require_positive(who, "c_pseudo", o.c_pseudo);
    require_positive(who, "dt_init", o.dt_init);
    require_at_least(who, "dt_max", o.dt_max, o.dt_init);
    require_at_least(who, "growth", o.growth, 1.0);
    require_positive(who, "settle_tol", o.settle_tol);
    require_at_least(who, "settle_checks", o.settle_checks, 1);
    require_at_least(who, "max_steps", o.max_steps, 1);
}

} // namespace

DcResult solve_op_swec(const mna::MnaAssembler& assembler,
                       const SwecDcOptions& options, double t,
                       double source_scale, mna::SystemCache* cache,
                       const AnalysisObserver* observer) {
    validate(options);
    const FlopScope scope;
    const auto n = static_cast<std::size_t>(assembler.unknowns());
    const auto& nonlinear = assembler.nonlinear_devices();

    std::optional<mna::SystemCache> local_cache;
    if (cache == nullptr) {
        local_cache.emplace(assembler);
        cache = &*local_cache;
    }
    cache->start_run();
    cache->configure_tables(TableConfig{.enabled = false});

    DcResult result;
    result.x = options.initial_guess.empty()
                   ? linalg::Vector(n, 0.0)
                   : options.initial_guess;
    if (result.x.size() != n) {
        throw AnalysisError("solve_op_swec: initial guess size mismatch");
    }

    linalg::Vector rhs0 = cache->rhs(t);
    if (source_scale != 1.0) {
        for (double& v : rhs0) {
            v *= source_scale;
        }
    }

    std::vector<double> geq(nonlinear.size(), 0.0);
    double h = options.dt_init;
    int settled = 0;

    for (int step = 0; step < options.max_steps; ++step) {
        // Cooperative cancellation at pseudo-step granularity: the last
        // iterate is returned unconverged with `aborted` set.
        if (observer != nullptr && observer->cancelled()) {
            result.aborted = true;
            break;
        }
        const obs::Span step_span("step", "engine");
        // Chord conductances at the current state — the SWEC step needs
        // no prediction here because the march only has to *end* right.
        cache->eval_chords(result.x, {}, false, geq, {});
        for (std::size_t k = 0; k < nonlinear.size(); ++k) {
            geq[k] = std::max(geq[k], 0.0);
        }

        // (G_swec + C_pt/h) x_next = C_pt/h x + b  — backward Euler with
        // the artificial node capacitance C_pt on every node, restamped
        // in place through the cached system (node-diagonal slots
        // precomputed — no per-node slot search).
        linalg::Vector rhs = rhs0;
        cache->begin(0.0, rhs);
        cache->restamp_time_varying(t);
        cache->restamp_swec(geq);
        const double cg = options.c_pseudo / h;
        for (int node = 0; node < assembler.num_nodes(); ++node) {
            const auto r = static_cast<std::size_t>(node);
            cache->add_node_diag(r, cg);
            rhs[r] += cg * result.x[r];
        }

        linalg::Vector x_next = cache->solve(rhs);
        const double delta = linalg::max_abs_diff(x_next, result.x);
        result.x = std::move(x_next);
        result.iterations = step + 1;
        result.residual = delta;

        // A non-finite iterate cannot settle and cannot recover — the
        // pseudo-transient history term re-injects it forever.  Stop the
        // march immediately as diagnosed non-convergence.
        if (!std::isfinite(delta)) {
            result.residual = std::numeric_limits<double>::infinity();
            break;
        }

        if (delta < options.settle_tol) {
            if (++settled >= options.settle_checks) {
                result.converged = true;
                break;
            }
        } else {
            settled = 0;
        }
        h = std::min(h * options.growth, options.dt_max);
    }
    result.flops = scope.counter();
    return result;
}

SweepResult dc_sweep_swec(Circuit& circuit,
                          const mna::MnaAssembler& assembler,
                          const std::string& source_name,
                          const linalg::Vector& values,
                          const SwecDcOptions& options,
                          const AnalysisObserver* observer,
                          mna::SystemCache* cache) {
    // One cache for the whole sweep, built at the first point inside the
    // sweep's flop tally: the symbolic analysis is paid for exactly once,
    // or zero times when the caller shares an already-frozen one.
    std::optional<mna::SystemCache> local_cache;
    SwecDcOptions opt = options;
    auto solve_point = [&](const linalg::Vector& previous) {
        if (cache == nullptr) {
            cache = &local_cache.emplace(assembler);
        }
        if (!previous.empty()) {
            // A warm-started continuation settles fast; start the march
            // with a larger pseudo-step (clamped so the options stay valid).
            opt.initial_guess = previous;
            opt.dt_init = std::min(options.dt_init * 10.0, opt.dt_max);
        }
        return solve_op_swec(assembler, opt, 0.0, 1.0, cache);
    };
    return dc_sweep(circuit, source_name, values, observer, solve_point);
}

SweepResult dc_sweep_swec(Circuit& circuit, const std::string& source_name,
                          const linalg::Vector& values,
                          const SwecDcOptions& options,
                          const AnalysisObserver* observer) {
    // The assembler only caches structure (the swept DC level lives in
    // the source waveform, read per rhs evaluation), so building it once
    // up front is safe for the whole sweep.
    const mna::MnaAssembler assembler(circuit);
    return dc_sweep_swec(circuit, assembler, source_name, values, options,
                         observer, nullptr);
}

} // namespace nanosim::engines
