#include "engines/tran_nr.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "engines/dc_nr.hpp"
#include "engines/options_common.hpp"
#include "engines/step_control.hpp"
#include "linalg/vecops.hpp"
#include "mna/system_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"
#include "util/log.hpp"

namespace nanosim::engines {

namespace {

NrTranOptions resolve(const NrTranOptions& in) {
    constexpr const char* who = "run_tran_nr";
    NrTranOptions o = in;
    const StepLimits s =
        resolve_step_limits(who, o.t_stop, o.dt_init, o.dt_min, o.dt_max);
    o.dt_init = s.dt_init;
    o.dt_min = s.dt_min;
    o.dt_max = s.dt_max;
    require_at_least(who, "max_nr_iterations", o.max_nr_iterations, 1);
    require_positive(who, "abstol", o.abstol);
    require_non_negative(who, "reltol", o.reltol);
    require_positive(who, "lte_tol", o.lte_tol);
    require_at_least(who, "max_halvings", o.max_halvings, 0);
    return o;
}

/// One NR solve of the companion system at time t with step h.
/// Returns {x, converged, iterations}.
struct StepSolve {
    linalg::Vector x;
    bool converged = false;
    int iterations = 0;
};

/// `gmin` > 0 regularizes every node diagonal (the gmin-stepping rescue
/// rung); `source_scale` < 1 scales the independent sources b(t) only —
/// the (C/h) x_n history term stays exact (source-stepping rung).
/// `allow_inject` lets the nr.divergence fail point force a
/// non-converged return; rescue-rung solves pass false so an armed site
/// cannot sabotage its own rescue.
StepSolve solve_companion(const mna::MnaAssembler& assembler,
                          mna::SystemCache& cache,
                          const NrTranOptions& options,
                          const linalg::Vector& x_n,
                          const linalg::Vector& x_guess, double t_next,
                          double h,
                          const mna::MnaAssembler::NoiseRealization* noise,
                          double gmin = 0.0, double source_scale = 1.0,
                          bool allow_inject = true) {
    const auto n = static_cast<std::size_t>(assembler.unknowns());
    const auto nn = static_cast<std::size_t>(assembler.num_nodes());
    StepSolve out;
    out.x = x_guess;

    if (allow_inject && failpoints::enabled()) {
        static auto& fp = failpoints::site("nr.divergence");
        if (fp.fire()) {
            return out; // injected: report divergence without solving
        }
    }

    // Constant part of the rhs for this step: scale*b(t) + (C/h) x_n.
    linalg::Vector rhs_const = cache.rhs(t_next, noise);
    if (source_scale != 1.0) {
        for (double& b : rhs_const) {
            b *= source_scale;
        }
    }
    {
        linalg::Vector cx = assembler.c_csr().multiply(x_n);
        for (std::size_t i = 0; i < n; ++i) {
            rhs_const[i] += cx[i] / h;
        }
    }

    for (int it = 0; it < options.max_nr_iterations; ++it) {
        linalg::Vector rhs = rhs_const;
        cache.begin(1.0 / h, rhs);
        cache.restamp_time_varying(t_next);
        cache.restamp_nr(out.x);
        if (gmin > 0.0) {
            for (std::size_t row = 0; row < nn; ++row) {
                cache.add_node_diag(static_cast<int>(row), gmin);
            }
        }
        linalg::Vector x_new = cache.solve(rhs);
        const double delta = linalg::max_abs_diff(x_new, out.x);
        const double scale = std::max(linalg::norm_inf(x_new), 1.0);
        out.x = std::move(x_new);
        out.iterations = it + 1;
        if (!std::isfinite(delta)) {
            break; // NaN/Inf iterate: diverged, no further NR can help
        }
        if (delta < options.abstol + options.reltol * scale) {
            out.converged = true;
            break;
        }
    }
    return out;
}

/// Rescue rungs past dt-backoff: gmin stepping (solve with a ramped-down
/// diagonal regularization, warm-starting each stage from the previous
/// one) and then source stepping (ramp the independent sources up to
/// full strength, warm-started the same way).  Returns true with the
/// converged full-strength solve in `*out`; counts attempts/successes
/// and NR iterations into `result`.
bool rescue_step(const mna::MnaAssembler& assembler, mna::SystemCache& cache,
                 const NrTranOptions& options, const linalg::Vector& x_n,
                 const linalg::Vector& x_guess, double t_next, double h,
                 const mna::MnaAssembler::NoiseRealization* noise,
                 TranResult& result, StepSolve* out) {
    // Rung 2 — gmin stepping: 1e-3 S shunts make almost any Jacobian
    // diagonally dominant; each decade reuses the previous solution as
    // its guess until the regularization is gone entirely.
    ++result.rescues.gmin_attempted;
    {
        linalg::Vector guess = x_guess;
        bool ok = true;
        StepSolve stage;
        for (const double gmin : {1e-3, 1e-6, 1e-9, 0.0}) {
            try {
                stage = solve_companion(assembler, cache, options, x_n,
                                        guess, t_next, h, noise, gmin, 1.0,
                                        /*allow_inject=*/false);
            } catch (const SingularMatrixError&) {
                stage = StepSolve{};
            }
            result.nr_iterations += stage.iterations;
            if (!stage.converged) {
                ok = false;
                break;
            }
            guess = stage.x;
        }
        if (ok) {
            ++result.rescues.gmin_succeeded;
            *out = std::move(stage);
            return true;
        }
    }
    // Rung 3 — source stepping: ramp b(t) from quarter strength to full,
    // the classic SPICE continuation for steps the Newton basin cannot
    // reach directly.
    ++result.rescues.source_attempted;
    {
        linalg::Vector guess = x_n;
        bool ok = true;
        StepSolve stage;
        for (const double alpha : {0.25, 0.5, 0.75, 1.0}) {
            stage = solve_companion(assembler, cache, options, x_n, guess,
                                    t_next, h, noise, 0.0, alpha,
                                    /*allow_inject=*/false);
            result.nr_iterations += stage.iterations;
            if (!stage.converged) {
                ok = false;
                break;
            }
            guess = stage.x;
        }
        if (ok) {
            ++result.rescues.source_succeeded;
            *out = std::move(stage);
            return true;
        }
    }
    return false;
}

} // namespace

TranResult run_tran_nr(const mna::MnaAssembler& assembler,
                       const NrTranOptions& options_in,
                       const AnalysisObserver* observer,
                       mna::SystemCache* cache) {
    const NrTranOptions options = resolve(options_in);
    const FlopScope scope;
    const auto n = static_cast<std::size_t>(assembler.unknowns());

    if (options.method == Integration::trapezoidal &&
        (!assembler.nonlinear_devices().empty() ||
         !assembler.time_varying_devices().empty())) {
        throw AnalysisError("run_tran_nr: trapezoidal path supports "
                            "time-invariant linear circuits only");
    }

    // --- Initial condition. ---
    linalg::Vector x;
    if (!options.initial.empty()) {
        if (options.initial.size() != n) {
            throw AnalysisError("run_tran_nr: initial size mismatch");
        }
        x = options.initial;
    } else if (options.start_from_dc) {
        NrOptions dc;
        dc.gmin = 1e-12;
        DcResult op = solve_op_nr(assembler, dc);
        if (!op.converged) {
            op = solve_op_source_stepping(assembler);
        }
        // A failed DC op is itself a finding on NDR circuits; start from
        // the best iterate, as SPICE does after GMIN stepping gives up.
        x = std::move(op.x);
    } else {
        x.assign(n, 0.0);
    }

    TranResult result;
    for (int i = 0; i < assembler.num_nodes(); ++i) {
        result.node_waves.emplace_back(
            "v(" + assembler.circuit().node_name(i + 1) + ")");
    }
    auto record = [&](double t, const linalg::Vector& state) {
        for (int i = 0; i < assembler.num_nodes(); ++i) {
            result.node_waves[static_cast<std::size_t>(i)].append(
                t, state[static_cast<std::size_t>(i)]);
        }
    };

    const std::vector<double> breakpoints =
        assembler.breakpoints(0.0, options.t_stop);
    std::size_t next_bp = 0;

    const mna::MnaAssembler::NoiseRealization* noise =
        options.noise.empty() ? nullptr : &options.noise;

    // Cached per-step system shared by every NR iteration of every step:
    // the companion pattern is fixed, so only values are restamped and the
    // symbolic LU analysis is reused — across whole analyses when the
    // caller shares a SystemCache (SimSession).
    std::optional<mna::SystemCache> local_cache;
    if (cache == nullptr) {
        local_cache.emplace(assembler);
        cache = &*local_cache;
    }
    const mna::SystemCache::Stats stats_before = cache->stats();
    cache->start_run();
    // Static G compressed once for the trapezoidal (linear-only) rhs.
    const linalg::CsrMatrix static_g_csr(assembler.static_g());

    double t = 0.0;
    record(t, x);

    // Per-step NR-iteration distribution (metrics on only).
    obs::Histogram* it_hist = nullptr;
    if (obs::metrics_enabled()) {
        static obs::Histogram& ih = obs::metrics().histogram(
            "nr.iterations", obs::iteration_buckets());
        it_hist = &ih;
    }

    linalg::Vector x_older = x; // for the forward-Euler predictor
    double h = options.dt_init;
    double h_prev = 0.0;
    result.min_dt_used = options.dt_max;
    while (t < options.t_stop) {
        // Cooperative cancellation, polled once per step: the partial
        // waveforms recorded so far are the result.
        if (observer != nullptr && observer->cancelled()) {
            result.aborted = true;
            break;
        }
        const obs::Span step_span("step", "engine");
        // Clip to breakpoints / the horizon — shared landing rules
        // (breakpoint first, sliver merged into the final step, exact
        // t_stop landing); see clip_step_to_events.
        const ClippedStep clip = clip_step_to_events(
            t, h, options.t_stop, options.dt_min, breakpoints, next_bp,
            /*floor_to_dt_min=*/true);
        const bool clip_changed = clip.h != h;
        h = clip.h;
        bool final_step = clip.final_step;

        // Forward-Euler predictor from the last two accepted points.
        // Gated until two steps have been accepted: before that x_older
        // is the (possibly inconsistent) initial state and extrapolating
        // from it manufactures phantom LTE failures.
        const bool predictor_valid =
            h_prev > 0.0 && result.steps_accepted >= 2;
        linalg::Vector x_pred = x;
        if (predictor_valid) {
            for (std::size_t i = 0; i < n; ++i) {
                x_pred[i] += (x[i] - x_older[i]) * (h / h_prev);
            }
        }

        StepSolve step;
        int halvings = 0;
        bool accepted = false;
        // One rescue episode per time point: dt-backoff is attempted the
        // first time a solve DIVERGES (LTE-only halvings are ordinary
        // step control, not rescues) and succeeds when a shrunken step
        // converges.
        bool convergence_failed = false;
        while (true) {
            if (options.method == Integration::backward_euler ||
                !assembler.nonlinear_devices().empty()) {
                step = solve_companion(assembler, *cache, options, x, x_pred,
                                       t + h, h, noise);
            } else {
                // Trapezoidal (linear only):
                // (G + 2C/h) x_{n+1} = b(t_{n+1}) + b(t_n)
                //                      + (2C/h) x_n - G x_n.
                linalg::Vector rhs = cache->rhs(t + h, noise);
                const linalg::Vector rhs_n = cache->rhs(t, noise);
                const linalg::Vector gx = static_g_csr.multiply(x);
                const linalg::Vector cx = assembler.c_csr().multiply(x);
                for (std::size_t i = 0; i < n; ++i) {
                    rhs[i] += rhs_n[i] + 2.0 * cx[i] / h - gx[i];
                }
                (void)cache->begin(2.0 / h, rhs); // no dynamic stamps
                step.x = cache->solve(rhs);
                step.converged = true;
                step.iterations = 1;
            }
            result.nr_iterations += step.iterations;

            const bool lte_ok =
                !predictor_valid ||
                linalg::max_abs_diff(step.x, x_pred) <=
                    options.lte_tol *
                        std::max(1.0, linalg::norm_inf(step.x));

            if (!step.converged && !convergence_failed) {
                convergence_failed = true;
                ++result.rescues.dt_backoff_attempted;
            }
            if (step.converged && lte_ok) {
                if (convergence_failed) {
                    ++result.rescues.dt_backoff_succeeded;
                }
                accepted = true;
                break;
            }
            // A retry is only useful when the step actually shrinks
            // (h/2 clamps to dt_min at the floor — redoing the identical
            // solve is pointless).
            const double h_half = std::max(h / 2.0, options.dt_min);
            if (h_half >= h || halvings >= options.max_halvings) {
                // dt-backoff is out of road; for a genuine divergence
                // (not an LTE miss) escalate the rescue ladder (gmin
                // stepping, then source stepping) before the SPICE3-style
                // accept-or-throw fallback.
                StepSolve rescued;
                if (!step.converged &&
                    rescue_step(assembler, *cache, options, x, x_pred,
                                t + h, h, noise, result, &rescued)) {
                    step = std::move(rescued);
                    accepted = true;
                    break;
                }
                // Out of road.  SPICE3 behaviour: accept and march on —
                // but only a *finite* iterate.  A NaN/Inf state (poisoned
                // stimulus, overflowed device evaluation) corrupts every
                // later companion-history term, so it is diagnosed
                // instead of propagated.
                const bool finite_iterate =
                    std::all_of(step.x.begin(), step.x.end(),
                                [](double v) { return std::isfinite(v); });
                if (options.accept_nonconverged && finite_iterate) {
                    ++result.nonconverged_steps;
                    accepted = true;
                    break;
                }
                throw ConvergenceError(
                    "run_tran_nr: step at t=" + std::to_string(t) +
                        (finite_iterate
                             ? " failed to converge (rescue ladder "
                               "exhausted: dt-backoff, gmin stepping, "
                               "source stepping)"
                             : " produced a non-finite iterate (NaN/Inf "
                               "stimulus or device evaluation); rescue "
                               "ladder exhausted"),
                    step.iterations, 0.0);
            }
            // The halved step lands short of t_stop (h <= t_stop - t on
            // entry and only shrinks here); any remaining sliver closes
            // exactly on t_stop in a later iteration.
            h = h_half;
            final_step = false;
            ++halvings;
            ++result.steps_rejected;
            // Redo the predictor for the reduced step.
            x_pred = x;
            if (predictor_valid) {
                for (std::size_t i = 0; i < n; ++i) {
                    x_pred[i] += (x[i] - x_older[i]) * (h / h_prev);
                }
            }
        }

        if (accepted) {
            x_older = x;
            x = std::move(step.x);
            // Land on t_stop bit-exactly: t + (t_stop - t) may round off.
            t = final_step ? options.t_stop : t + h;
            h_prev = h;
            ++result.steps_accepted;
            // Step-bound attribution: an un-halved clipped step was
            // event-sized; a halved one was shrunk by the LTE/convergence
            // error control (dt_min when it hit the floor); otherwise the
            // growth heuristic (or its dt_max ceiling) proposed it.
            if (clip_changed && halvings == 0) {
                ++(clip.hit_breakpoint ? result.step_bounds.breakpoint
                                       : result.step_bounds.horizon);
            } else if (halvings > 0) {
                ++(h <= options.dt_min ? result.step_bounds.dt_min
                                       : result.step_bounds.device);
            } else {
                ++(h >= options.dt_max ? result.step_bounds.dt_max
                                       : result.step_bounds.growth);
            }
            if (it_hist != nullptr) {
                it_hist->observe(static_cast<double>(step.iterations));
            }
            result.min_dt_used = std::min(result.min_dt_used, h);
            result.max_dt_used = std::max(result.max_dt_used, h);
            record(t, x);
            if (observer != nullptr) {
                observer->step(t, result.steps_accepted);
                observer->sample(t, x.data(), static_cast<int>(x.size()));
                observer->progress(t / options.t_stop);
            }
            // Grow the step after an easy point.
            if (step.iterations <= options.max_nr_iterations / 4) {
                h = std::min(h * 1.5, options.dt_max);
            }
        }
    }

    record_solver_work(result, stats_before, cache->stats());
    result.flops = scope.counter();
    return result;
}

} // namespace nanosim::engines
