#include "engines/tran_nr.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "engines/dc_nr.hpp"
#include "engines/options_common.hpp"
#include "engines/step_control.hpp"
#include "linalg/vecops.hpp"
#include "mna/system_cache.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"

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

/// One NR solve of a companion system: the last iterate, whether it
/// converged, and the iterations it took.
struct StepSolve {
    linalg::Vector x;
    bool converged = false;
    int iterations = 0;
};

/// The Newton half of the accepted-step loop: a companion solve per
/// trial, checked against a forward-Euler predictor; the rescue ladder
/// and the SPICE3-style accept-or-throw when the retries run out.
class NrEngine final : public StepEngine {
public:
    NrEngine(const mna::MnaAssembler& assembler, const NrTranOptions& options,
             mna::SystemCache& cache, TranResult& result)
        : assembler_(&assembler), cache_(&cache), options_(&options),
          result_(&result) {
        const auto n = static_cast<std::size_t>(assembler.unknowns());
        if (!options.initial.empty()) {
            if (options.initial.size() != n) {
                throw AnalysisError("run_tran_nr: initial size mismatch");
            }
            x_ = options.initial;
        } else if (options.start_from_dc) {
            NrOptions dc;
            dc.gmin = 1e-12;
            DcResult op = solve_op_nr(assembler, dc);
            if (!op.converged) {
                op = solve_op_source_stepping(assembler);
            }
            // A failed DC op is itself a finding on NDR circuits; start
            // from the best iterate, as SPICE does after GMIN stepping
            // gives up.
            x_ = std::move(op.x);
        } else {
            x_.assign(n, 0.0);
        }
        cache.start_run();
        x_older_ = x_; // for the forward-Euler predictor
        h_ = options.dt_init;
        noise_ = options.noise.empty() ? nullptr : &options.noise;

        // Per-step NR-iteration distribution (metrics on only).
        if (obs::metrics_enabled()) {
            static obs::Histogram& ih = obs::metrics().histogram(
                "nr.iterations", obs::iteration_buckets());
            it_hist_ = &ih;
        }
    }

    /// The last accepted step, grown x1.5 after an easy point.
    [[nodiscard]] Proposal propose(double /*t*/) override {
        // Gated until two steps have been accepted: before that x_older
        // is the (possibly inconsistent) initial state and extrapolating
        // from it manufactures phantom LTE failures.
        predictor_valid_ = h_prev_ > 0.0 && result_->steps_accepted >= 2;
        // One rescue episode per time point: dt-backoff is attempted the
        // first time a solve DIVERGES (LTE-only halvings are ordinary
        // step control, not rescues) and succeeds when a shrunken step
        // converges.
        convergence_failed_ = false;
        return {h_, h_ >= options_->dt_max ? &obs::StepBoundCounts::dt_max
                                           : &obs::StepBoundCounts::growth};
    }

    [[nodiscard]] bool trial(double t, double& h) override {
        // Forward-Euler predictor from the last two accepted points.
        x_pred_ = x_;
        if (predictor_valid_) {
            for (std::size_t i = 0; i < x_.size(); ++i) {
                x_pred_[i] += (x_[i] - x_older_[i]) * (h / h_prev_);
            }
        }
        step_ = solve_companion(x_pred_, t + h, h);
        result_->nr_iterations += step_.iterations;

        const bool lte_ok =
            !predictor_valid_ ||
            linalg::max_abs_diff(step_.x, x_pred_) <=
                options_->lte_tol * std::max(1.0, linalg::norm_inf(step_.x));
        if (!step_.converged && !convergence_failed_) {
            convergence_failed_ = true;
            ++result_->rescues.dt_backoff_attempted;
        }
        if (step_.converged && lte_ok) {
            if (convergence_failed_) {
                ++result_->rescues.dt_backoff_succeeded;
            }
            return true;
        }
        return false;
    }

    /// dt-backoff is out of road; for a genuine divergence (not an LTE
    /// miss) escalate the rescue ladder (gmin stepping, then source
    /// stepping) before the SPICE3-style accept-or-throw fallback.
    void out_of_road(double t, double h) override {
        if (!step_.converged && rescue(t + h, h)) {
            return;
        }
        // SPICE3 behaviour: accept and march on — but only a *finite*
        // iterate.  A NaN/Inf state (poisoned stimulus, overflowed device
        // evaluation) corrupts every later companion-history term, so it
        // is diagnosed instead of propagated.
        const bool finite_iterate = linalg::all_finite(step_.x);
        if (options_->accept_nonconverged && finite_iterate) {
            ++result_->nonconverged_steps;
            return;
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
            step_.iterations, 0.0);
    }

    void accept(double /*t*/, double h, bool /*corner*/) override {
        x_older_ = x_;
        x_ = std::move(step_.x);
        h_prev_ = h;
        if (it_hist_ != nullptr) {
            it_hist_->observe(static_cast<double>(step_.iterations));
        }
        // Grow the step after an easy point.
        h_ = step_.iterations <= options_->max_nr_iterations / 4
                 ? std::min(h * 1.5, options_->dt_max)
                 : h;
    }

private:
    /// Newton on the companion system of the step of size h from x_ to
    /// t_next, starting at `x_guess`.  `gmin` > 0 regularizes every node
    /// diagonal (the gmin-stepping rescue rung); `source_scale` < 1
    /// scales the independent sources b(t) only — the (C/h) x_n history
    /// term stays exact (source-stepping rung).  `allow_inject` lets the
    /// nr.divergence fail point force a non-converged return; rescue-rung
    /// solves pass false so an armed site cannot sabotage its own rescue.
    StepSolve solve_companion(const linalg::Vector& x_guess, double t_next,
                              double h, double gmin = 0.0,
                              double source_scale = 1.0,
                              bool allow_inject = true) {
        const auto nn = static_cast<std::size_t>(assembler_->num_nodes());
        const NrTranOptions& options = *options_;
        mna::SystemCache& cache = *cache_;
        StepSolve out;
        out.x = x_guess;

        if (allow_inject && failpoints::enabled()) {
            static auto& fp = failpoints::site("nr.divergence");
            if (fp.fire()) {
                return out; // injected: report divergence without solving
            }
        }

        // Constant part of the rhs for this step: scale*b(t) + (C/h) x_n.
        linalg::Vector rhs_const = cache.rhs(t_next, noise_);
        if (source_scale != 1.0) {
            for (double& b : rhs_const) {
                b *= source_scale;
            }
        }
        cache.add_history(x_, h, rhs_const);

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

    /// Rescue rungs past dt-backoff: gmin stepping (solve with a
    /// ramped-down diagonal regularization) and then source stepping
    /// (ramp the independent sources up to full strength), each stage
    /// warm-started from the previous one.  Returns true with the
    /// converged full-strength solve in step_; counts attempts/successes
    /// and NR iterations into the result.
    bool rescue(double t_next, double h) {
        TranResult& result = *result_;
        // One continuation: succeeds when every stage converges.
        const auto continuation = [&](linalg::Vector guess,
                                      std::initializer_list<double> stages,
                                      const auto& solve_stage) {
            StepSolve stage;
            for (const double s : stages) {
                stage = solve_stage(guess, s);
                result.nr_iterations += stage.iterations;
                if (!stage.converged) {
                    return false;
                }
                guess = stage.x;
            }
            step_ = std::move(stage);
            return true;
        };
        // Rung 2 — gmin stepping: 1e-3 S shunts make almost any Jacobian
        // diagonally dominant; each decade reuses the previous solution
        // as its guess until the regularization is gone entirely.
        ++result.rescues.gmin_attempted;
        if (continuation(x_pred_, {1e-3, 1e-6, 1e-9, 0.0},
                         [&](const linalg::Vector& guess, double gmin) {
                             try {
                                 return solve_companion(guess, t_next, h,
                                                        gmin, 1.0, false);
                             } catch (const SingularMatrixError&) {
                                 return StepSolve{};
                             }
                         })) {
            ++result.rescues.gmin_succeeded;
            return true;
        }
        // Rung 3 — source stepping: ramp b(t) from quarter strength to
        // full, the classic SPICE continuation for steps the Newton basin
        // cannot reach directly.
        ++result.rescues.source_attempted;
        if (continuation(x_, {0.25, 0.5, 0.75, 1.0},
                         [&](const linalg::Vector& guess, double alpha) {
                             return solve_companion(guess, t_next, h, 0.0,
                                                    alpha, false);
                         })) {
            ++result.rescues.source_succeeded;
            return true;
        }
        return false;
    }

    const mna::MnaAssembler* assembler_;
    mna::SystemCache* cache_;
    const NrTranOptions* options_;
    TranResult* result_;
    const mna::MnaAssembler::NoiseRealization* noise_ = nullptr;
    obs::Histogram* it_hist_ = nullptr;

    linalg::Vector x_older_;
    linalg::Vector x_pred_;
    StepSolve step_;
    double h_ = 0.0;
    double h_prev_ = 0.0;
    bool predictor_valid_ = false;
    bool convergence_failed_ = false;
};

} // namespace

TranResult run_tran_nr(const mna::MnaAssembler& assembler,
                       const NrTranOptions& options_in,
                       const AnalysisObserver* observer,
                       mna::SystemCache* cache) {
    const NrTranOptions options = resolve(options_in);
    return run_transient<NrEngine>(
        assembler, options,
        {options.t_stop, options.dt_min, options.dt_max, options.max_halvings,
         /*floor_to_dt_min=*/true, "run_tran_nr"},
        observer, cache);
}

} // namespace nanosim::engines
