#include "engines/swec_stepper.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "engines/dc_swec.hpp"
#include "engines/options_common.hpp"
#include "engines/step_control.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"

namespace nanosim::engines {

SwecTranOptions resolve_swec_tran_options(const SwecTranOptions& in) {
    constexpr const char* who = "run_tran_swec";
    SwecTranOptions o = in;
    const StepLimits s =
        resolve_step_limits(who, o.t_stop, o.dt_init, o.dt_min, o.dt_max);
    o.dt_init = s.dt_init;
    o.dt_min = s.dt_min;
    o.dt_max = s.dt_max;
    require_positive(who, "eps", o.eps);
    require_at_least(who, "growth_limit", o.growth_limit, 1.0);
    require_non_negative(who, "geq_floor", o.geq_floor);
    return o;
}

SwecStepper::SwecStepper(const mna::MnaAssembler& assembler,
                         SwecTranOptions options, mna::SystemCache& cache,
                         bool dc_through_cache,
                         std::span<const NodeId> record)
    : assembler_(&assembler), cache_(&cache), options_(std::move(options)),
      n_(static_cast<std::size_t>(assembler.unknowns())),
      nl_(assembler.nonlinear_devices().size()),
      nn_(static_cast<std::size_t>(assembler.num_nodes())),
      recorder_(assembler, record, cache.record_clock()) {
    // --- Initial condition. ---
    if (!options_.initial.empty()) {
        if (options_.initial.size() != n_) {
            throw AnalysisError("run_tran_swec: initial size mismatch");
        }
        x_ = options_.initial;
    } else if (options_.start_from_dc) {
        // Through the shared cache when one was supplied (the DC march
        // restamps the same pattern); self-contained otherwise, matching
        // the historical per-call behaviour.
        x_ = solve_op_swec(assembler, {}, 0.0, 1.0,
                           dc_through_cache ? cache_ : nullptr)
                 .x;
    } else {
        x_.assign(n_, 0.0);
    }

    // Tabulated chord models: bound after the DC solve, which runs the
    // closed forms.
    cache_->configure_tables(options_.tables);
    // The transient starts from an exact factor whether or not the DC
    // march ran through this cache.
    cache_->start_run();

    // --- Breakpoints (source corners) — never step across one. ---
    breakpoints_ = assembler.breakpoints(0.0, options_.t_stop);

    // Static part of the node-diagonal conductance sums, computed once;
    // the per-step diagonal adds the SWEC chords and time-varying
    // devices incrementally (see swec_node_step_bound).
    static_gdiag_.assign(nn_, 0.0);
    for (const auto& e : assembler.static_g().entries()) {
        if (e.row == e.col && e.row < nn_) {
            static_gdiag_[e.row] += e.value;
        }
    }
    // Grounded node capacitances (eq. 12 node bound) — the C diagonal is
    // fixed per assembly, so read it once instead of binary-searching
    // the CSR every step.
    c_node_diag_.assign(nn_, 0.0);
    for (std::size_t r = 0; r < nn_; ++r) {
        c_node_diag_[r] = assembler.c_csr().at(r, r);
    }

    recorder_.record(0.0, x_);

    // Accepted-step-size distribution (metrics on only; registered once,
    // then two relaxed atomics per accepted step).
    if (obs::metrics_enabled()) {
        static obs::Histogram& sh = obs::metrics().histogram(
            "swec.step_size_s", obs::log_buckets(1e-15, 1.0, 2));
        h_hist_ = &sh;
    }

    dvdt_.assign(n_, 0.0); // eq. (9) backward difference
    geq_.assign(nl_, 0.0);
    geq_rate_.assign(nl_, 0.0);
    geq_pred_.assign(nl_, 0.0); // hoisted: no per-step alloc
    h_ = options_.dt_init;
    result_.min_dt_used = options_.dt_max;

    noise_ = options_.noise.empty() ? nullptr : &options_.noise;
}

void SwecStepper::eval() {
    // 1. Chord conductances and their rates at t_n — one compiled
    // per-class evaluation pass (closed forms or tables) instead of a
    // virtual call per device.
    cache_->eval_chords(x_, dvdt_, h_prev_ > 0.0, geq_, geq_rate_);
}

void SwecStepper::prepare() {
    // Which constraint produced the step actually taken (RunReport
    // step-bound attribution); repointed as each clamp below wins.
    bound_src_ = &result_.step_bounds.fixed;

    // 2. Adaptive step (eq. 12) — needs the node-diagonal G sums at
    // t_n: static part cached, nonlinear/time-varying parts added
    // through the cache's compiled diagonal plan.
    if (options_.adaptive) {
        std::vector<double> gdiag = static_gdiag_;
        cache_->swec_gdiag(t_, geq_, gdiag);
        // Eq. (12): device bounds from the chords/rates evaluated in
        // step 1 (no model re-evaluation), node RC bounds from the
        // incremental diagonal.
        const double device_bound = cache_->device_step_bound(
            x_, dvdt_, geq_, geq_rate_, options_.eps);
        const double node_bound = swec_node_step_bound(
            c_node_diag_, gdiag, dvdt_, options_.eps);
        bound_src_ = device_bound <= node_bound
                         ? &result_.step_bounds.device
                         : &result_.step_bounds.node;
        h_ = std::min(device_bound, node_bound);
        if (options_.dt_max < h_) {
            h_ = options_.dt_max;
            bound_src_ = &result_.step_bounds.dt_max;
        }
        if (h_prev_ > 0.0 && options_.growth_limit * h_prev_ < h_) {
            h_ = options_.growth_limit * h_prev_;
            bound_src_ = &result_.step_bounds.growth;
        }
        if (h_ < options_.dt_min) {
            h_ = options_.dt_min;
            bound_src_ = &result_.step_bounds.dt_min;
        }
    } else {
        h_ = options_.dt_init;
    }
    // Land exactly on breakpoints and on t_stop; any trailing sliver
    // shorter than dt_min is merged into the final step (a ~1e-21 s
    // step would make (G + C/h) ill-scaled for no informational gain),
    // so the last recorded point is exactly t_stop — sweep metrics and
    // Monte-Carlo sample a solved state, not a clamped/held one.  See
    // clip_step_to_events for the landing rules shared with the NR/PWL
    // engines.
    const ClippedStep clip = clip_step_to_events(
        t_, h_, options_.t_stop, options_.dt_min, breakpoints_, next_bp_,
        /*floor_to_dt_min=*/false);
    if (clip.h != h_) {
        // The clip actually changed the step: an event, not a bound,
        // decided its size.
        bound_src_ = clip.hit_breakpoint ? &result_.step_bounds.breakpoint
                                         : &result_.step_bounds.horizon;
    }
    h_ = clip.h;
    hit_breakpoint_ = clip.hit_breakpoint;
    final_step_ = clip.final_step;

    // 3. Predict G_eq at t_{n+1} (eq. 5).
    for (std::size_t k = 0; k < nl_; ++k) {
        double g = geq_[k];
        if (options_.use_predictor) {
            g += 0.5 * h_ * geq_rate_[k];
        }
        geq_pred_[k] = std::max(g, options_.geq_floor);
    }
}

void SwecStepper::stamp() {
    // 4. One linear backward-Euler system through the cached pattern:
    // values restamped in place (no triplet rebuild), ready for a
    // pattern-reusing refactor instead of a fresh symbolic analysis.
    rhs_ = cache_->rhs(t_ + h_, noise_);
    cache_->add_history(x_, h_, rhs_); // rhs += (C/h) x
    restamp_system();
}

void SwecStepper::restamp_system() {
    cache_->begin(1.0 / h_, rhs_);
    cache_->restamp_time_varying(t_ + h_);
    cache_->restamp_swec(geq_pred_);
}

namespace {

bool all_finite(const linalg::Vector& x) noexcept {
    for (const double v : x) {
        if (!std::isfinite(v)) {
            return false;
        }
    }
    return true;
}

} // namespace

linalg::Vector SwecStepper::solve_rescued() {
    bool injected = false;
    if (failpoints::enabled()) {
        static auto& fp = failpoints::site("swec.solve_nan");
        injected = fp.fire();
    }
    try {
        linalg::Vector x = cache_->solve(rhs_);
        if (!injected && all_finite(x)) {
            return x; // healthy path: exactly the plain solve
        }
    } catch (const SingularMatrixError&) {
        // fall through to the ladder
    }
    return rescue_ladder();
}

linalg::Vector SwecStepper::rescue_ladder() {
    // Re-runs eq. 5 + stamp for the current h_, then solves; the ladder
    // mutates h_ / the diagonal / the rhs between attempts.
    const auto repredict_and_stamp = [this] {
        for (std::size_t k = 0; k < nl_; ++k) {
            double g = geq_[k];
            if (options_.use_predictor) {
                g += 0.5 * h_ * geq_rate_[k];
            }
            geq_pred_[k] = std::max(g, options_.geq_floor);
        }
        stamp();
    };
    const auto try_solve = [this](linalg::Vector* out) {
        try {
            linalg::Vector x = cache_->solve(rhs_);
            if (all_finite(x)) {
                *out = std::move(x);
                return true;
            }
        } catch (const SingularMatrixError&) {
        }
        return false;
    };

    linalg::Vector x;

    // Rung 1 — dt-backoff: a smaller step both improves (G + C/h)
    // conditioning and shrinks the eq. 5 extrapolation error.
    ++result_.rescues.dt_backoff_attempted;
    for (int k = 0; k < 4 && h_ > options_.dt_min; ++k) {
        h_ = std::max(0.5 * h_, options_.dt_min);
        // The shortened step no longer lands on the event prepare()
        // clipped to; later steps re-approach it through the normal clip.
        final_step_ = false;
        hit_breakpoint_ = false;
        repredict_and_stamp();
        if (try_solve(&x)) {
            ++result_.rescues.dt_backoff_succeeded;
            return x;
        }
    }

    // Rung 2 — gmin stepping: regularize the node diagonal with the
    // smallest conductance that makes the system solvable.
    ++result_.rescues.gmin_attempted;
    for (const double gmin : {1e-12, 1e-9, 1e-6, 1e-3}) {
        repredict_and_stamp();
        for (std::size_t row = 0; row < nn_; ++row) {
            cache_->add_node_diag(static_cast<int>(row), gmin);
        }
        if (try_solve(&x)) {
            ++result_.rescues.gmin_succeeded;
            return x;
        }
    }

    // Rung 3 — source stepping: solve against a scaled-down excitation
    // and rescale (exact for this linear step), with the largest gmin of
    // rung 2 keeping the matrix regular.  Catches overflow-driven
    // non-finite solves that no conditioning fix can.
    ++result_.rescues.source_attempted;
    for (const double alpha : {0.5, 0.25, 0.0625}) {
        repredict_and_stamp();
        for (double& b : rhs_) {
            b *= alpha;
        }
        restamp_system();
        for (std::size_t row = 0; row < nn_; ++row) {
            cache_->add_node_diag(static_cast<int>(row), 1e-3);
        }
        if (try_solve(&x)) {
            const double inv = 1.0 / alpha;
            for (double& v : x) {
                v *= inv;
            }
            ++result_.rescues.source_succeeded;
            return x;
        }
    }

    throw AnalysisError(
        "run_tran_swec: rescue ladder exhausted at t = " +
        std::to_string(t_) + " s (dt-backoff, gmin stepping, and source "
        "stepping all produced singular or non-finite solves)");
}

void SwecStepper::accept(linalg::Vector x_next,
                         const AnalysisObserver* observer) {
    // 5. Bookkeeping: eq. (10) a-posteriori error, eq. (9) slope.
    // Excluded: the first two steps (slope history not meaningful from a
    // possibly inconsistent IC) and the two steps following a source
    // corner (the slope is discontinuous there by design, so the
    // prediction-error ratio says nothing about step control).
    if (h_prev_ > 0.0 && result_.steps_accepted >= 2 &&
        steps_since_corner_ >= 2) {
        const double err = measured_local_error(
            x_, x_next, dvdt_, h_, assembler_->num_nodes());
        result_.max_local_error =
            std::max(result_.max_local_error, err);
        local_error_sum_ += err;
        ++local_error_count_;
    }
    for (std::size_t i = 0; i < n_; ++i) {
        dvdt_[i] = (x_next[i] - x_[i]) / h_;
    }
    x_ = std::move(x_next);
    // Land on t_stop bit-exactly: t + (t_stop - t) may round off.
    t_ = final_step_ ? options_.t_stop : t_ + h_;
    h_prev_ = h_;
    ++result_.steps_accepted;
    ++*bound_src_;
    if (h_hist_ != nullptr) {
        h_hist_->observe(h_);
    }
    result_.min_dt_used = std::min(result_.min_dt_used, h_);
    result_.max_dt_used = std::max(result_.max_dt_used, h_);
    recorder_.record(t_, x_);
    if (observer != nullptr) {
        observer->step(t_, result_.steps_accepted);
        observer->sample(t_, x_.data(), static_cast<int>(x_.size()));
        observer->progress(t_ / options_.t_stop);
    }

    if (hit_breakpoint_) {
        // A source corner invalidates the slope history; restart the
        // ramp so the bound reacts to the new edge.
        h_prev_ = std::min(h_prev_, options_.dt_init);
        steps_since_corner_ = 0;
    } else {
        ++steps_since_corner_;
    }
}

TranResult SwecStepper::take_result() {
    result_.node_waves = recorder_.take();
    if (local_error_count_ > 0) {
        result_.avg_local_error =
            local_error_sum_ / static_cast<double>(local_error_count_);
    }
    return std::move(result_);
}

} // namespace nanosim::engines
