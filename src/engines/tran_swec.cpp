#include "engines/tran_swec.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "engines/dc_swec.hpp"
#include "engines/options_common.hpp"
#include "engines/step_control.hpp"
#include "linalg/vecops.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/failpoints.hpp"

namespace nanosim::engines {

namespace {

/// Validate SwecTranOptions and fill the defaults derived from t_stop.
SwecTranOptions resolve(const SwecTranOptions& in) {
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

/// The SWEC half of the accepted-step loop, on the one cache it is
/// handed (the run's own or a SimSession's).  Construction performs the
/// initial condition (explicit / DC operating point / zeros); a
/// start_from_dc operating point is solved on the cache too, so a
/// per-call run and a session run take one path.
class SwecEngine final : public StepEngine {
public:
    SwecEngine(const mna::MnaAssembler& assembler,
               const SwecTranOptions& options, mna::SystemCache& cache,
               TranResult& result)
        : cache_(&cache), options_(&options), result_(&result),
          n_(static_cast<std::size_t>(assembler.unknowns())),
          nl_(assembler.nonlinear_devices().size()),
          nn_(static_cast<std::size_t>(assembler.num_nodes())) {
        if (!options.initial.empty()) {
            if (options.initial.size() != n_) {
                throw AnalysisError("run_tran_swec: initial size mismatch");
            }
            x_ = options.initial;
        } else if (options.start_from_dc) {
            // The DC march restamps the same pattern, so it runs on this
            // run's cache.
            x_ = solve_op_swec(assembler, {}, 0.0, 1.0, &cache).x;
        } else {
            x_.assign(n_, 0.0);
        }

        // Tabulated chord models: bound after the DC solve, which runs
        // the closed forms.
        cache.configure_tables(options.tables);
        // The transient starts from an exact factor, not from the DC
        // march's last one.
        cache.start_run();

        // Static part of the node-diagonal conductance sums, computed
        // once; the per-step diagonal adds the SWEC chords and
        // time-varying devices incrementally (see swec_node_step_bound).
        static_gdiag_.assign(nn_, 0.0);
        for (const auto& e : assembler.static_g().entries()) {
            if (e.row == e.col && e.row < nn_) {
                static_gdiag_[e.row] += e.value;
            }
        }
        // Grounded node capacitances (eq. 12 node bound) — the C
        // diagonal is fixed per assembly, so read it once instead of
        // binary-searching the CSR every step.
        c_node_diag_.assign(nn_, 0.0);
        for (std::size_t r = 0; r < nn_; ++r) {
            c_node_diag_[r] = assembler.c_csr().at(r, r);
        }

        // Accepted-step-size distribution (metrics on only; registered
        // once, then two relaxed atomics per accepted step).
        if (obs::metrics_enabled()) {
            static obs::Histogram& sh = obs::metrics().histogram(
                "swec.step_size_s", obs::log_buckets(1e-15, 1.0, 2));
            h_hist_ = &sh;
        }

        dvdt_.assign(n_, 0.0); // eq. (9) backward difference
        geq_.assign(nl_, 0.0);
        geq_rate_.assign(nl_, 0.0);
        geq_pred_.assign(nl_, 0.0); // hoisted: no per-step alloc
        noise_ = options.noise.empty() ? nullptr : &options.noise;
    }

    /// Chord conductances and their rates at t_n (one compiled per-class
    /// evaluation pass), then the eq. (12) bound.
    [[nodiscard]] Proposal propose(double t) override {
        cache_->eval_chords(x_, dvdt_, h_prev_ > 0.0, geq_, geq_rate_);
        const SwecTranOptions& o = *options_;
        if (!o.adaptive) {
            return {o.dt_init, &obs::StepBoundCounts::fixed};
        }
        // Node-diagonal G sums at t_n: static part cached,
        // nonlinear/time-varying parts added through the cache's
        // compiled diagonal plan.
        std::vector<double> gdiag = static_gdiag_;
        cache_->swec_gdiag(t, geq_, gdiag);
        // Device bounds from the chords/rates just evaluated (no model
        // re-evaluation), node RC bounds from the incremental diagonal.
        const double device_bound =
            cache_->device_step_bound(x_, dvdt_, geq_, geq_rate_, o.eps);
        const double node_bound =
            swec_node_step_bound(c_node_diag_, gdiag, dvdt_, o.eps);
        Proposal p{std::min(device_bound, node_bound),
                   device_bound <= node_bound ? &obs::StepBoundCounts::device
                                              : &obs::StepBoundCounts::node};
        if (o.dt_max < p.h) {
            p = {o.dt_max, &obs::StepBoundCounts::dt_max};
        }
        if (h_prev_ > 0.0 && o.growth_limit * h_prev_ < p.h) {
            p = {o.growth_limit * h_prev_, &obs::StepBoundCounts::growth};
        }
        if (p.h < o.dt_min) {
            p = {o.dt_min, &obs::StepBoundCounts::dt_min};
        }
        return p;
    }

    /// Eq. (5) predictor and one linear backward-Euler system through the
    /// cached pattern.  The healthy path is exactly cache->solve(rhs)
    /// plus a finiteness scan; a singular or non-finite solve walks the
    /// rescue ladder, which throws when every rung fails — so every
    /// trial is accepted.
    [[nodiscard]] bool trial(double t, double& h) override {
        predict_and_stamp(t, h);
        bool injected = false;
        if (failpoints::enabled()) {
            static auto& fp = failpoints::site("swec.solve_nan");
            injected = fp.fire();
        }
        if (!solve_finite() || injected) {
            rescue_ladder(t, h);
        }
        return true;
    }

    void out_of_road(double /*t*/, double /*h*/) override {
        // Unreachable: every SWEC trial is accepted.
    }

    /// Eq. (10) error, eq. (9) slope, and the corner restart.
    void accept(double /*t*/, double h, bool corner) override {
        // Excluded from eq. (10): the first two steps (slope history not
        // meaningful from a possibly inconsistent IC) and the two steps
        // following a source corner (the slope is discontinuous there by
        // design, so the prediction-error ratio says nothing about step
        // control).
        if (h_prev_ > 0.0 && result_->steps_accepted >= 2 &&
            steps_since_corner_ >= 2) {
            const double err = measured_local_error(
                x_, x_next_, dvdt_, h, static_cast<int>(nn_));
            result_->max_local_error =
                std::max(result_->max_local_error, err);
            local_error_sum_ += err;
            ++local_error_count_;
        }
        for (std::size_t i = 0; i < n_; ++i) {
            dvdt_[i] = (x_next_[i] - x_[i]) / h;
        }
        x_ = std::move(x_next_);
        h_prev_ = h;
        if (h_hist_ != nullptr) {
            h_hist_->observe(h);
        }
        if (corner) {
            // A source corner invalidates the slope history; restart the
            // ramp so the bound reacts to the new edge.
            h_prev_ = std::min(h_prev_, options_->dt_init);
            steps_since_corner_ = 0;
        } else {
            ++steps_since_corner_;
        }
    }

    /// The average eq. (10) error over the measured steps.
    void finish() override {
        if (local_error_count_ > 0) {
            result_->avg_local_error =
                local_error_sum_ / static_cast<double>(local_error_count_);
        }
    }

private:
    /// Eq. (5) G_eq at t + h, then the rhs and the in-place restamp
    /// (no triplet rebuild) of (G_swec + C/h) for the step.
    void predict_and_stamp(double t, double h) {
        for (std::size_t k = 0; k < nl_; ++k) {
            double g = geq_[k];
            if (options_->use_predictor) {
                g += 0.5 * h * geq_rate_[k];
            }
            geq_pred_[k] = std::max(g, options_->geq_floor);
        }
        rhs_ = cache_->rhs(t + h, noise_);
        cache_->add_history(x_, h, rhs_); // rhs += (C/h) x
        restamp(t, h);
    }

    void restamp(double t, double h) {
        cache_->begin(1.0 / h, rhs_);
        cache_->restamp_time_varying(t + h);
        cache_->restamp_swec(geq_pred_);
    }

    /// x_next_ = the solve of the stamped system; false when it is
    /// singular or not finite.
    bool solve_finite() {
        try {
            x_next_ = cache_->solve(rhs_);
            return linalg::all_finite(x_next_);
        } catch (const SingularMatrixError&) {
            return false;
        }
    }

    /// dt-backoff -> gmin stepping -> source stepping into x_next_, each
    /// rung counted in the result's RescueCounts; throws AnalysisError
    /// when every rung is exhausted.  The dt-backoff rung shortens h.
    void rescue_ladder(double t, double& h) {
        obs::RescueCounts& rescues = result_->rescues;
        const double dt_min = options_->dt_min;

        // Rung 1 — dt-backoff: a smaller step both improves (G + C/h)
        // conditioning and shrinks the eq. 5 extrapolation error.
        ++rescues.dt_backoff_attempted;
        for (int k = 0; k < 4 && h > dt_min; ++k) {
            h = std::max(0.5 * h, dt_min);
            predict_and_stamp(t, h);
            if (solve_finite()) {
                ++rescues.dt_backoff_succeeded;
                return;
            }
        }

        // Rung 2 — gmin stepping: regularize the node diagonal with the
        // smallest conductance that makes the system solvable.
        ++rescues.gmin_attempted;
        for (const double gmin : {1e-12, 1e-9, 1e-6, 1e-3}) {
            predict_and_stamp(t, h);
            for (std::size_t row = 0; row < nn_; ++row) {
                cache_->add_node_diag(static_cast<int>(row), gmin);
            }
            if (solve_finite()) {
                ++rescues.gmin_succeeded;
                return;
            }
        }

        // Rung 3 — source stepping: solve against a scaled-down
        // excitation and rescale (exact for this linear step), with the
        // largest gmin of rung 2 keeping the matrix regular.  Catches
        // overflow-driven non-finite solves that no conditioning fix can.
        ++rescues.source_attempted;
        for (const double alpha : {0.5, 0.25, 0.0625}) {
            predict_and_stamp(t, h);
            for (double& b : rhs_) {
                b *= alpha;
            }
            restamp(t, h);
            for (std::size_t row = 0; row < nn_; ++row) {
                cache_->add_node_diag(static_cast<int>(row), 1e-3);
            }
            if (solve_finite()) {
                const double inv = 1.0 / alpha;
                for (double& v : x_next_) {
                    v *= inv;
                }
                ++rescues.source_succeeded;
                return;
            }
        }

        throw AnalysisError(
            "run_tran_swec: rescue ladder exhausted at t = " +
            std::to_string(t) + " s (dt-backoff, gmin stepping, and source "
            "stepping all produced singular or non-finite solves)");
    }

    mna::SystemCache* cache_;
    const SwecTranOptions* options_;
    TranResult* result_;
    std::size_t n_ = 0;  ///< unknowns
    std::size_t nl_ = 0; ///< nonlinear devices
    std::size_t nn_ = 0; ///< non-ground nodes

    std::vector<double> static_gdiag_;
    std::vector<double> c_node_diag_;
    obs::Histogram* h_hist_ = nullptr;

    linalg::Vector x_next_;
    linalg::Vector dvdt_;
    std::vector<double> geq_;
    std::vector<double> geq_rate_;
    std::vector<double> geq_pred_;
    linalg::Vector rhs_;
    double h_prev_ = 0.0;
    int steps_since_corner_ = 0;
    double local_error_sum_ = 0.0;
    std::size_t local_error_count_ = 0;
    const mna::MnaAssembler::NoiseRealization* noise_ = nullptr;
};

} // namespace

TranResult run_tran_swec(const mna::MnaAssembler& assembler,
                         const SwecTranOptions& options_in,
                         const AnalysisObserver* observer,
                         mna::SystemCache* cache,
                         std::span<const NodeId> record) {
    const SwecTranOptions options = resolve(options_in);
    return run_transient<SwecEngine>(
        assembler, options,
        {options.t_stop, options.dt_min, options.dt_max, 0,
         /*floor_to_dt_min=*/false, "run_tran_swec"},
        observer, cache, record);
}

} // namespace nanosim::engines
