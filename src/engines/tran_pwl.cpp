#include "engines/tran_pwl.hpp"

#include <algorithm>
#include <cmath>

#include "devices/mosfet.hpp"
#include "engines/options_common.hpp"
#include "engines/step_control.hpp"
#include "linalg/vecops.hpp"
#include "mna/system_cache.hpp"
#include "obs/scoped_timer.hpp"
#include "util/error.hpp"

namespace nanosim::engines {

namespace {

PwlTranOptions resolve(const PwlTranOptions& in) {
    constexpr const char* who = "run_tran_pwl";
    PwlTranOptions o = in;
    const StepLimits s =
        resolve_step_limits(who, o.t_stop, o.dt_init, o.dt_min, o.dt_max);
    o.dt_init = s.dt_init;
    o.dt_min = s.dt_min;
    o.dt_max = s.dt_max;
    require_at_least(who, "segments", o.segments, 2);
    require_ordered(who, "v_min", "v_max", o.v_min, o.v_max);
    require_at_least(who, "max_segment_iters", o.max_segment_iters, 1);
    require_at_least(who, "max_halvings", o.max_halvings, 0);
    return o;
}

/// PWL view of one nonlinear device.
class PwlDevice {
public:
    PwlDevice(const Device* dev, const PwlTranOptions& options)
        : tt_(dynamic_cast<const TwoTerminalNonlinear*>(dev)),
          mos_(dynamic_cast<const Mosfet*>(dev)),
          v_min_(options.v_min),
          v_max_(options.v_max),
          nseg_(options.segments) {
        if (tt_ == nullptr && mos_ == nullptr) {
            throw AnalysisError("run_tran_pwl: unsupported device '" +
                                dev->name() + "'");
        }
    }

    /// Controlling branch voltage from a solution.
    [[nodiscard]] double branch_voltage(const NodeVoltages& v) const {
        if (mos_ != nullptr) {
            return v(mos_->drain()) - v(mos_->source());
        }
        return v(tt_->pos()) - v(tt_->neg());
    }

    /// Secondary control (V_GS) for MOSFETs, 0 otherwise.
    [[nodiscard]] double gate_voltage(const NodeVoltages& v) const {
        if (mos_ != nullptr) {
            return v(mos_->gate()) - v(mos_->source());
        }
        return 0.0;
    }

    [[nodiscard]] int segment_of(double v) const {
        const double f = (v - v_min_) / (v_max_ - v_min_);
        const int s = static_cast<int>(std::floor(f * nseg_));
        return std::clamp(s, 0, nseg_ - 1);
    }

    /// Norton equivalent of segment `seg` (gate voltage used for MOSFET
    /// tables): current = g * v + ioff on the controlling branch.
    void norton(int seg, double vgs, double& g, double& ioff) const {
        const double dv = (v_max_ - v_min_) / nseg_;
        const double v0 = v_min_ + dv * seg;
        const double v1 = v0 + dv;
        double i0 = 0.0;
        double i1 = 0.0;
        if (mos_ != nullptr) {
            i0 = mos_->drain_current(vgs, v0);
            i1 = mos_->drain_current(vgs, v1);
        } else {
            i0 = tt_->current(v0);
            i1 = tt_->current(v1);
        }
        g = (i1 - i0) / dv;
        ioff = i0 - g * v0;
        count_mul(2);
        count_add(3);
        count_div(1);
    }

    /// Stamp the segment's Norton pair.
    void stamp(Stamper& st, int seg, double vgs) const {
        double g = 0.0;
        double ioff = 0.0;
        norton(seg, vgs, g, ioff);
        if (mos_ != nullptr) {
            st.conductance(mos_->drain(), mos_->source(), g);
            st.rhs_current(mos_->drain(), -ioff);
            st.rhs_current(mos_->source(), +ioff);
        } else {
            st.conductance(tt_->pos(), tt_->neg(), g);
            st.rhs_current(tt_->pos(), -ioff);
            st.rhs_current(tt_->neg(), +ioff);
        }
    }

private:
    const TwoTerminalNonlinear* tt_;
    const Mosfet* mos_;
    double v_min_;
    double v_max_;
    int nseg_;
};

/// The PWL half of the accepted-step loop: a segment fixed-point solve
/// per trial; segment cycling at the smallest step is accepted and
/// marched past.
class PwlEngine final : public StepEngine {
public:
    PwlEngine(const mna::MnaAssembler& assembler,
              const PwlTranOptions& options, mna::SystemCache& cache,
              TranResult& result)
        : assembler_(&assembler), cache_(&cache), options_(&options),
          result_(&result) {
        pwl_.reserve(assembler.nonlinear_devices().size());
        for (const Device* dev : assembler.nonlinear_devices()) {
            pwl_.emplace_back(dev, options);
        }
        noise_ = options.noise.empty() ? nullptr : &options.noise;
        cache.start_run();

        // Fast Norton restamps when the compiled program covers every PWL
        // device: the segment Nortons are evaluated engine-side (their
        // endpoint currents depend on the segment table) and scattered
        // through precomputed slots — no Stamper indirection per device.
        norton_fast_ = cache.norton_fast();
        norton_g_.assign(pwl_.size(), 0.0);
        norton_ioff_.assign(pwl_.size(), 0.0);

        const auto n = static_cast<std::size_t>(assembler.unknowns());
        x_.assign(n, 0.0);
        seg_.assign(pwl_.size(), 0);
        if (!options.initial.empty()) {
            if (options.initial.size() != n) {
                throw AnalysisError("run_tran_pwl: initial size mismatch");
            }
            x_ = options.initial;
        } else if (options.start_from_dc) {
            const linalg::Vector x0(n, 0.0);
            int iters = 0;
            segment_solve(x0, 0.0, -1.0, x_next_, iters);
            x_ = std::move(x_next_);
        }
        h_ = options.dt_init;
    }

    /// The last accepted step grown x1.5, up to dt_max.
    [[nodiscard]] Proposal propose(double /*t*/) override {
        return {h_, h_ >= options_->dt_max ? &obs::StepBoundCounts::dt_max
                                           : &obs::StepBoundCounts::growth};
    }

    [[nodiscard]] bool trial(double t, double& h) override {
        int iters = 0;
        const bool ok = segment_solve(x_, t + h, h, x_next_, iters);
        result_->nr_iterations += iters; // segment iterations
        return ok;
    }

    /// Segment assignment still cycling at the minimum step — the
    /// PWL/NDR hazard; accept and march on (as the adaptive scheme of [2]
    /// ultimately does).
    void out_of_road(double /*t*/, double /*h*/) override {
        ++result_->nonconverged_steps;
    }

    void accept(double t, double h, bool /*corner*/) override {
        // Segment cycling is accepted and marched past (finite, merely
        // ambiguous), but a NaN/Inf solution poisons every later step's
        // C/h history — diagnose it instead of recording garbage.
        if (!linalg::all_finite(x_next_)) {
            throw AnalysisError(
                "run_tran_pwl: non-finite solution at t=" +
                std::to_string(t + h) +
                " (NaN/Inf stimulus or device evaluation)");
        }
        x_ = std::move(x_next_);
        h_ = std::min(h * 1.5, options_->dt_max);
    }

private:
    /// Segment fixed-point solve of one companion system.  `h <= 0`
    /// means DC (no C/h companion).  Returns convergence of the
    /// assignment.
    bool segment_solve(const linalg::Vector& x_n, double t, double h,
                       linalg::Vector& x_out, int& iters) {
        const NodeVoltages vn = assembler_->view(x_n);
        for (std::size_t k = 0; k < pwl_.size(); ++k) {
            seg_[k] = pwl_[k].segment_of(pwl_[k].branch_voltage(vn));
        }
        linalg::Vector x_cur = x_n;
        for (int it = 0; it < options_->max_segment_iters; ++it) {
            iters = it + 1;
            linalg::Vector rhs = cache_->rhs(t, noise_);
            if (h > 0.0) {
                cache_->add_history(x_n, h, rhs);
            }
            Stamper& stamper = cache_->begin(h > 0.0 ? 1.0 / h : 0.0, rhs);
            cache_->restamp_time_varying(t);
            {
                // The segment Nortons are device evaluation (the fast
                // path's scatter bills itself to stamp).
                const obs::ScopedTimer eval_timer(cache_->eval_clock(),
                                                  "eval", "engine");
                const NodeVoltages vc = assembler_->view(x_cur);
                if (norton_fast_) {
                    for (std::size_t k = 0; k < pwl_.size(); ++k) {
                        pwl_[k].norton(seg_[k], pwl_[k].gate_voltage(vc),
                                       norton_g_[k], norton_ioff_[k]);
                    }
                    cache_->restamp_nortons(norton_g_, norton_ioff_);
                } else {
                    for (std::size_t k = 0; k < pwl_.size(); ++k) {
                        pwl_[k].stamp(stamper, seg_[k],
                                      pwl_[k].gate_voltage(vc));
                    }
                }
            }
            x_cur = cache_->solve(rhs);

            // Re-derive the assignment; stable assignment = converged.
            const NodeVoltages vc = assembler_->view(x_cur);
            bool stable = true;
            for (std::size_t k = 0; k < pwl_.size(); ++k) {
                const int s = pwl_[k].segment_of(pwl_[k].branch_voltage(vc));
                if (s != seg_[k]) {
                    seg_[k] = s;
                    stable = false;
                }
            }
            if (stable) {
                x_out = std::move(x_cur);
                return true;
            }
        }
        x_out = std::move(x_cur);
        return false;
    }

    const mna::MnaAssembler* assembler_;
    mna::SystemCache* cache_;
    const PwlTranOptions* options_;
    TranResult* result_;
    const mna::MnaAssembler::NoiseRealization* noise_ = nullptr;
    std::vector<PwlDevice> pwl_;
    bool norton_fast_ = false;
    std::vector<double> norton_g_;
    std::vector<double> norton_ioff_;

    linalg::Vector x_next_;
    std::vector<int> seg_;
    double h_ = 0.0;
};

} // namespace

TranResult run_tran_pwl(const mna::MnaAssembler& assembler,
                        const PwlTranOptions& options_in,
                        const AnalysisObserver* observer,
                        mna::SystemCache* cache) {
    const PwlTranOptions options = resolve(options_in);
    return run_transient<PwlEngine>(
        assembler, options,
        {options.t_stop, options.dt_min, options.dt_max, options.max_halvings,
         /*floor_to_dt_min=*/true, "run_tran_pwl"},
        observer, cache);
}

} // namespace nanosim::engines
