#include "engines/tran_pwl.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "devices/mosfet.hpp"
#include "engines/options_common.hpp"
#include "engines/step_control.hpp"
#include "engines/wave_recorder.hpp"
#include "linalg/vecops.hpp"
#include "mna/system_cache.hpp"
#include "obs/trace.hpp"
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
        : dev_(dev),
          tt_(dynamic_cast<const TwoTerminalNonlinear*>(dev)),
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

    [[nodiscard]] const Device* device() const noexcept { return dev_; }

private:
    const Device* dev_;
    const TwoTerminalNonlinear* tt_;
    const Mosfet* mos_;
    double v_min_;
    double v_max_;
    int nseg_;
};

} // namespace

TranResult run_tran_pwl(const mna::MnaAssembler& assembler,
                        const PwlTranOptions& options_in,
                        const AnalysisObserver* observer,
                        mna::SystemCache* cache) {
    const PwlTranOptions options = resolve(options_in);
    const FlopScope scope;
    const auto n = static_cast<std::size_t>(assembler.unknowns());

    std::vector<PwlDevice> pwl;
    pwl.reserve(assembler.nonlinear_devices().size());
    for (const Device* dev : assembler.nonlinear_devices()) {
        pwl.emplace_back(dev, options);
    }

    const mna::MnaAssembler::NoiseRealization* noise =
        options.noise.empty() ? nullptr : &options.noise;

    // Cached per-step system: the PWL Norton stamps always land on the
    // same (drain, source) / (pos, neg) coordinates, so every segment
    // iteration is an in-place restamp + pattern-reusing solve — shared
    // across whole analyses when the caller supplies the cache.
    std::optional<mna::SystemCache> local_cache;
    if (cache == nullptr) {
        local_cache.emplace(assembler);
        cache = &*local_cache;
    }
    cache->start_run();

    // Fast Norton restamps when the compiled program covers every PWL
    // device: the segment Nortons are evaluated engine-side (their
    // endpoint currents depend on the segment table) and scattered
    // through precomputed slots — no Stamper indirection per device.
    const bool norton_fast = cache->norton_fast();
    std::vector<double> norton_g(pwl.size(), 0.0);
    std::vector<double> norton_ioff(pwl.size(), 0.0);

    // Segment fixed-point solve of one companion system.  `h <= 0` means
    // DC (no C/h companion).  Returns convergence of the assignment.
    auto segment_solve = [&](const linalg::Vector& x_n, double t, double h,
                             std::vector<int>& seg, linalg::Vector& x_out,
                             int& iters) -> bool {
        const NodeVoltages vn = assembler.view(x_n);
        for (std::size_t k = 0; k < pwl.size(); ++k) {
            seg[k] = pwl[k].segment_of(pwl[k].branch_voltage(vn));
        }
        linalg::Vector x_cur = x_n;
        for (int it = 0; it < options.max_segment_iters; ++it) {
            iters = it + 1;
            linalg::Vector rhs = cache->rhs(t, noise);
            if (h > 0.0) {
                cache->add_history(x_n, h, rhs);
            }
            Stamper& stamper = cache->begin(h > 0.0 ? 1.0 / h : 0.0, rhs);
            cache->restamp_time_varying(t);
            {
                const NodeVoltages vc = assembler.view(x_cur);
                if (norton_fast) {
                    for (std::size_t k = 0; k < pwl.size(); ++k) {
                        pwl[k].norton(seg[k], pwl[k].gate_voltage(vc),
                                      norton_g[k], norton_ioff[k]);
                    }
                    cache->restamp_nortons(norton_g, norton_ioff);
                } else {
                    for (std::size_t k = 0; k < pwl.size(); ++k) {
                        pwl[k].stamp(stamper, seg[k],
                                     pwl[k].gate_voltage(vc));
                    }
                }
            }
            x_cur = cache->solve(rhs);

            // Re-derive the assignment; stable assignment = converged.
            const NodeVoltages vc = assembler.view(x_cur);
            bool stable = true;
            for (std::size_t k = 0; k < pwl.size(); ++k) {
                const int s = pwl[k].segment_of(pwl[k].branch_voltage(vc));
                if (s != seg[k]) {
                    seg[k] = s;
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
    };

    // --- Initial condition. ---
    linalg::Vector x(n, 0.0);
    std::vector<int> seg(pwl.size(), 0);
    if (!options.initial.empty()) {
        if (options.initial.size() != n) {
            throw AnalysisError("run_tran_pwl: initial size mismatch");
        }
        x = options.initial;
    } else if (options.start_from_dc) {
        linalg::Vector x0(n, 0.0);
        linalg::Vector x_dc;
        int iters = 0;
        segment_solve(x0, 0.0, -1.0, seg, x_dc, iters);
        x = std::move(x_dc);
    }

    TranResult result;
    WaveRecorder recorder(assembler, {}, cache->record_clock());

    const std::vector<double> breakpoints =
        assembler.breakpoints(0.0, options.t_stop);
    std::size_t next_bp = 0;

    double t = 0.0;
    recorder.record(t, x);
    double h = options.dt_init;
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

        linalg::Vector x_next;
        int halvings = 0;
        while (true) {
            int iters = 0;
            const bool ok =
                segment_solve(x, t + h, h, seg, x_next, iters);
            result.nr_iterations += iters; // segment iterations
            if (ok) {
                break;
            }
            // A retry is only useful when the step actually shrinks
            // (h/2 clamps to dt_min at the floor — redoing the identical
            // solve is pointless).
            const double h_half = std::max(h / 2.0, options.dt_min);
            if (h_half >= h || halvings >= options.max_halvings) {
                // Segment assignment still cycling at the minimum step —
                // the PWL/NDR hazard; accept and march on (as the
                // adaptive scheme of [2] ultimately does).
                ++result.nonconverged_steps;
                break;
            }
            // The halved step lands short of t_stop (h <= t_stop - t on
            // entry and only shrinks here); any remaining sliver closes
            // exactly on t_stop in a later iteration.
            h = h_half;
            final_step = false;
            ++halvings;
            ++result.steps_rejected;
        }

        // Segment cycling is accepted and marched past (finite, merely
        // ambiguous), but a NaN/Inf solution poisons every later step's
        // C/h history — diagnose it instead of recording garbage.
        if (!std::all_of(x_next.begin(), x_next.end(),
                         [](double v) { return std::isfinite(v); })) {
            throw AnalysisError(
                "run_tran_pwl: non-finite solution at t=" +
                std::to_string(t + h) +
                " (NaN/Inf stimulus or device evaluation)");
        }

        x = std::move(x_next);
        // Land on t_stop bit-exactly: t + (t_stop - t) may round off.
        t = final_step ? options.t_stop : t + h;
        ++result.steps_accepted;
        // Step-bound attribution mirrors tran_nr: event clip, then
        // segment-cycling halving (floored at dt_min), else the growth
        // heuristic / its ceiling.
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
        result.min_dt_used = std::min(result.min_dt_used, h);
        result.max_dt_used = std::max(result.max_dt_used, h);
        recorder.record(t, x);
        if (observer != nullptr) {
            observer->step(t, result.steps_accepted);
            observer->sample(t, x.data(), static_cast<int>(x.size()));
            observer->progress(t / options.t_stop);
        }
        h = std::min(h * 1.5, options.dt_max);
    }

    result.node_waves = recorder.take();
    result.flops = scope.counter();
    return result;
}

} // namespace nanosim::engines
