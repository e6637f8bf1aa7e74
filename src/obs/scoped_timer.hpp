// Nano-Sim — wall-time accumulation for the RunReport time split.
#ifndef NANOSIM_OBS_SCOPED_TIMER_HPP
#define NANOSIM_OBS_SCOPED_TIMER_HPP

#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nanosim::obs {

/// Accumulate a scope's wall time into one layer of the per-step time
/// split (analyze/eval/stamp/factor/solve in the solver cache, step and
/// record in the engines).  Timers nest by SELF time: a timer opened
/// inside another on the same thread bills its scope to its own layer
/// and the enclosing timer bills only the rest, so the layers stay
/// disjoint sections of one wall clock.  steady_clock::now() costs tens
/// of nanoseconds — noise next to a restamp or a factorisation.
/// `span_name` and `category` double as an obs trace span (a no-op
/// object unless tracing is on) and must be string literals; `hist`
/// (optional) receives the scope duration in seconds — resolve it behind
/// obs::metrics_enabled().
class ScopedTimer {
public:
    ScopedTimer(double& acc, const char* span_name,
                const char* category = "cache",
                Histogram* hist = nullptr) noexcept
        : span_(span_name, category),
          acc_(&acc),
          hist_(hist),
          parent_(innermost()),
          t0_(std::chrono::steady_clock::now()) {
        innermost() = this;
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;
    ~ScopedTimer() {
        const double dt = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0_)
                              .count();
        innermost() = parent_;
        if (parent_ != nullptr) {
            parent_->nested_ += dt;
        }
        *acc_ += dt - nested_;
        if (hist_ != nullptr) {
            hist_->observe(dt);
        }
    }

private:
    /// The open timer innermost on this thread (null outside any).
    [[nodiscard]] static ScopedTimer*& innermost() noexcept {
        thread_local ScopedTimer* open = nullptr;
        return open;
    }

    Span span_; // first member: brackets the timed scope
    double* acc_;
    Histogram* hist_;
    ScopedTimer* parent_;
    double nested_ = 0.0; ///< time of the timers nested in this one
    std::chrono::steady_clock::time_point t0_;
};

} // namespace nanosim::obs

#endif // NANOSIM_OBS_SCOPED_TIMER_HPP
