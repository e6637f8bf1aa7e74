// Nano-Sim — progress / cancellation hooks for long-running analyses.
//
// Every engine entry point accepts an optional `const AnalysisObserver*`.
// The observer is a plain struct of std::function slots so callers wire
// only what they need (a CLI progress meter sets on_progress, a test
// that aborts mid-transient sets cancel, a notebook might set both):
//
//     engines::AnalysisObserver obs;
//     obs.on_progress = [](double f) { draw_meter(f); };
//     obs.cancel = [&] { return stop_requested.load(); };
//     auto res = engines::run_tran_swec(assembler, options, &obs);
//     if (res.aborted) { /* partial waveforms up to the abort point */ }
//
// Contract:
//  * `cancel` is polled at step granularity by the per-step engines
//    (SWEC/NR/PWL transients, the SWEC pseudo-transient DC march) and at
//    trial granularity by the batch drivers (DC sweeps, Monte-Carlo,
//    Euler-Maruyama ensembles); Monte-Carlo also forwards it into each
//    running trial.  Returning true makes the engine stop
//    cooperatively and return its partial result with `aborted = true` —
//    no exception, no leak, waveforms contain everything accepted so far.
//  * `on_progress` receives a completed fraction in [0, 1] (time-based
//    for transients, trial-based for batch drivers).
//  * `on_step` fires after every accepted step of a per-step engine;
//    `on_trial` after every completed trial of a batch driver.
//  * The serial engines invoke all hooks on the calling thread.  A
//    Monte-Carlo campaign or an Euler-Maruyama ensemble on more than one
//    worker (they share one worker loop) invokes
//    `on_trial` / `on_progress` from worker threads — hooks passed there
//    must be thread-safe.  `cancel`
//    must always be safe to call concurrently.
#ifndef NANOSIM_ENGINES_OBSERVER_HPP
#define NANOSIM_ENGINES_OBSERVER_HPP

#include <chrono>
#include <functional>

#include "engines/checkpoint.hpp"
#include "util/failpoints.hpp"

namespace nanosim::engines {

/// Progress / cancellation hooks; every slot is optional.
struct AnalysisObserver {
    /// Completed fraction in [0, 1].
    std::function<void(double)> on_progress;
    /// One accepted step of a per-step engine: (time, accepted steps).
    std::function<void(double, int)> on_step;
    /// One completed trial of a batch driver: (done, total).
    std::function<void(int, int)> on_trial;
    /// One accepted sample of the observed solution: (time, node voltage
    /// vector, length).  Fires beside on_step with the engine's accepted
    /// iterate — the streaming-results hook (service subscribers); the
    /// pointer is only valid for the duration of the call.
    std::function<void(double, const double*, int)> on_sample;
    /// Periodic resumable campaign state from the Monte-Carlo driver
    /// (every McOptions::checkpoint_every completed trials).  The
    /// reference is only valid for the duration of the call — copy it to
    /// persist.  Emitted on the calling thread, between chunks of
    /// checkpoint_every trials, at any worker count.
    std::function<void(const McCheckpoint&)> on_checkpoint;
    /// Polled cooperatively; return true to abort with a partial result.
    std::function<bool()> cancel;

    [[nodiscard]] bool cancelled() const {
        return cancel && cancel();
    }
    void progress(double fraction) const {
        if (on_progress) {
            on_progress(fraction);
        }
    }
    void step(double t, int accepted) const {
        if (on_step) {
            on_step(t, accepted);
        }
    }
    void trial(int done, int total) const {
        if (on_trial) {
            on_trial(done, total);
        }
    }
    void sample(double t, const double* x, int n) const {
        if (on_sample) {
            on_sample(t, x, n);
        }
    }
    void checkpoint(const McCheckpoint& cp) const {
        if (on_checkpoint) {
            on_checkpoint(cp);
        }
    }
};

/// Observer forwarding only the cancellation slot of `outer` — what a
/// batch driver hands to its inner per-step engine so a cancel request
/// aborts the current trial promptly without leaking the outer driver's
/// progress scale into the inner engine's callbacks.  Returns a
/// value-type observer; pass its address while `outer` outlives it.
[[nodiscard]] inline AnalysisObserver
cancel_only(const AnalysisObserver* outer) {
    AnalysisObserver inner;
    if (outer != nullptr && outer->cancel) {
        inner.cancel = outer->cancel;
    }
    return inner;
}

/// Observer forwarding every slot of `outer` with an additional
/// wall-clock deadline folded into `cancel`: once steady_clock passes
/// `deadline`, the engine sees a cancel request and winds down with an
/// `aborted` partial result — exactly the client-initiated-cancel path,
/// so a deadline can never produce a result shape a cancel could not.
/// Returns a value-type observer; pass its address while `outer`
/// outlives it.  `outer` may be null (deadline only).
[[nodiscard]] inline AnalysisObserver
with_deadline(const AnalysisObserver* outer,
              std::chrono::steady_clock::time_point deadline) {
    AnalysisObserver inner;
    if (outer != nullptr) {
        inner = *outer;
    }
    std::function<bool()> base =
        outer != nullptr ? outer->cancel : std::function<bool()>{};
    inner.cancel = [base = std::move(base), deadline] {
        if (base && base()) {
            return true;
        }
        if (failpoints::enabled()) {
            static auto& fp = failpoints::site("engines.deadline_overrun");
            if (fp.fire()) {
                return true; // injected: pretend the budget is exhausted
            }
        }
        return std::chrono::steady_clock::now() >= deadline;
    };
    return inner;
}

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_OBSERVER_HPP
