// Nano-Sim — execution policy for batch/ensemble orchestration.
//
// An ExecutionPolicy says how much parallel hardware a driver may use.
// It is a plain value so every parallel driver can take it by default
// argument; threads == 0 defers to the machine.  Determinism note: no
// Nano-Sim parallel driver lets the thread count influence results — RNG
// streams are derived per job (stochastic::SeedSequence) and reductions
// happen in job-index order — so the policy is purely a performance knob.
#ifndef NANOSIM_RUNTIME_EXECUTION_POLICY_HPP
#define NANOSIM_RUNTIME_EXECUTION_POLICY_HPP

#include <thread>

namespace nanosim::runtime {

/// How many worker threads a parallel driver may use.
struct ExecutionPolicy {
    /// 0 = one worker per hardware thread.
    int threads = 0;

    /// The concrete worker count (always >= 1).
    [[nodiscard]] int resolved() const noexcept {
        if (threads > 0) {
            return threads;
        }
        const unsigned hc = std::thread::hardware_concurrency();
        return hc == 0 ? 1 : static_cast<int>(hc);
    }
};

} // namespace nanosim::runtime

#endif // NANOSIM_RUNTIME_EXECUTION_POLICY_HPP
