// Helpers for the tests that gate a wall-clock cost (the disabled paths
// of fail points and telemetry, SparseLu::refactor against a fresh
// factorisation, the growth of set-up time with the circuit).
#ifndef NANOSIM_TESTS_TIMING_GATE_HPP
#define NANOSIM_TESTS_TIMING_GATE_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

namespace nanosim::timing {

/// True in an AddressSanitizer or ThreadSanitizer build.  There every
/// load and store is instrumented, so a bound on the wall clock says
/// nothing about the code users run: timing gates skip themselves.
constexpr bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

inline constexpr const char* k_sanitized_skip =
    "wall-clock gate: sanitizer instrumentation inflates every memory "
    "access, so the bound holds for uninstrumented builds only";

/// The fastest of `reps` runs of `fn`, in seconds.  A run descheduled
/// under `ctest -j` inflates only its own sample, so a gate on the
/// minimum does not fail on a busy host.
template <typename Fn>
double min_seconds(int reps, Fn&& fn) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        best = std::min(best, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
    }
    return best;
}

/// How much slower `large` runs than `small`: each round times the two
/// `reps` times, interleaved, and divides their fastest runs.  Rounds
/// repeat, up to `rounds`, until one ratio is at most `bound`; the least
/// ratio seen is returned.  Other processes on a busy host (ctest -j)
/// can slow the larger working set for a whole round, but growth that
/// the code itself has shows in every round.
template <typename Small, typename Large>
double growth_ratio(double bound, int rounds, int reps, Small&& small,
                    Large&& large) {
    double best = std::numeric_limits<double>::infinity();
    for (int round = 0; round < rounds && !(best <= bound); ++round) {
        double t_small = std::numeric_limits<double>::infinity();
        double t_large = std::numeric_limits<double>::infinity();
        for (int r = 0; r < reps; ++r) {
            t_small = std::min(t_small, min_seconds(1, small));
            t_large = std::min(t_large, min_seconds(1, large));
        }
        best = std::min(best, t_large / t_small);
    }
    return best;
}

/// Nanoseconds per call of `site`: the fastest of `reps` loops of
/// `iters` calls.
template <typename Fn>
double site_ns(int reps, int iters, Fn&& site) {
    const double loop_s = min_seconds(reps, [&] {
        for (int i = 0; i < iters; ++i) {
            site();
        }
    });
    return loop_s * 1e9 / iters;
}

/// The share of a `run_s`-second run that `sites` idle sites of
/// `site_ns` each are predicted to take, doubled for headroom.
inline double predicted_share(std::uint64_t sites, double site_ns,
                              double run_s) {
    return 2.0 * static_cast<double>(sites) * site_ns * 1e-9 / run_s;
}

} // namespace nanosim::timing

#endif // NANOSIM_TESTS_TIMING_GATE_HPP
