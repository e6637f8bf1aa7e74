// Nano-Sim — shared noise-path realization for the Monte-Carlo driver.
//
// A Monte-Carlo campaign must see the *same* band-limited noise sample
// paths for a given seed at any worker count, or its results can never
// be compared bit-for-bit.  NoisePathSet makes that a structural
// property instead of a scheduling accident: the path of (trial, source)
// is drawn from the dedicated SeedSequence counter stream
// `trial * num_sources + source`, a pure function of the base seed —
// independent of which worker asks, in which order, or on which thread.
#ifndef NANOSIM_STOCHASTIC_NOISE_PATHS_HPP
#define NANOSIM_STOCHASTIC_NOISE_PATHS_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stochastic/seed_sequence.hpp"

namespace nanosim::stochastic {

/// Deterministic sample-and-hold noise paths keyed by (trial, source).
///
/// Each path holds `holds` values of sigma * xi / sqrt(noise_dt) with
/// xi ~ N(0, 1), so the integral over one hold interval is a true
/// Wiener increment sigma * dW.  Paths are materialised on demand —
/// the set itself stores only the seed and the per-source sigmas.
class NoisePathSet {
public:
    NoisePathSet(std::uint64_t base_seed, std::vector<double> sigmas,
                 std::size_t holds, double noise_dt);

    [[nodiscard]] std::size_t num_sources() const noexcept {
        return sigmas_.size();
    }
    [[nodiscard]] std::size_t holds() const noexcept { return holds_; }
    [[nodiscard]] double noise_dt() const noexcept { return noise_dt_; }

    /// The sample-and-hold path of `source` in `trial` — a pure function
    /// of (base_seed, trial, source).  Safe to call concurrently.
    [[nodiscard]] std::vector<double> samples(int trial,
                                              std::size_t source) const;

private:
    SeedSequence seq_;
    std::vector<double> sigmas_;
    std::size_t holds_;
    double noise_dt_;
    double sqrt_dt_;
};

} // namespace nanosim::stochastic

#endif // NANOSIM_STOCHASTIC_NOISE_PATHS_HPP
