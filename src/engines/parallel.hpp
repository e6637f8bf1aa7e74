// Nano-Sim — trial-parallel Euler-Maruyama ensemble driver.
//
// Fans the ensemble's sample paths out over a runtime::ThreadPool.  It is
// *deterministic in the thread count*: path k draws from an independent
// counter-derived RNG stream (stochastic::SeedSequence) and the ensemble
// statistics are reduced in path order, so --threads 1 and --threads 64
// produce bit-identical EmEnsembleResult.  Its stream contract differs
// from the serial EmEngine::run_ensemble, which draws every path from
// one Rng.  (The Monte-Carlo driver, engines::run_monte_carlo, takes an
// ExecutionPolicy itself.)
#ifndef NANOSIM_ENGINES_PARALLEL_HPP
#define NANOSIM_ENGINES_PARALLEL_HPP

#include <cstdint>

#include "engines/em_engine.hpp"
#include "engines/observer.hpp"
#include "runtime/execution_policy.hpp"

namespace nanosim::engines {

/// Parallel Euler-Maruyama ensemble over `engine`'s grid.  Observer hooks
/// fire from worker threads (must be thread-safe).  A cancel skips the
/// paths not yet started and flags the result `aborted`; completed paths
/// still reduce in index order.
[[nodiscard]] EmEnsembleResult
run_em_ensemble_parallel(const EmEngine& engine, int num_paths,
                         std::uint64_t seed, NodeId node,
                         const runtime::ExecutionPolicy& policy = {},
                         const AnalysisObserver* observer = nullptr);

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_PARALLEL_HPP
