// Nano-Sim — parallel ensemble drivers.
//
// Batch versions of the Monte-Carlo baseline and the Euler-Maruyama
// ensemble that fan realizations out over a runtime::ThreadPool.  Both
// are *deterministic in the thread count*: realization k draws from an
// independent counter-derived RNG stream and the ensemble statistics
// are reduced in realization order, so --threads 1 and --threads 64
// produce bit-identical McResult / EmEnsembleResult.
//
// The Monte-Carlo drivers further share one noise contract: serial and
// parallel runs both derive a base seed the same way
// (the first engine() draw of Rng(seed)) and realise trial k's paths
// through mc_noise_paths / stochastic::NoisePathSet, so for the same
// seed a parallel run is bit-identical to the serial driver — not just
// to other parallel runs.  (The EM ensemble keeps the per-stream
// contract: parallel matches parallel for any thread count.)
#ifndef NANOSIM_ENGINES_PARALLEL_HPP
#define NANOSIM_ENGINES_PARALLEL_HPP

#include <cstdint>

#include "engines/em_engine.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/observer.hpp"
#include "runtime/execution_policy.hpp"

namespace nanosim::engines {

/// Parallel Monte-Carlo baseline: options.runs independent realizations
/// on the policy's worker count.  Observer hooks fire from worker
/// threads (must be thread-safe).  A cancel stops running realizations
/// at their inner transient's step granularity (like the serial
/// driver), skips the ones not yet started, and flags the result
/// `aborted` — completed realizations still reduce in index order,
/// keeping the thread-count determinism.
[[nodiscard]] McResult
run_monte_carlo_parallel(const mna::MnaAssembler& assembler,
                         const McOptions& options, std::uint64_t seed,
                         NodeId node,
                         const runtime::ExecutionPolicy& policy = {},
                         const AnalysisObserver* observer = nullptr);

/// Parallel Euler-Maruyama ensemble over `engine`'s grid.  Same observer
/// contract as run_monte_carlo_parallel.
[[nodiscard]] EmEnsembleResult
run_em_ensemble_parallel(const EmEngine& engine, int num_paths,
                         std::uint64_t seed, NodeId node,
                         const runtime::ExecutionPolicy& policy = {},
                         const AnalysisObserver* observer = nullptr);

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_PARALLEL_HPP
