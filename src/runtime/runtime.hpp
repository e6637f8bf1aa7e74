// Nano-Sim — runtime orchestration subsystem umbrella header.
//
// The runtime layer turns the single-shot simulator into a batch
// platform: a worker ThreadPool (thread_pool.hpp), the ExecutionPolicy
// knob every parallel driver takes (execution_policy.hpp), named device
// parameter access (params.hpp), and the JobPlan / sweep-campaign
// orchestration with CSV aggregation (sweep.hpp).  Deterministic
// parallel RNG streams live next to the other stochastic tools in
// stochastic/seed_sequence.hpp.
#ifndef NANOSIM_RUNTIME_RUNTIME_HPP
#define NANOSIM_RUNTIME_RUNTIME_HPP

#include "runtime/execution_policy.hpp"
#include "runtime/params.hpp"
#include "runtime/sweep.hpp"
#include "runtime/thread_pool.hpp"

#endif // NANOSIM_RUNTIME_RUNTIME_HPP
