#include "engines/tran_swec.hpp"

#include <optional>
#include <utility>

#include "engines/swec_stepper.hpp"
#include "mna/system_cache.hpp"
#include "obs/scoped_timer.hpp"

namespace nanosim::engines {

TranResult run_tran_swec(const mna::MnaAssembler& assembler,
                         const SwecTranOptions& options_in,
                         const AnalysisObserver* observer,
                         mna::SystemCache* cache,
                         std::span<const NodeId> record) {
    const SwecTranOptions options = resolve_swec_tran_options(options_in);
    const FlopScope scope;

    // Pattern-frozen per-step system: restamp values in place, reuse the
    // symbolic LU analysis across every accepted step (the SWEC promise —
    // one cheap numeric refactor + solve per time point).  A caller-owned
    // cache extends the reuse across whole analyses (SimSession).
    std::optional<mna::SystemCache> local_cache;
    const bool shared_cache = cache != nullptr;
    if (!shared_cache) {
        local_cache.emplace(assembler);
        cache = &*local_cache;
    }

    SwecStepper stepper(assembler, options, *cache, shared_cache, record);
    while (!stepper.done()) {
        // Cooperative cancellation, polled once per step: the partial
        // waveforms recorded so far are the result.
        if (observer != nullptr && observer->cancelled()) {
            stepper.abort();
            break;
        }
        // The step's own work outside the cache's layers and the
        // recorder — the eq. 12 node bound, the eq. 5 predictor, the
        // eq. 10 error, the slope update — is step control (self time).
        const obs::ScopedTimer step_timer(cache->step_clock(), "step",
                                          "engine");
        stepper.eval();
        stepper.prepare();
        stepper.stamp();
        // solve_rescued == cache->solve(rhs) on the healthy path; on a
        // singular/non-finite solve it walks the dt-backoff -> gmin ->
        // source-stepping ladder before giving up.
        stepper.accept(stepper.solve_rescued(), observer);
    }

    TranResult result = stepper.take_result();
    result.flops = scope.counter();
    return result;
}

} // namespace nanosim::engines
