#include "core/simulator.hpp"

#include <utility>
#include <variant>

#include "util/error.hpp"

namespace nanosim {

namespace {

/// Move the typed payload out of an AnalysisResult (facade callers get
/// engine-native types; copying a mesh transient's waveforms would be
/// wasteful).
template <typename T>
[[nodiscard]] T take(AnalysisResult&& result) {
    if (T* p = std::get_if<T>(&result.payload)) {
        return std::move(*p);
    }
    throw AnalysisError("Simulator: unexpected analysis payload kind");
}

} // namespace

engines::DcResult Simulator::operating_point(DcEngine engine) const {
    OpSpec spec;
    spec.engine = engine;
    return take<engines::DcResult>(session_.run(spec));
}

engines::SweepResult Simulator::dc_sweep(const std::string& source,
                                         double start, double stop,
                                         double step, DcEngine engine) {
    DcSweepSpec spec;
    spec.engine = engine;
    spec.source = source;
    spec.start = start;
    spec.stop = stop;
    spec.step = step;
    return take<engines::SweepResult>(session_.run(spec));
}

engines::TranResult
Simulator::transient(const engines::SwecTranOptions& options,
                     TranEngine engine) const {
    TranSpec spec;
    spec.engine = engine;
    spec.t_stop = options.t_stop;
    spec.common.dt_init = options.dt_init;
    spec.common.dt_min = options.dt_min;
    spec.common.dt_max = options.dt_max;
    spec.eps = options.eps;
    spec.adaptive = options.adaptive;
    spec.use_predictor = options.use_predictor;
    spec.growth_limit = options.growth_limit;
    spec.geq_floor = options.geq_floor;
    spec.start_from_dc = options.start_from_dc;
    spec.initial = options.initial;
    spec.noise = options.noise;
    return take<engines::TranResult>(session_.run(spec));
}

engines::EmEnsembleResult
Simulator::stochastic_ensemble(const engines::EmOptions& options, int paths,
                               const std::string& node,
                               std::uint64_t seed) const {
    EnsembleSpec spec;
    spec.node = node;
    spec.t_stop = options.t_stop;
    spec.dt = options.dt;
    spec.scheme = options.scheme;
    spec.swec_update = options.swec_update;
    spec.start_from_dc = options.start_from_dc;
    spec.initial = options.initial;
    spec.paths = paths;
    spec.seed = seed;
    spec.parallel = false; // serial: the historical facade contract
    return take<engines::EmEnsembleResult>(session_.run(spec));
}

engines::McResult
Simulator::monte_carlo(const engines::McOptions& options,
                       const std::string& node, std::uint64_t seed,
                       const runtime::ExecutionPolicy& policy) const {
    MonteCarloSpec spec;
    spec.node = node;
    spec.t_stop = options.t_stop;
    spec.runs = options.runs;
    spec.noise_dt = options.noise_dt;
    spec.grid_points = options.grid_points;
    spec.tran = options.tran;
    spec.seed = seed;
    spec.parallel = true;
    spec.threads = policy.threads;
    return take<engines::McResult>(session_.run(spec));
}

engines::EmEnsembleResult
Simulator::ensemble(const engines::EmOptions& options, int paths,
                    const std::string& node, std::uint64_t seed,
                    const runtime::ExecutionPolicy& policy) const {
    EnsembleSpec spec;
    spec.node = node;
    spec.t_stop = options.t_stop;
    spec.dt = options.dt;
    spec.scheme = options.scheme;
    spec.swec_update = options.swec_update;
    spec.start_from_dc = options.start_from_dc;
    spec.initial = options.initial;
    spec.paths = paths;
    spec.seed = seed;
    spec.parallel = true;
    spec.threads = policy.threads;
    return take<engines::EmEnsembleResult>(session_.run(spec));
}

} // namespace nanosim
