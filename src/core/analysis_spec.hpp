// Nano-Sim — the typed analysis request/response pair.
//
// An AnalysisSpec is one analysis request: a std::variant over the five
// kinds the simulator runs (operating point, DC sweep, transient,
// Monte-Carlo, Euler-Maruyama ensemble), each carrying its engine
// selection plus the commonly tuned options factored out of the
// per-engine `*Options` structs.  A SimSession executes specs against
// one circuit and returns AnalysisResults — a uniform header (name,
// kind, engine, elapsed time, abort flag, solver-cache work) over the
// engine-native payload.
//
//     SimSession session = SimSession::from_deck_file("x.cir");
//     AnalysisResult tr = session.run(TranSpec{.t_stop = 1e-6});
//     tr.tran().node(session.circuit(), "out");        // typed payload
//     tr.header.solver.full_factors;                   // uniform header
//
// Power users still reach the engines directly (the benches do); the
// spec layer is the ergonomic, cache-sharing front door.
#ifndef NANOSIM_CORE_ANALYSIS_SPEC_HPP
#define NANOSIM_CORE_ANALYSIS_SPEC_HPP

#include <cstdint>
#include <string>
#include <variant>

#include "engines/em_engine.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/results.hpp"
#include "engines/tran_swec.hpp"
#include "linalg/dense.hpp"
#include "obs/report.hpp"
#include "util/error.hpp"

namespace nanosim {

/// DC solver selection.
enum class DcEngine {
    swec,           ///< pseudo-transient SWEC (default; paper Sec. 5.1)
    newton_raphson, ///< plain NR (SPICE behaviour, incl. NDR failures)
    mla,            ///< Bhattacharya-Mazumder limited NR baseline
};

/// Transient solver selection.
enum class TranEngine {
    swec,           ///< SWEC (default; paper Sec. 3)
    newton_raphson, ///< SPICE3-like companion-model NR
    pwl,            ///< ACES-like piecewise linear
};

[[nodiscard]] const char* engine_name(DcEngine engine) noexcept;
[[nodiscard]] const char* engine_name(TranEngine engine) noexcept;

/// Options shared across analysis kinds, factored out of the per-engine
/// structs.  A zero means "use the engine's default" everywhere, so a
/// default-constructed CommonOptions reproduces each engine's historical
/// behaviour exactly.
struct CommonOptions {
    double abstol = 0.0;  ///< NR-family absolute voltage tolerance [V]
    double reltol = 0.0;  ///< NR-family relative tolerance
    double dt_init = 0.0; ///< transient first step [s]
    double dt_min = 0.0;  ///< transient step floor [s]
    double dt_max = 0.0;  ///< transient step ceiling [s]
    /// Wall-clock budget for the whole analysis [s]; 0 = none.  When the
    /// budget runs out the run is cancelled through the observer path and
    /// returns an `aborted` partial result (never an exception) — the
    /// same contract as a client-initiated cancel.
    double deadline_s = 0.0;
};

constexpr auto field_table(std::type_identity<CommonOptions>) {
    return std::tuple{
        Field{"abstol", &CommonOptions::abstol},
        Field{"reltol", &CommonOptions::reltol},
        Field{"dt_init", &CommonOptions::dt_init},
        Field{"dt_min", &CommonOptions::dt_min},
        Field{"dt_max", &CommonOptions::dt_max},
        Field{"deadline_s", &CommonOptions::deadline_s}};
}

/// DC operating point.
struct OpSpec {
    std::string name = "op";
    DcEngine engine = DcEngine::swec;
    CommonOptions common;
};

constexpr auto field_table(std::type_identity<OpSpec>) {
    return std::tuple{
        Field{"name", &OpSpec::name},
        Field{"engine", &OpSpec::engine},
        Field{"common", &OpSpec::common}};
}

/// DC sweep of a named V/I source over [start, stop] by `step`.  The
/// source gets its original stimulus back however the sweep ends.
struct DcSweepSpec {
    std::string name = "dc";
    DcEngine engine = DcEngine::swec;
    CommonOptions common;
    std::string source;  ///< swept V or I source name
    double start = 0.0;
    double stop = 0.0;
    double step = 0.0;   ///< signed increment (sign must match stop-start)

    /// The sweep values, endpoints included: floor((stop - start) / step)
    /// + 1 evenly spaced points, the quotient first snapped to the
    /// nearest integer when within 1e-9 relative (0 to 0.3 by 0.1 is 4
    /// points).  Throws AnalysisError on an inconsistent start/stop/step
    /// triple.
    [[nodiscard]] linalg::Vector values() const;
};

constexpr auto field_table(std::type_identity<DcSweepSpec>) {
    return std::tuple{
        Field{"name", &DcSweepSpec::name},
        Field{"engine", &DcSweepSpec::engine},
        Field{"common", &DcSweepSpec::common},
        Field{"source", &DcSweepSpec::source},
        Field{"start", &DcSweepSpec::start},
        Field{"stop", &DcSweepSpec::stop},
        Field{"step", &DcSweepSpec::step}};
}

/// Transient over [0, t_stop].
struct TranSpec {
    std::string name = "tran";
    TranEngine engine = TranEngine::swec;
    CommonOptions common;
    double t_stop = 0.0;       ///< horizon [s] (required, > 0)
    bool start_from_dc = true; ///< initial condition from a DC solve
    linalg::Vector initial;    ///< explicit IC (overrides start_from_dc)
    // --- SWEC-engine knobs (ignored by the NR/PWL baselines) ---
    double eps = 0.05;         ///< target local error ratio (eq. 10)
    bool adaptive = true;      ///< eq. (12) step control
    bool use_predictor = true; ///< eq. (5) Taylor predictor
    double growth_limit = 2.0; ///< max step growth per step
    double geq_floor = 1e-12;  ///< conductance floor [S]
    /// Noise realizations (Monte-Carlo internals; normally empty).
    mna::MnaAssembler::NoiseRealization noise;
};

/// `noise` is not listed: it is Monte-Carlo engine state, never wire state.
constexpr auto field_table(std::type_identity<TranSpec>) {
    return std::tuple{
        Field{"name", &TranSpec::name},
        Field{"engine", &TranSpec::engine},
        Field{"common", &TranSpec::common},
        Field{"t_stop", &TranSpec::t_stop},
        Field{"start_from_dc", &TranSpec::start_from_dc},
        Field{"initial", &TranSpec::initial},
        Field{"eps", &TranSpec::eps},
        Field{"adaptive", &TranSpec::adaptive},
        Field{"use_predictor", &TranSpec::use_predictor},
        Field{"growth_limit", &TranSpec::growth_limit},
        Field{"geq_floor", &TranSpec::geq_floor}};
}

/// Monte-Carlo noise analysis on one node (SWEC transient per trial).
struct MonteCarloSpec {
    std::string name = "mc";
    CommonOptions common;
    std::string node;          ///< observed node (required)
    double t_stop = 0.0;       ///< horizon [s] (required, > 0)
    int runs = 200;            ///< deterministic transients to run
    double noise_dt = 0.0;     ///< noise bandwidth grid; 0 = t_stop/200
    std::size_t grid_points = 201; ///< statistics sampling grid
    std::uint64_t seed = 1;
    /// false = one worker on the calling thread, every trial refactoring
    /// through the session's solver cache (the symbolic analysis is never
    /// repeated); true = `threads` workers (engines::run_monte_carlo):
    /// the first runs on the session cache, each other builds one cache
    /// for the campaign.  Trial k's noise comes from one NoisePathSet
    /// and trials reduce in trial order, so for one seed the result is
    /// bit-identical at any worker count.
    bool parallel = false;
    int threads = 0; ///< worker count when `parallel`; 0 = all cores
    /// Extra nodes to observe alongside `node` (per-node mean/stddev
    /// blocks in the result).
    std::vector<std::string> probes;
    /// Emit a resumable engines::McCheckpoint through the observer every
    /// N completed trials (0 = off).
    int checkpoint_every = 0;
    /// Resume a checkpointed campaign at resume->next_trial (see
    /// engines::McOptions::resume); the spec must describe the same
    /// campaign.
    std::shared_ptr<const engines::McCheckpoint> resume;
    /// Base options for the per-trial transient (t_stop/noise overridden
    /// per trial); lets a spec reproduce engines::McOptions exactly.
    /// Trials run on tabulated chord models; only an in-process spec can
    /// set `tran.tables.enabled = false` (tables are not on the wire).
    engines::SwecTranOptions tran;
};

constexpr auto field_table(std::type_identity<MonteCarloSpec>) {
    return std::tuple{
        Field{"name", &MonteCarloSpec::name},
        Field{"common", &MonteCarloSpec::common},
        Field{"node", &MonteCarloSpec::node},
        Field{"t_stop", &MonteCarloSpec::t_stop},
        Field{"runs", &MonteCarloSpec::runs},
        Field{"noise_dt", &MonteCarloSpec::noise_dt},
        Field{"grid_points", &MonteCarloSpec::grid_points},
        Field{"seed", &MonteCarloSpec::seed},
        Field{"parallel", &MonteCarloSpec::parallel},
        Field{"threads", &MonteCarloSpec::threads},
        Field{"probes", &MonteCarloSpec::probes},
        Field{"checkpoint_every", &MonteCarloSpec::checkpoint_every},
        Field{"resume", &MonteCarloSpec::resume},
        Field{"tran", &MonteCarloSpec::tran}};
}

/// Euler-Maruyama stochastic ensemble on one node (paper Sec. 4).
struct EnsembleSpec {
    std::string name = "em";
    CommonOptions common;
    std::string node;          ///< observed node (required)
    double t_stop = 0.0;       ///< horizon [s] (required, > 0)
    double dt = 0.0;           ///< uniform SDE step [s] (required, > 0)
    int paths = 100;           ///< sample paths
    engines::EmScheme scheme = engines::EmScheme::explicit_em;
    bool start_from_dc = false;
    linalg::Vector initial;
    std::uint64_t seed = 1;
    /// Picks only the worker count, as MonteCarloSpec::parallel does:
    /// false = one worker on the calling thread and the session's solver
    /// cache; true = `threads` workers (engines::run_em_ensemble).  Path
    /// k draws from SeedSequence(seed).stream(k) and paths reduce in
    /// path order, so for one seed the result is bit-identical either
    /// way and at any worker count.
    bool parallel = false;
    int threads = 0; ///< worker count when `parallel`; 0 = all cores
};

constexpr auto field_table(std::type_identity<EnsembleSpec>) {
    return std::tuple{
        Field{"name", &EnsembleSpec::name},
        Field{"common", &EnsembleSpec::common},
        Field{"node", &EnsembleSpec::node},
        Field{"t_stop", &EnsembleSpec::t_stop},
        Field{"dt", &EnsembleSpec::dt},
        Field{"paths", &EnsembleSpec::paths},
        Field{"scheme", &EnsembleSpec::scheme},
        Field{"start_from_dc", &EnsembleSpec::start_from_dc},
        Field{"initial", &EnsembleSpec::initial},
        Field{"seed", &EnsembleSpec::seed},
        Field{"parallel", &EnsembleSpec::parallel},
        Field{"threads", &EnsembleSpec::threads}};
}

/// One analysis request.
using AnalysisSpec =
    std::variant<OpSpec, DcSweepSpec, TranSpec, MonteCarloSpec, EnsembleSpec>;

/// Which alternative an AnalysisSpec / AnalysisResult holds.
enum class AnalysisKind { op, dc_sweep, tran, monte_carlo, ensemble };

[[nodiscard]] const char* analysis_kind_name(AnalysisKind kind) noexcept;

/// Solver-cache work spent inside one analysis (engines/results.hpp).
using SolverWork = engines::SolverWork;

/// Uniform result header shared by every analysis kind.
struct AnalysisHeader {
    std::string name;          ///< spec name (echoed back)
    AnalysisKind kind = AnalysisKind::op;
    std::string engine;        ///< engine display name
    double elapsed_s = 0.0;    ///< wall-clock time of this run
    bool aborted = false;      ///< observer cancelled mid-run
    SolverWork solver;         ///< cache work spent in this run
    std::uint64_t cache_signature = 0; ///< stamp-pattern signature used
};

constexpr auto field_table(std::type_identity<AnalysisHeader>) {
    return std::tuple{
        Field{"name", &AnalysisHeader::name},
        Field{"kind", &AnalysisHeader::kind},
        Field{"engine", &AnalysisHeader::engine},
        Field{"elapsed_s", &AnalysisHeader::elapsed_s},
        Field{"aborted", &AnalysisHeader::aborted},
        Field{"solver", &AnalysisHeader::solver},
        Field{"cache_signature", &AnalysisHeader::cache_signature}};
}

/// Typed response: uniform header + engine-native payload.  The typed
/// accessors throw AnalysisError when the payload kind does not match —
/// a misrouted result should fail loudly, not decay to a default.
struct AnalysisResult {
    using Payload =
        std::variant<engines::DcResult, engines::SweepResult,
                     engines::TranResult, engines::McResult,
                     engines::EmEnsembleResult>;

    AnalysisHeader header;
    Payload payload;
    /// Aggregated per-run diagnostics (obs/report.hpp): step-control
    /// outcomes, solver-cache work, time attribution, pool pressure.
    /// Machine-readable via report.to_json(); the CLI `report` verb
    /// pretty-prints it.
    obs::RunReport report;

    [[nodiscard]] const engines::DcResult& dc() const {
        return get<engines::DcResult>("DcResult");
    }
    [[nodiscard]] const engines::SweepResult& sweep() const {
        return get<engines::SweepResult>("SweepResult");
    }
    [[nodiscard]] const engines::TranResult& tran() const {
        return get<engines::TranResult>("TranResult");
    }
    [[nodiscard]] const engines::McResult& monte_carlo() const {
        return get<engines::McResult>("McResult");
    }
    [[nodiscard]] const engines::EmEnsembleResult& ensemble() const {
        return get<engines::EmEnsembleResult>("EmEnsembleResult");
    }

private:
    template <typename T>
    [[nodiscard]] const T& get(const char* what) const {
        if (const T* p = std::get_if<T>(&payload)) {
            return *p;
        }
        throw AnalysisError("AnalysisResult '" + header.name +
                            "' does not hold a " + what + " (kind is " +
                            analysis_kind_name(header.kind) + ")");
    }
};

constexpr auto field_table(std::type_identity<AnalysisResult>) {
    return std::tuple{
        Field{"header", &AnalysisResult::header},
        Field{"payload", &AnalysisResult::payload},
        Field{"report", &AnalysisResult::report}};
}

} // namespace nanosim

#endif // NANOSIM_CORE_ANALYSIS_SPEC_HPP
