#include "core/sim_session.hpp"

#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>

#include "engines/dc_mla.hpp"
#include "engines/dc_nr.hpp"
#include "engines/dc_swec.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace nanosim {

namespace {

/// Keep the registry bounded: a session alternating between a handful of
/// circuit variants retains each variant's symbolic analysis, but a
/// topology explorer must not accumulate caches without limit.
constexpr std::size_t k_max_cached_patterns = 8;

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Apply the spec-level NR-family tolerance overrides onto a per-engine
/// options struct (zero = keep the engine's own default) — the one place
/// the CommonOptions contract maps onto abstol/reltol fields.
template <typename EngineOptions>
void apply_tolerances(const CommonOptions& common, EngineOptions& options) {
    if (common.abstol > 0.0) {
        options.abstol = common.abstol;
    }
    if (common.reltol > 0.0) {
        options.reltol = common.reltol;
    }
}

} // namespace

// ---- SimSession -------------------------------------------------------

namespace {

/// One stamp dry-run serving both the registry key and (via the stored
/// coords) the first SystemCache built for this assembly.
[[nodiscard]] std::uint64_t compute_signature(
    const mna::MnaAssembler& assembler,
    std::vector<std::pair<std::size_t, std::size_t>>& coords_out) {
    coords_out = mna::union_stamp_pattern(assembler);
    return mna::stamp_pattern_signature(
        static_cast<std::size_t>(assembler.unknowns()), coords_out);
}

} // namespace

SimSession::SimSession(Circuit circuit)
    : circuit_(std::make_unique<Circuit>(std::move(circuit))) {
    assembler_ = std::make_unique<mna::MnaAssembler>(*circuit_);
    signature_ = compute_signature(*assembler_, pattern_coords_);
}

SimSession::SimSession(ParsedDeck deck)
    : circuit_(std::make_unique<Circuit>(std::move(deck.circuit))),
      deck_analyses_(std::move(deck.analyses)) {
    assembler_ = std::make_unique<mna::MnaAssembler>(*circuit_);
    signature_ = compute_signature(*assembler_, pattern_coords_);
}

SimSession SimSession::from_deck(const std::string& deck_text) {
    SimSession session(parse_deck(deck_text));
    session.deck_text_ = deck_text;
    return session;
}

SimSession SimSession::from_deck_file(const std::string& path) {
    // Read the text ourselves (rather than parse_deck_file) so sweep()
    // can re-parse it for per-job circuits.
    std::ifstream in(path);
    if (!in) {
        throw IoError("cannot open deck file '" + path + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    return from_deck(text.str());
}

void SimSession::reassemble() {
    const std::lock_guard<std::mutex> lock(*run_mutex_);
    assembler_ = std::make_unique<mna::MnaAssembler>(*circuit_);
    signature_ = compute_signature(*assembler_, pattern_coords_);
    // Caches for other signatures stay filed (their stale assembler
    // pointer is never dereferenced until solver_cache() rebinds them);
    // the current signature's cache is rebound eagerly so its next solve
    // is a numeric refactor against the fresh assembly.
    if (const auto it = caches_.find(signature_); it != caches_.end()) {
        if (it->second->unknowns() ==
            static_cast<std::size_t>(assembler_->unknowns())) {
            it->second->rebind(*assembler_);
        } else {
            caches_.erase(it); // signature collision across sizes
        }
    }
}

mna::SystemCache& SimSession::solver_cache() {
    const auto it = caches_.find(signature_);
    if (it != caches_.end()) {
        if (it->second->bound_assembler() != assembler_.get()) {
            it->second->rebind(*assembler_);
        }
        return *it->second;
    }
    if (caches_.size() >= k_max_cached_patterns) {
        // Evict an arbitrary non-current entry (map order is as good as
        // any here: evictions only happen to topology explorers).
        caches_.erase(caches_.begin());
    }
    // Hand the precomputed union pattern to the new cache when it is
    // still on hand for this assembly; the rare re-creation after an
    // eviction falls back to the cache's own dry-run.
    auto cache =
        pattern_coords_.empty()
            ? std::make_unique<mna::SystemCache>(*assembler_)
            : std::make_unique<mna::SystemCache>(
                  *assembler_, mna::SystemCache::Options{},
                  std::move(pattern_coords_), signature_);
    pattern_coords_.clear();
    mna::SystemCache& ref = *cache;
    caches_.emplace(signature_, std::move(cache));
    return ref;
}

// ---- execution --------------------------------------------------------

AnalysisResult SimSession::run(const AnalysisSpec& spec,
                               const engines::AnalysisObserver* observer) {
    // Wall-clock deadline (CommonOptions::deadline_s): folded into the
    // observer's cancel slot BEFORE taking the session lock, so time
    // spent queueing behind another analysis counts against the budget.
    const double deadline_s =
        std::visit([](const auto& s) { return s.common.deadline_s; }, spec);
    engines::AnalysisObserver deadline_observer;
    if (deadline_s > 0.0) {
        deadline_observer = engines::with_deadline(
            observer,
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(deadline_s)));
        observer = &deadline_observer;
    }
    // Re-entrant run() from an observer callback would self-deadlock on
    // the non-recursive session mutex — fail loudly instead.
    if (running_thread_->load(std::memory_order_relaxed) ==
        std::this_thread::get_id()) {
        throw AnalysisError(
            "SimSession::run is not re-entrant: called again from the "
            "thread already running an analysis (observer callback?)");
    }
    const std::lock_guard<std::mutex> lock(*run_mutex_);
    running_thread_->store(std::this_thread::get_id(),
                           std::memory_order_relaxed);
    struct RunningReset {
        std::atomic<std::thread::id>* owner;
        ~RunningReset() {
            owner->store(std::thread::id{}, std::memory_order_relaxed);
        }
    } running_reset{running_thread_.get()};
    // One span per analysis — the root of the trace hierarchy (analysis
    // -> trial -> step -> eval/stamp/factor/solve).  Owned-name form:
    // the label carries the spec name.
    const obs::Span analysis_span(
        "analysis:" +
            std::visit([](const auto& s) { return s.name; }, spec),
        "session");
    const auto t0 = Clock::now();
    obs::SolverWork before;
    if (const auto it = caches_.find(signature_); it != caches_.end()) {
        it->second->reset_backward_error_peak();
        before = it->second->stats();
    }
    // Pool queue-wait deltas survive the short-lived pools the parallel
    // drivers own because the workers also bill the global registry.
    std::uint64_t pool_tasks0 = 0;
    std::uint64_t pool_wait_ns0 = 0;
    if (obs::metrics_enabled()) {
        pool_tasks0 = obs::metrics().counter("pool.tasks").value();
        pool_wait_ns0 = obs::metrics().counter("pool.queue_wait_ns").value();
    }

    AnalysisResult result = std::visit(
        [&](const auto& s) {
            using T = std::decay_t<decltype(s)>;
            if constexpr (std::is_same_v<T, OpSpec>) {
                return run_op(s, observer);
            } else if constexpr (std::is_same_v<T, DcSweepSpec>) {
                return run_dc_sweep(s, observer);
            } else if constexpr (std::is_same_v<T, TranSpec>) {
                return run_tran(s, observer);
            } else if constexpr (std::is_same_v<T, MonteCarloSpec>) {
                return run_monte_carlo(s, observer);
            } else {
                return run_ensemble(s, observer);
            }
        },
        spec);

    result.header.cache_signature = signature_;
    result.header.elapsed_s = seconds_since(t0);

    // ---- RunReport: header + payload diagnostics in one flat record ---
    obs::RunReport& report = result.report;
    report.analysis = result.header.name;
    report.kind = analysis_kind_name(result.header.kind);
    report.engine = result.header.engine;
    report.elapsed_s = result.header.elapsed_s;
    report.aborted = result.header.aborted;
    // The solver work: the session cache's delta over this run, plus the
    // caches an ensemble driver built for its extra workers.
    obs::SolverWork& work = report;
    if (const auto it = caches_.find(signature_); it != caches_.end()) {
        work = it->second->stats().since(before);
    }
    std::visit(
        [&work](const auto& payload) {
            if constexpr (requires { payload.solver; }) {
                work += payload.solver;
            }
        },
        result.payload);
    report.cache_signature = result.header.cache_signature;
    std::visit(
        [&report](const auto& payload) {
            using T = std::decay_t<decltype(payload)>;
            if constexpr (std::is_same_v<T, engines::DcResult>) {
                report.steps_accepted =
                    static_cast<std::uint64_t>(payload.iterations);
            } else if constexpr (std::is_same_v<T, engines::SweepResult>) {
                report.trials = payload.values.size();
                report.nr_iterations =
                    static_cast<std::uint64_t>(payload.total_iterations);
            } else if constexpr (std::is_same_v<T, engines::TranResult>) {
                report.steps_accepted =
                    static_cast<std::uint64_t>(payload.steps_accepted);
                report.steps_rejected =
                    static_cast<std::uint64_t>(payload.steps_rejected);
                report.nr_iterations =
                    static_cast<std::uint64_t>(payload.nr_iterations);
                report.nonconverged_steps =
                    static_cast<std::uint64_t>(payload.nonconverged_steps);
                report.bounds = payload.step_bounds;
                report.min_dt = payload.min_dt_used;
                report.max_dt = payload.max_dt_used;
                report.rescues = payload.rescues;
            } else if constexpr (std::is_same_v<T, engines::McResult>) {
                report.trials = payload.stats.paths();
                report.rescues = payload.rescues;
                report.failed_trials =
                    static_cast<std::uint64_t>(payload.failed_trials.size());
            } else {
                // EmEnsembleResult: completed paths.
                report.trials = payload.stats.paths();
            }
        },
        result.payload);
    if (obs::metrics_enabled()) {
        report.pool_tasks =
            obs::metrics().counter("pool.tasks").value() - pool_tasks0;
        report.pool_queue_wait_s =
            static_cast<double>(
                obs::metrics().counter("pool.queue_wait_ns").value() -
                pool_wait_ns0) *
            1e-9;
    }
    return result;
}

std::vector<AnalysisResult>
SimSession::run_all(const std::vector<AnalysisSpec>& specs,
                    const engines::AnalysisObserver* observer) {
    std::vector<AnalysisResult> results;
    results.reserve(specs.size());
    for (const AnalysisSpec& spec : specs) {
        results.push_back(run(spec, observer));
        if (results.back().header.aborted ||
            (observer != nullptr && observer->cancelled())) {
            break; // the partial result is the last element
        }
    }
    return results;
}

std::vector<AnalysisResult>
SimSession::run_deck(const engines::AnalysisObserver* observer) {
    return run_all(specs_from_deck(deck_analyses_), observer);
}

std::vector<AnalysisSpec>
SimSession::specs_from_deck(const std::vector<AnalysisCard>& cards,
                            DcEngine dc_engine, TranEngine tran_engine) {
    std::vector<AnalysisSpec> specs;
    specs.reserve(cards.size());
    for (const AnalysisCard& card : cards) {
        if (std::holds_alternative<OpCard>(card)) {
            OpSpec spec;
            spec.engine = dc_engine;
            specs.emplace_back(std::move(spec));
        } else if (const auto* dc = std::get_if<DcCard>(&card)) {
            DcSweepSpec spec;
            spec.engine = dc_engine;
            spec.source = dc->source;
            spec.start = dc->start;
            spec.stop = dc->stop;
            spec.step = dc->step;
            specs.emplace_back(std::move(spec));
        } else if (const auto* tran = std::get_if<TranCard>(&card)) {
            TranSpec spec;
            spec.engine = tran_engine;
            spec.t_stop = tran->tstop;
            spec.common.dt_init = tran->tstep;
            specs.emplace_back(std::move(spec));
        }
    }
    return specs;
}

AnalysisResult SimSession::run_op(const OpSpec& spec,
                                  const engines::AnalysisObserver* observer) {
    AnalysisResult out;
    out.header.name = spec.name;
    out.header.kind = AnalysisKind::op;
    out.header.engine = engine_name(spec.engine);

    engines::DcResult dc;
    switch (spec.engine) {
    case DcEngine::swec: {
        engines::SwecDcOptions o;
        if (spec.common.abstol > 0.0) {
            o.settle_tol = spec.common.abstol;
        }
        dc = engines::solve_op_swec(*assembler_, o, 0.0, 1.0,
                                    &solver_cache(), observer);
        break;
    }
    case DcEngine::newton_raphson: {
        engines::NrOptions o;
        apply_tolerances(spec.common, o);
        dc = engines::solve_op_nr(*assembler_, o);
        break;
    }
    case DcEngine::mla: {
        engines::MlaOptions o;
        apply_tolerances(spec.common, o);
        dc = engines::solve_op_mla(*assembler_, o);
        break;
    }
    }
    out.header.aborted = dc.aborted;
    out.payload = std::move(dc);
    return out;
}

AnalysisResult
SimSession::run_dc_sweep(const DcSweepSpec& spec,
                         const engines::AnalysisObserver* observer) {
    AnalysisResult out;
    out.header.name = spec.name;
    out.header.kind = AnalysisKind::dc_sweep;
    out.header.engine = engine_name(spec.engine);

    // The engines' dc_sweep driver puts the swept source's original
    // stimulus back on every exit path.
    const linalg::Vector values = spec.values();
    engines::SweepResult sweep;
    switch (spec.engine) {
    case DcEngine::swec: {
        engines::SwecDcOptions o;
        if (spec.common.abstol > 0.0) {
            o.settle_tol = spec.common.abstol;
        }
        sweep = engines::dc_sweep_swec(*circuit_, *assembler_, spec.source,
                                       values, o, observer, &solver_cache());
        break;
    }
    case DcEngine::newton_raphson: {
        engines::NrOptions o;
        apply_tolerances(spec.common, o);
        sweep = engines::dc_sweep_nr(*circuit_, *assembler_, spec.source,
                                     values, o, observer);
        break;
    }
    case DcEngine::mla: {
        engines::MlaOptions o;
        apply_tolerances(spec.common, o);
        sweep = engines::dc_sweep_mla(*circuit_, *assembler_, spec.source,
                                      values, o, observer);
        break;
    }
    }
    out.header.aborted = sweep.aborted;
    out.payload = std::move(sweep);
    return out;
}

AnalysisResult SimSession::run_tran(const TranSpec& spec,
                                    const engines::AnalysisObserver* observer) {
    AnalysisResult out;
    out.header.name = spec.name;
    out.header.kind = AnalysisKind::tran;
    out.header.engine = engine_name(spec.engine);

    engines::TranResult tran;
    switch (spec.engine) {
    case TranEngine::swec: {
        engines::SwecTranOptions o;
        o.t_stop = spec.t_stop;
        o.dt_init = spec.common.dt_init;
        o.dt_min = spec.common.dt_min;
        o.dt_max = spec.common.dt_max;
        o.eps = spec.eps;
        o.adaptive = spec.adaptive;
        o.use_predictor = spec.use_predictor;
        o.growth_limit = spec.growth_limit;
        o.geq_floor = spec.geq_floor;
        o.start_from_dc = spec.start_from_dc;
        o.initial = spec.initial;
        o.noise = spec.noise;
        tran = engines::run_tran_swec(*assembler_, o, observer,
                                      &solver_cache());
        break;
    }
    case TranEngine::newton_raphson: {
        engines::NrTranOptions o;
        o.t_stop = spec.t_stop;
        o.dt_init = spec.common.dt_init;
        o.dt_min = spec.common.dt_min;
        o.dt_max = spec.common.dt_max;
        apply_tolerances(spec.common, o);
        o.start_from_dc = spec.start_from_dc;
        o.initial = spec.initial;
        o.noise = spec.noise;
        tran = engines::run_tran_nr(*assembler_, o, observer,
                                    &solver_cache());
        break;
    }
    case TranEngine::pwl: {
        engines::PwlTranOptions o;
        o.t_stop = spec.t_stop;
        o.dt_init = spec.common.dt_init;
        o.dt_min = spec.common.dt_min;
        o.dt_max = spec.common.dt_max;
        o.start_from_dc = spec.start_from_dc;
        o.initial = spec.initial;
        o.noise = spec.noise;
        tran = engines::run_tran_pwl(*assembler_, o, observer,
                                     &solver_cache());
        break;
    }
    }
    out.header.aborted = tran.aborted;
    out.payload = std::move(tran);
    return out;
}

AnalysisResult
SimSession::run_monte_carlo(const MonteCarloSpec& spec,
                            const engines::AnalysisObserver* observer) {
    AnalysisResult out;
    out.header.name = spec.name;
    out.header.kind = AnalysisKind::monte_carlo;
    out.header.engine = "swec"; // per-trial deterministic engine

    engines::McOptions mc;
    mc.runs = spec.runs;
    mc.t_stop = spec.t_stop;
    mc.noise_dt = spec.noise_dt;
    mc.grid_points = spec.grid_points;
    mc.tran = spec.tran;
    if (spec.common.dt_init > 0.0) {
        mc.tran.dt_init = spec.common.dt_init;
    }
    if (spec.common.dt_min > 0.0) {
        mc.tran.dt_min = spec.common.dt_min;
    }
    if (spec.common.dt_max > 0.0) {
        mc.tran.dt_max = spec.common.dt_max;
    }
    mc.checkpoint_every = spec.checkpoint_every;
    mc.resume = spec.resume;
    const NodeId node = circuit_->find_node(spec.node);
    for (const std::string& probe : spec.probes) {
        mc.probe_nodes.push_back(circuit_->find_node(probe));
    }

    // Worker 0 refactors through the session cache, so a one-worker
    // campaign never repeats the symbolic analysis.
    const runtime::ExecutionPolicy policy{spec.parallel ? spec.threads : 1};
    engines::McResult res = engines::run_monte_carlo(
        *assembler_, mc, spec.seed, node, policy, observer, &solver_cache());
    out.header.aborted = res.aborted;
    out.payload = std::move(res);
    return out;
}

AnalysisResult
SimSession::run_ensemble(const EnsembleSpec& spec,
                         const engines::AnalysisObserver* observer) {
    AnalysisResult out;
    out.header.name = spec.name;
    out.header.kind = AnalysisKind::ensemble;
    out.header.engine = spec.scheme == engines::EmScheme::explicit_em
                            ? "em-explicit"
                            : "em-implicit";

    engines::EmOptions o;
    o.t_stop = spec.t_stop;
    o.dt = spec.dt;
    o.scheme = spec.scheme;
    o.start_from_dc = spec.start_from_dc;
    o.initial = spec.initial;
    const engines::EmEngine engine(*assembler_, o);
    const NodeId node = circuit_->find_node(spec.node);

    // As for Monte-Carlo: worker 0 (the only one when !parallel) runs on
    // the session cache, which also solves the DC operating point.
    const runtime::ExecutionPolicy policy{spec.parallel ? spec.threads : 1};
    engines::EmEnsembleResult res =
        engines::run_em_ensemble(engine, spec.paths, spec.seed, node, policy,
                                 observer, &solver_cache());
    out.header.aborted = res.aborted;
    out.payload = std::move(res);
    return out;
}

runtime::CampaignResult
SimSession::sweep(const runtime::JobPlan& plan,
                  const runtime::CampaignOptions& options) const {
    if (!deck_text_) {
        throw AnalysisError(
            "SimSession::sweep: needs a deck-constructed session "
            "(use runtime::run_sweep_campaign with a circuit factory "
            "for programmatic circuits)");
    }
    const std::string text = *deck_text_;
    return runtime::run_sweep_campaign(
        plan, [text]() { return parse_deck(text).circuit; }, deck_analyses_,
        options);
}

} // namespace nanosim
