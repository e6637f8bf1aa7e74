// Nano-Sim — persistent simulation session: ONE circuit, MANY analyses,
// one solver cache.
//
// Nano-Sim's value proposition is running many analyses over one circuit
// (SWEC transients, DC sweeps, Monte-Carlo/EM ensembles — paper
// Secs. 3-5).  The engines each know how to reuse a frozen stamp pattern
// *within* an analysis (mna::SystemCache); SimSession extends that reuse
// *across* analyses: it owns the assembler plus ONE SystemCache, built by
// the first run and rebound by reassemble(), so a DC sweep followed by a
// transient followed by 500 Monte-Carlo trials performs the symbolic LU
// analysis exactly once instead of re-freezing per call.
//
//     SimSession session = SimSession::from_deck_file("x.cir");
//     auto op   = session.run(OpSpec{});
//     auto dc   = session.run(DcSweepSpec{.source = "V1",
//                                         .start = 0, .stop = 5, .step = .1});
//     auto tran = session.run(TranSpec{.t_stop = 1e-6});   // same symbolic LU
//     auto all  = session.run_deck();                      // parsed cards
//
// Every run accepts an engines::AnalysisObserver for progress reporting
// and cooperative cancellation.  run()/run_all()/run_deck() are the
// single execution path shared by library callers, the CLI, the service
// and the sweep-campaign jobs.
#ifndef NANOSIM_CORE_SIM_SESSION_HPP
#define NANOSIM_CORE_SIM_SESSION_HPP

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis_spec.hpp"
#include "engines/observer.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"
#include "netlist/parser.hpp"
#include "runtime/sweep.hpp"

namespace nanosim {

/// Persistent analysis session over one circuit.
class SimSession {
public:
    /// Take ownership of a programmatically built circuit.
    explicit SimSession(Circuit circuit);

    /// Build from deck text / file (see netlist/parser.hpp).  The deck's
    /// analysis cards become run_deck()'s work list; the deck text is
    /// kept so sweep() can mint per-job circuits.
    [[nodiscard]] static SimSession from_deck(const std::string& deck_text);
    [[nodiscard]] static SimSession from_deck_file(const std::string& path);

    [[nodiscard]] const Circuit& circuit() const noexcept {
        return *circuit_;
    }
    [[nodiscard]] Circuit& circuit() noexcept { return *circuit_; }
    [[nodiscard]] const mna::MnaAssembler& assembler() const {
        return *assembler_;
    }
    [[nodiscard]] const std::vector<AnalysisCard>& deck_analyses() const {
        return deck_analyses_;
    }

    /// Re-assemble after mutating the circuit.  With the unknown count
    /// unchanged the cache is rebound in place (SystemCache::rebind: the
    /// symbolic LU analysis survives a pattern that still fits, such as a
    /// parameter tweak; a grown pattern re-freezes); otherwise it is
    /// dropped and the next run builds a fresh one.
    void reassemble();

    // ---- the single execution path ----

    /// Run one analysis.  The observer (optional) receives progress /
    /// per-step / per-trial callbacks and may cancel cooperatively — a
    /// cancelled run returns its partial result with header.aborted set.
    /// When the spec's CommonOptions::deadline_s is positive the observer
    /// is additionally wrapped with engines::with_deadline, so a run that
    /// outlives its wall-clock budget (measured from this call, including
    /// any wait for the session lock) aborts through the same cooperative
    /// path.
    ///
    /// CONCURRENCY CONTRACT: run()/run_all()/run_deck()/reassemble()
    /// serialize on an internal mutex — concurrent calls from DIFFERENT
    /// threads are safe (they share the persistent
    /// solver cache and block each other; the service worker pool relies
    /// on exactly this).  A RE-ENTRANT run() from the same thread (e.g.
    /// from inside an observer callback) would self-deadlock and throws
    /// AnalysisError instead.  Note dc-sweep specs swap the source
    /// stimulus under the same lock.
    [[nodiscard]] AnalysisResult
    run(const AnalysisSpec& spec,
        const engines::AnalysisObserver* observer = nullptr);

    /// Run a batch in order, sharing the session cache throughout.  A
    /// cancel stops after the current analysis (its partial result is the
    /// last element returned).
    [[nodiscard]] std::vector<AnalysisResult>
    run_all(const std::vector<AnalysisSpec>& specs,
            const engines::AnalysisObserver* observer = nullptr);

    /// Run the deck's analysis cards (.op/.dc/.tran) with default
    /// engines — run_all(specs_from_deck(deck_analyses())).
    [[nodiscard]] std::vector<AnalysisResult>
    run_deck(const engines::AnalysisObserver* observer = nullptr);

    /// Map parsed deck cards onto specs; the engine arguments let the
    /// CLI apply its --engine override uniformly.
    [[nodiscard]] static std::vector<AnalysisSpec>
    specs_from_deck(const std::vector<AnalysisCard>& cards,
                    DcEngine dc_engine = DcEngine::swec,
                    TranEngine tran_engine = TranEngine::swec);

    // ---- batch / parallel orchestration (runtime subsystem) ----

    /// Parameter-sweep campaign over the deck this session was parsed
    /// from (each grid point re-parses the deck and runs its cards in a
    /// per-job SimSession).  Requires deck-based construction; throws
    /// AnalysisError for programmatic circuits — use
    /// runtime::run_sweep_campaign with your own factory there.
    [[nodiscard]] runtime::CampaignResult
    sweep(const runtime::JobPlan& plan,
          const runtime::CampaignOptions& options = {}) const;

    // ---- solver cache ----

    /// The session's one solver cache, built by the first call; every
    /// engine reached through run() shares it.  Its signature() is each
    /// result's header.cache_signature.
    [[nodiscard]] mna::SystemCache& solver_cache();

private:
    explicit SimSession(ParsedDeck deck);

    // Per-kind executors (all funnel through the shared cache).
    [[nodiscard]] AnalysisResult
    run_op(const OpSpec& spec, const engines::AnalysisObserver* observer);
    [[nodiscard]] AnalysisResult
    run_dc_sweep(const DcSweepSpec& spec,
                 const engines::AnalysisObserver* observer);
    [[nodiscard]] AnalysisResult
    run_tran(const TranSpec& spec, const engines::AnalysisObserver* observer);
    [[nodiscard]] AnalysisResult
    run_monte_carlo(const MonteCarloSpec& spec,
                    const engines::AnalysisObserver* observer);
    [[nodiscard]] AnalysisResult
    run_ensemble(const EnsembleSpec& spec,
                 const engines::AnalysisObserver* observer);

    /// Behind a stable pointer: the assembler and the cached solvers hold
    /// raw pointers into the circuit/assembler, so moving a SimSession
    /// must not relocate either object.
    std::unique_ptr<Circuit> circuit_;
    std::vector<AnalysisCard> deck_analyses_;
    /// Deck source text when parsed from a deck — sweep()'s factory
    /// re-parses it to mint per-job circuits.
    std::optional<std::string> deck_text_;
    std::unique_ptr<mna::MnaAssembler> assembler_;
    /// Null until the first solver_cache() call, and after a reassemble()
    /// that changed the unknown count.
    std::unique_ptr<mna::SystemCache> cache_;
    /// Serializes run()/reassemble(): analyses share the cache above.
    /// Behind a pointer so sessions stay movable.
    std::unique_ptr<std::mutex> run_mutex_ = std::make_unique<std::mutex>();
    /// Thread currently inside run() (default id = none) — detects the
    /// self-deadlocking re-entrant call the concurrency contract forbids.
    std::unique_ptr<std::atomic<std::thread::id>> running_thread_ =
        std::make_unique<std::atomic<std::thread::id>>();
};

} // namespace nanosim

#endif // NANOSIM_CORE_SIM_SESSION_HPP
