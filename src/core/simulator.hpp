// Nano-Sim — top-level simulator facade (back-compat shim).
//
// Historically the one-object entry point; since the AnalysisSpec API
// redesign it is a thin veneer over SimSession: every call builds the
// equivalent spec and executes it through the session's single execution
// path, so facade users share the session's persistent solver cache —
// an operating point followed by a sweep followed by a transient runs
// ONE symbolic LU analysis.
//
//     nanosim::Simulator sim = nanosim::Simulator::from_deck_file("x.cir");
//     auto tran = sim.transient({.t_stop = 1e-6});             // SWEC
//     auto tran_spice = sim.transient({.t_stop = 1e-6},
//                                     nanosim::TranEngine::newton_raphson);
//
// New code should prefer SimSession + AnalysisSpec directly (observer
// support, uniform result headers, run_deck); see core/sim_session.hpp
// and the README migration table.
#ifndef NANOSIM_CORE_SIMULATOR_HPP
#define NANOSIM_CORE_SIMULATOR_HPP

#include <string>

#include "core/analysis_spec.hpp"
#include "core/sim_session.hpp"
#include "engines/dc_mla.hpp"
#include "engines/dc_nr.hpp"
#include "engines/dc_swec.hpp"
#include "engines/em_engine.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/parallel.hpp"
#include "engines/results.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"
#include "netlist/parser.hpp"
#include "runtime/sweep.hpp"

namespace nanosim {

/// Facade over SimSession, returning engine-native result types.
class Simulator {
public:
    /// Take ownership of a programmatically built circuit.
    explicit Simulator(Circuit circuit) : session_(std::move(circuit)) {}

    /// Build from deck text / file (see netlist/parser.hpp for grammar).
    [[nodiscard]] static Simulator from_deck(const std::string& deck_text) {
        return Simulator(SimSession::from_deck(deck_text));
    }
    [[nodiscard]] static Simulator from_deck_file(const std::string& path) {
        return Simulator(SimSession::from_deck_file(path));
    }

    [[nodiscard]] const Circuit& circuit() const noexcept {
        return session_.circuit();
    }
    [[nodiscard]] Circuit& circuit() noexcept { return session_.circuit(); }
    [[nodiscard]] const mna::MnaAssembler& assembler() const {
        return session_.assembler();
    }

    /// Analyses requested by the deck (.op/.dc/.tran cards), if parsed.
    [[nodiscard]] const std::vector<AnalysisCard>& deck_analyses() const {
        return session_.deck_analyses();
    }

    /// The underlying session (specs, observers, cache registry).
    [[nodiscard]] SimSession& session() noexcept { return session_; }
    [[nodiscard]] const SimSession& session() const noexcept {
        return session_;
    }

    /// Re-assemble after mutating the circuit (source swaps etc.).
    void reassemble() { session_.reassemble(); }

    // ---- analyses ----

    /// DC operating point with the selected engine.
    [[nodiscard]] engines::DcResult
    operating_point(DcEngine engine = DcEngine::swec) const;

    /// DC sweep of a named V/I source.  The source's stimulus is
    /// restored afterwards (exception-safe) — see SourceWaveGuard.
    [[nodiscard]] engines::SweepResult
    dc_sweep(const std::string& source, double start, double stop,
             double step, DcEngine engine = DcEngine::swec);

    /// Transient with the selected engine.  For non-SWEC engines the
    /// SWEC-specific options map onto the equivalents (dt limits, IC).
    [[nodiscard]] engines::TranResult
    transient(const engines::SwecTranOptions& options,
              TranEngine engine = TranEngine::swec) const;

    /// Euler-Maruyama stochastic ensemble on a node.
    [[nodiscard]] engines::EmEnsembleResult
    stochastic_ensemble(const engines::EmOptions& options, int paths,
                        const std::string& node,
                        std::uint64_t seed = 1) const;

    /// Monte-Carlo baseline on a node, on the policy's worker count (one
    /// by default); bit-identical at any count.
    [[nodiscard]] engines::McResult
    monte_carlo(const engines::McOptions& options, const std::string& node,
                std::uint64_t seed = 1,
                const runtime::ExecutionPolicy& policy =
                    runtime::ExecutionPolicy{1}) const;

    // ---- batch / parallel orchestration (runtime subsystem) ----

    /// Parameter-sweep campaign over the deck this simulator was parsed
    /// from (see SimSession::sweep).
    [[nodiscard]] runtime::CampaignResult
    sweep(const runtime::JobPlan& plan,
          const runtime::CampaignOptions& options = {}) const {
        return session_.sweep(plan, options);
    }

    /// Parallel Euler-Maruyama ensemble (bit-reproducible for any thread
    /// count; see engines/parallel.hpp for the seed contract).
    [[nodiscard]] engines::EmEnsembleResult
    ensemble(const engines::EmOptions& options, int paths,
             const std::string& node, std::uint64_t seed = 1,
             const runtime::ExecutionPolicy& policy = {}) const;

private:
    explicit Simulator(SimSession session) : session_(std::move(session)) {}

    /// Mutable: the session's persistent solver cache is a memoization
    /// detail — the facade keeps its historical const signatures (only
    /// dc_sweep, which swaps the source stimulus, stays non-const).
    mutable SimSession session_;
};

} // namespace nanosim

#endif // NANOSIM_CORE_SIMULATOR_HPP
