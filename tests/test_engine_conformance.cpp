// Cross-engine conformance suite: every reference circuit is run through
// the SWEC, NR and PWL transient engines and the engines must agree —
// final state within `final_tol`, full waveform within `rms_tol` (RMS) and
// `max_tol` (pointwise) per node.  The suite is table-driven: add a row to
// cases() and a new circuit is enrolled against every engine pair.
//
// Tolerance notes.  The engines integrate the same ODE with different
// linearisations (chord vs tangent vs segment table) and different
// adaptive step sequences, so pointwise agreement is limited by step
// placement around switching edges; the RMS bound is the meaningful
// cross-engine metric and the pointwise bound is a guard against gross
// divergence (wrong branch, oscillation, runaway).  Linear circuits get
// tight bounds; NDR switching circuits get documented looser ones.
//
// The suite also asserts the cached-solver contract (PR: pattern-reusing
// solver path): the accepted-step loop of every engine must run through
// mna::SystemCache — dense solves below the auto-select threshold, and on
// sparse systems at most a handful of full symbolic factorisations no
// matter how many steps were taken.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "core/ref_circuits.hpp"
#include "devices/sources.hpp"
#include "engines/dc_swec.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

using analysis::Waveform;
using engines::TranResult;

struct ConformanceCase {
    std::string name;
    std::function<Circuit()> make;
    double t_stop = 0.0;
    double final_tol = 0.0; ///< |v_a(t_stop) - v_b(t_stop)| bound [V]
    double rms_tol = 0.0;   ///< RMS waveform difference bound [V]
    double max_tol = 0.0;   ///< pointwise waveform difference bound [V]
};

std::vector<ConformanceCase> cases() {
    std::vector<ConformanceCase> all;

    // Linear RC: every engine is backward Euler here, differences come
    // only from step placement.
    all.push_back({"rc_lowpass", [] { return refckt::rc_lowpass(); },
                   5e-6, 5e-3, 2e-2, 6e-2});

    // RTD divider driven in its first positive-conductance region: a
    // static nonlinear conformance point (no reactances), unique solution.
    all.push_back({"rtd_divider_pdr",
                   [] {
                       Circuit ckt = refckt::rtd_divider();
                       ckt.get_mutable<VSource>("V1").set_wave(
                           std::make_shared<DcWave>(0.4));
                       return ckt;
                   },
                   1e-6, 2e-2, 2e-2, 5e-2});

    // Nanowire divider, same idea with the staircase I-V.
    all.push_back({"nanowire_divider",
                   [] {
                       Circuit ckt = refckt::nanowire_divider();
                       ckt.get_mutable<VSource>("V1").set_wave(
                           std::make_shared<DcWave>(1.0));
                       return ckt;
                   },
                   1e-6, 5e-2, 5e-2, 1.5e-1});

    // MOBILE inverter (Fig. 8): NDR switching — step-placement skew
    // around the edges dominates the pointwise bound.
    all.push_back({"fet_rtd_inverter",
                   [] { return refckt::fet_rtd_inverter(); },
                   200e-9, 1.0, 1.0, 3.0});

    // Small RTD chain: multiple coupled NDR stages with RC loading.
    all.push_back({"rtd_chain_3",
                   [] {
                       refckt::ChainSpec spec;
                       spec.stages = 3;
                       return refckt::rtd_chain(spec);
                   },
                   150e-9, 1.0, 1.0, 3.0});

    return all;
}

class EngineConformance : public ::testing::TestWithParam<ConformanceCase> {};

void expect_agreement(const Circuit& ckt, const TranResult& a,
                      const TranResult& b, const ConformanceCase& c,
                      const std::string& pair) {
    ASSERT_EQ(a.node_waves.size(), b.node_waves.size());
    for (std::size_t i = 0; i < a.node_waves.size(); ++i) {
        const Waveform& wa = a.node_waves[i];
        const Waveform& wb = b.node_waves[i];
        const std::string where =
            c.name + " " + pair + " node " + ckt.node_name(
                static_cast<NodeId>(i + 1));
        ASSERT_FALSE(wa.empty()) << where;
        ASSERT_FALSE(wb.empty()) << where;
        const double final_diff =
            std::abs(wa.value().back() - wb.value().back());
        EXPECT_LE(final_diff, c.final_tol) << where << " final";
        const double rms = analysis::measure::rms_error(wa, wb);
        EXPECT_LE(rms, c.rms_tol) << where << " rms";
        const double maxd = analysis::measure::max_abs_error(wa, wb);
        EXPECT_LE(maxd, c.max_tol) << where << " max";
    }
}

/// Every solve must have gone through the cached system: on small (dense
/// auto-select) systems all solves are dense; on sparse systems nearly
/// every step must be a fast refactor.
void expect_cached_path(const mna::SystemCache& cache,
                        const std::string& who) {
    const mna::SystemCache::Stats& s = cache.stats();
    const std::size_t solves =
        s.dense_solves + s.full_factors + s.fast_refactors;
    EXPECT_GT(solves, 0u) << who << ": no cached solves recorded";
    if (s.dense_solves == 0) {
        EXPECT_LE(s.full_factors, 3u)
            << who << ": sparse path refactored from scratch too often";
    }
}

/// Every engine records each accepted time once: all node waves hold
/// the same time-axis object, one sample per accepted step plus t = 0.
void expect_one_axis(const TranResult& r, const std::string& who) {
    ASSERT_FALSE(r.node_waves.empty()) << who;
    const std::vector<double>& axis = r.node_waves.front().time();
    EXPECT_EQ(axis.size(), static_cast<std::size_t>(r.steps_accepted) + 1)
        << who;
    for (const Waveform& w : r.node_waves) {
        EXPECT_EQ(&w.time(), &axis) << who << " " << w.label();
    }
}

TEST_P(EngineConformance, SwecNrPwlAgree) {
    const ConformanceCase c = GetParam();
    Circuit ckt = c.make();
    const mna::MnaAssembler assembler(ckt);

    engines::SwecTranOptions sopt;
    sopt.t_stop = c.t_stop;
    mna::SystemCache swec_cache(assembler);
    const TranResult swec =
        engines::run_tran_swec(assembler, sopt, nullptr, &swec_cache);

    engines::NrTranOptions nopt;
    nopt.t_stop = c.t_stop;
    nopt.lte_tol = 1e-4; // matched-accuracy configuration (measured)
    mna::SystemCache nr_cache(assembler);
    const TranResult nr =
        engines::run_tran_nr(assembler, nopt, nullptr, &nr_cache);

    engines::PwlTranOptions popt;
    popt.t_stop = c.t_stop;
    popt.segments = 256; // table resolution below the conformance bounds
    mna::SystemCache pwl_cache(assembler);
    const TranResult pwl =
        engines::run_tran_pwl(assembler, popt, nullptr, &pwl_cache);

    expect_agreement(ckt, swec, nr, c, "swec-vs-nr");
    expect_agreement(ckt, swec, pwl, c, "swec-vs-pwl");

    expect_cached_path(swec_cache, c.name + " swec");
    expect_cached_path(nr_cache, c.name + " nr");
    expect_cached_path(pwl_cache, c.name + " pwl");

    expect_one_axis(swec, c.name + " swec");
    expect_one_axis(nr, c.name + " nr");
    expect_one_axis(pwl, c.name + " pwl");

    // SWEC's core promise: one linear solve per accepted step, no NR.
    EXPECT_EQ(swec.nr_iterations, 0);
}

INSTANTIATE_TEST_SUITE_P(RefCircuits, EngineConformance,
                         ::testing::ValuesIn(cases()),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Cached-solver contract on a genuinely sparse system: the accepted-step
// loop must pay for the symbolic analysis exactly once (the acceptance
// criterion "no per-step triplet rebuild / symbolic refactorisation").

TEST(EngineConformance, SparseChainReusesSymbolicFactorisation) {
    refckt::ChainSpec spec;
    spec.stages = 100; // ~101 nodes + 1 branch: far above dense threshold
    Circuit ckt = refckt::rtd_chain(spec);
    const mna::MnaAssembler assembler(ckt);

    engines::SwecTranOptions opt;
    opt.t_stop = 40e-9;
    mna::SystemCache cache(assembler);
    const TranResult res =
        engines::run_tran_swec(assembler, opt, nullptr, &cache);
    const mna::SystemCache::Stats& s = cache.stats();

    ASSERT_GT(res.steps_accepted, 10);
    EXPECT_EQ(s.dense_solves, 0u);
    // One symbolic factorisation for the whole run (the DC operating
    // point shares the cache); every accepted step is a fast refactor.
    EXPECT_LE(s.full_factors, 2u)
        << "accepted-step loop is re-running the symbolic analysis";
    EXPECT_GE(s.fast_refactors,
              static_cast<std::size_t>(res.steps_accepted) - 2)
        << "accepted steps are not using the pattern-reusing refactor";
}

TEST(EngineConformance, NodeListRecordsTheSameRowsAsAFullRun) {
    refckt::ChainSpec spec;
    spec.stages = 3;
    const Circuit ckt = refckt::rtd_chain(spec);
    const mna::MnaAssembler assembler(ckt);
    engines::SwecTranOptions opt;
    opt.t_stop = 150e-9;
    const TranResult full = engines::run_tran_swec(assembler, opt);

    const NodeId n1 = ckt.find_node("n1");
    const NodeId n3 = ckt.find_node("n3");
    const std::vector<NodeId> nodes{n3, n1, n3}; // n3 twice: recorded once
    const TranResult part =
        engines::run_tran_swec(assembler, opt, nullptr, nullptr, nodes);
    EXPECT_EQ(part.steps_accepted, full.steps_accepted);
    ASSERT_EQ(part.node_waves.size(), full.node_waves.size());
    for (std::size_t i = 0; i < part.node_waves.size(); ++i) {
        const Waveform& w = part.node_waves[i];
        const auto id = static_cast<NodeId>(i + 1);
        if (id != n1 && id != n3) {
            EXPECT_TRUE(w.empty()) << ckt.node_name(id);
            continue;
        }
        // Bit-identical rows: the node list changes what is kept, never
        // what is computed.
        EXPECT_EQ(w.label(), full.node_waves[i].label());
        EXPECT_EQ(w.time(), full.node_waves[i].time());
        EXPECT_EQ(w.value(), full.node_waves[i].value());
    }
    EXPECT_EQ(&part.node(ckt, "n1").time(), &part.node(ckt, "n3").time());

    // An unrecorded node, ground and an unknown name are NetlistErrors.
    EXPECT_THROW((void)part.node(ckt, "n2"), NetlistError);
    EXPECT_THROW((void)part.node(ckt, "0"), NetlistError);
    EXPECT_THROW((void)full.node(ckt, "0"), NetlistError);
    EXPECT_THROW((void)full.node(ckt, "no_such_node"), NetlistError);
    EXPECT_NO_THROW((void)full.node(ckt, "n2"));

    const std::vector<NodeId> ground{k_ground};
    EXPECT_THROW((void)engines::run_tran_swec(assembler, opt, nullptr,
                                              nullptr, ground),
                 AnalysisError);
}

TEST(EngineConformance, DcSweepSharesOneSymbolicAnalysis) {
    refckt::ChainSpec spec;
    spec.stages = 100;
    Circuit ckt = refckt::rtd_chain(spec);

    linalg::Vector values;
    for (double v = 0.0; v <= 2.0 + 1e-12; v += 0.5) {
        values.push_back(v);
    }
    const engines::SweepResult sweep =
        engines::dc_sweep_swec(ckt, "V1", values);
    ASSERT_EQ(sweep.solutions.size(), values.size());
    for (std::size_t i = 0; i < sweep.converged.size(); ++i) {
        EXPECT_TRUE(sweep.converged[i]) << "sweep point " << i;
    }
}

} // namespace
} // namespace nanosim
