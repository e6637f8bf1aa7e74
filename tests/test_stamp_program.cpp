// Stamp-program fast path: bit-identity against the legacy stamping
// path and tabulated-model properties.
//
// The StampProgram (mna/stamp_program.hpp) promises that compiling the
// per-step work into flat slot/SoA plans changes NOTHING numerically:
// every engine must produce bit-identical step sequences and waveforms
// whether its SystemCache runs the compiled program or the legacy
// virtual-stamping path.  The legacy path has no chord tables, so the
// SWEC transient comparisons run the program with tables.enabled = false.
// The tabulated models are the one path that may deviate: at most
// TableConfig::rel_tol per accepted segment, not at all outside the
// table range or in a rejected segment.  test_chord_tables.cpp gates the
// default (tabulated) transients against the closed form.
//
// A Monte-Carlo trial is the one caller that hands the rhs a noise
// realization: StampProgram::eval_rhs on the program path,
// MnaAssembler::rhs on the legacy one.  A noisy RTD-mesh campaign gates
// that pair bit for bit, and its default (tabulated) run to 1e-6 of the
// closed form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "devices/sources.hpp"
#include "devices/tabulated.hpp"
#include "engines/dc_swec.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"

namespace nanosim {
namespace {

using analysis::Waveform;

mna::SystemCache::Options cache_options(bool program) {
    mna::SystemCache::Options o;
    o.use_stamp_program = program;
    return o;
}

/// Bitwise equality of two waveform sets (times AND values): the step
/// sequences themselves must match, not just interpolated samples.
void expect_waves_bit_identical(const std::vector<Waveform>& a,
                                const std::vector<Waveform>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t w = 0; w < a.size(); ++w) {
        ASSERT_EQ(a[w].size(), b[w].size()) << a[w].label();
        for (std::size_t i = 0; i < a[w].size(); ++i) {
            EXPECT_EQ(a[w].time_at(i), b[w].time_at(i))
                << a[w].label() << " @ " << i;
            EXPECT_EQ(a[w].value_at(i), b[w].value_at(i))
                << a[w].label() << " @ " << i;
        }
    }
}

/// The six reference circuits of the bit-identity table.  Each returns a
/// fresh circuit; `t_stop` scales with the circuit's time constants.
struct IdentityCase {
    std::string name;
    std::function<Circuit()> make;
    double t_stop;
    bool pwl_capable; ///< PWL engine supports every nonlinear device
};

std::vector<IdentityCase> identity_cases() {
    std::vector<IdentityCase> cases;
    cases.push_back({"rc_lowpass", [] { return refckt::rc_lowpass(); },
                     5e-6, true});
    cases.push_back({"rtd_divider",
                     [] {
                         Circuit ckt = refckt::rtd_divider();
                         ckt.get_mutable<VSource>("V1").set_wave(
                             std::make_shared<DcWave>(0.4));
                         return ckt;
                     },
                     1e-6, true});
    cases.push_back({"nanowire_divider",
                     [] {
                         Circuit ckt = refckt::nanowire_divider();
                         ckt.get_mutable<VSource>("V1").set_wave(
                             std::make_shared<DcWave>(1.0));
                         return ckt;
                     },
                     1e-6, true});
    cases.push_back({"fet_rtd_inverter",
                     [] { return refckt::fet_rtd_inverter(); }, 100e-9,
                     true});
    cases.push_back({"rtd_chain6",
                     [] {
                         refckt::ChainSpec spec;
                         spec.stages = 6;
                         return refckt::rtd_chain(spec);
                     },
                     100e-9, true});
    // Sparse solver path (> 64 unknowns) + RTDs at every node.
    cases.push_back({"rtd_mesh9x9",
                     [] {
                         refckt::MeshSpec spec;
                         spec.rows = 9;
                         spec.cols = 9;
                         spec.rtd_stride = 1;
                         return refckt::rc_mesh(spec);
                     },
                     50e-9, true});
    // Time-varying conductor (TV fast path) + noise source plumbing.
    cases.push_back({"fig10_noisy_transistor",
                     [] { return refckt::fig10_noisy_transistor(); }, 1e-9,
                     false});
    return cases;
}

// ---------------------------------------------------------------------------
// Program-vs-legacy bit-identity, per engine, on every reference circuit.
// ---------------------------------------------------------------------------

TEST(StampProgram, TranSwecBitIdentical) {
    for (const IdentityCase& c : identity_cases()) {
        SCOPED_TRACE(c.name);
        engines::SwecTranOptions o;
        o.t_stop = c.t_stop;
        o.tables.enabled = false; // the legacy path has no tables

        Circuit ckt_a = c.make();
        const mna::MnaAssembler asm_a(ckt_a);
        mna::SystemCache legacy(asm_a, cache_options(false));
        ASSERT_FALSE(legacy.has_program());
        const auto res_a = engines::run_tran_swec(asm_a, o, nullptr, &legacy);

        Circuit ckt_b = c.make();
        const mna::MnaAssembler asm_b(ckt_b);
        mna::SystemCache program(asm_b, cache_options(true));
        ASSERT_TRUE(program.has_program());
        const auto res_b =
            engines::run_tran_swec(asm_b, o, nullptr, &program);

        EXPECT_EQ(res_a.steps_accepted, res_b.steps_accepted);
        expect_waves_bit_identical(res_a.node_waves, res_b.node_waves);
    }
}

TEST(StampProgram, TranNrBitIdentical) {
    for (const IdentityCase& c : identity_cases()) {
        SCOPED_TRACE(c.name);
        engines::NrTranOptions o;
        o.t_stop = c.t_stop;

        Circuit ckt_a = c.make();
        const mna::MnaAssembler asm_a(ckt_a);
        mna::SystemCache legacy(asm_a, cache_options(false));
        const auto res_a = engines::run_tran_nr(asm_a, o, nullptr, &legacy);

        Circuit ckt_b = c.make();
        const mna::MnaAssembler asm_b(ckt_b);
        mna::SystemCache program(asm_b, cache_options(true));
        const auto res_b = engines::run_tran_nr(asm_b, o, nullptr, &program);

        EXPECT_EQ(res_a.nr_iterations, res_b.nr_iterations);
        expect_waves_bit_identical(res_a.node_waves, res_b.node_waves);
    }
}

TEST(StampProgram, TranPwlBitIdentical) {
    for (const IdentityCase& c : identity_cases()) {
        if (!c.pwl_capable) {
            continue;
        }
        SCOPED_TRACE(c.name);
        engines::PwlTranOptions o;
        o.t_stop = c.t_stop;

        Circuit ckt_a = c.make();
        const mna::MnaAssembler asm_a(ckt_a);
        mna::SystemCache legacy(asm_a, cache_options(false));
        const auto res_a = engines::run_tran_pwl(asm_a, o, nullptr, &legacy);

        Circuit ckt_b = c.make();
        const mna::MnaAssembler asm_b(ckt_b);
        mna::SystemCache program(asm_b, cache_options(true));
        const auto res_b =
            engines::run_tran_pwl(asm_b, o, nullptr, &program);

        expect_waves_bit_identical(res_a.node_waves, res_b.node_waves);
    }
}

TEST(StampProgram, DcSwecBitIdentical) {
    for (const IdentityCase& c : identity_cases()) {
        SCOPED_TRACE(c.name);
        Circuit ckt_a = c.make();
        const mna::MnaAssembler asm_a(ckt_a);
        mna::SystemCache legacy(asm_a, cache_options(false));
        const auto res_a =
            engines::solve_op_swec(asm_a, {}, 0.0, 1.0, &legacy);

        Circuit ckt_b = c.make();
        const mna::MnaAssembler asm_b(ckt_b);
        mna::SystemCache program(asm_b, cache_options(true));
        const auto res_b =
            engines::solve_op_swec(asm_b, {}, 0.0, 1.0, &program);

        EXPECT_EQ(res_a.converged, res_b.converged);
        EXPECT_EQ(res_a.iterations, res_b.iterations);
        ASSERT_EQ(res_a.x.size(), res_b.x.size());
        for (std::size_t i = 0; i < res_a.x.size(); ++i) {
            EXPECT_EQ(res_a.x[i], res_b.x[i]) << c.name << " x[" << i << "]";
        }
    }
}

/// rtd_mesh9x9 with white noise into its centre node n4_4.
Circuit noisy_rtd_mesh() {
    refckt::MeshSpec spec;
    spec.rows = 9;
    spec.cols = 9;
    spec.rtd_stride = 1;
    Circuit ckt = refckt::rc_mesh(spec);
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node("n4_4"),
                                1e-9);
    return ckt;
}

/// Six adaptive SWEC trials at n4_4 of noisy_rtd_mesh() (fixed seed, one
/// worker) on a fresh cache with or without the stamp program.
engines::McResult run_noisy_mesh_mc(bool program, bool tables) {
    Circuit ckt = noisy_rtd_mesh();
    const mna::MnaAssembler assembler(ckt);
    mna::SystemCache cache(assembler, cache_options(program));
    EXPECT_EQ(cache.has_program(), program);
    engines::McOptions mc;
    mc.runs = 6;
    mc.t_stop = 2e-9;
    mc.noise_dt = 2.5e-10;
    mc.grid_points = 26;
    mc.tran.tables.enabled = tables;
    return engines::run_monte_carlo(assembler, mc, 5, ckt.find_node("n4_4"),
                                    runtime::ExecutionPolicy{1}, nullptr,
                                    &cache);
}

TEST(StampProgram, MonteCarloBitIdentical) {
    const engines::McResult legacy = run_noisy_mesh_mc(false, false);
    const engines::McResult program = run_noisy_mesh_mc(true, false);
    ASSERT_EQ(legacy.trial_steps.size(), 6u);
    EXPECT_EQ(legacy.trial_steps, program.trial_steps);
    expect_waves_bit_identical({legacy.mean, legacy.stddev},
                               {program.mean, program.stddev});
}

TEST(TabulatedModels, MonteCarloWithinGateOfClosedForm) {
    // The default campaign reads its chords from tables; on the grid the
    // statistics are sampled on, its mean and stddev stay within 1e-6 of
    // each wave's max |v| on the closed-form (legacy) run.
    constexpr double k_tol = 1e-6;
    const engines::McResult exact = run_noisy_mesh_mc(false, false);
    const std::uint64_t before = chord_table_build_count();
    const engines::McResult tab = run_noisy_mesh_mc(true, true);
    EXPECT_GT(chord_table_build_count(), before);
    const Waveform* pairs[][2] = {{&exact.mean, &tab.mean},
                                  {&exact.stddev, &tab.stddev}};
    for (const auto& [we, wt] : pairs) {
        ASSERT_EQ(wt->size(), we->size()) << we->label();
        double dev = 0.0;
        double scale = 0.0;
        for (std::size_t j = 0; j < we->size(); ++j) {
            EXPECT_EQ(wt->time_at(j), we->time_at(j));
            dev = std::max(dev, std::abs(wt->value_at(j) - we->value_at(j)));
            scale = std::max(scale, std::abs(we->value_at(j)));
        }
        EXPECT_GT(scale, 0.0) << we->label();
        EXPECT_LE(dev, k_tol * scale) << we->label();
        std::cout << "  " << we->label() << ": max |dv| / max |v| = "
                  << dev / scale << '\n';
    }
}

// ---------------------------------------------------------------------------
// Fused RTD evaluators: bit-identical to the separate closed forms.
// ---------------------------------------------------------------------------

TEST(StampProgram, FusedRtdEvaluatorsBitIdentical) {
    const RtdParams p = RtdParams::date05();
    for (int i = -400; i <= 1200; ++i) {
        const double v = i * 5e-3; // -2 V .. 6 V, through all regions
        double cur = 0.0;
        double di = 0.0;
        rtd_math::current_and_didv(p, v, cur, di);
        EXPECT_EQ(cur, rtd_math::current(p, v)) << v;
        EXPECT_EQ(di, rtd_math::didv(p, v)) << v;

        double g = 0.0;
        double dg = 0.0;
        rtd_math::chord_and_dv(p, v, g, dg);
        EXPECT_EQ(g, rtd_math::chord(p, v)) << v;
        EXPECT_EQ(dg, rtd_math::chord_dv(p, v)) << v;
    }
    // The |v| < 1e-9 analytic-limit branch.
    double g0 = 0.0;
    double dg0 = 0.0;
    rtd_math::chord_and_dv(p, 0.0, g0, dg0);
    EXPECT_EQ(g0, rtd_math::chord(p, 0.0));
    EXPECT_EQ(dg0, rtd_math::chord_dv(p, 0.0));
}

// ---------------------------------------------------------------------------
// Tabulated models.
// ---------------------------------------------------------------------------

TEST(TabulatedModels, RtdChordAccurateAcrossAllRegions) {
    const RtdParams p = RtdParams::date05();
    const Rtd rtd("RTD1", 1, 0, p);
    TableStore store;
    TableConfig cfg;
    cfg.v_min = -1.0;
    cfg.v_max = 6.0;
    std::size_t builds = 0;
    const auto table = store.acquire(rtd, cfg, builds);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(builds, 1u);

    // Sweep PDR1, NDR and PDR2 explicitly (peak/valley from the model).
    const auto pv = rtd_math::find_peak_valley(p, 5.0);
    ASSERT_LT(pv.v_peak, pv.v_valley);
    auto sweep_region = [&](double lo, double hi) {
        double worst_chord = 0.0;
        constexpr int n = 700;
        for (int i = 0; i <= n; ++i) {
            const double v = lo + (hi - lo) * i / n;
            double g = 0.0;
            double dg = 0.0;
            ASSERT_TRUE(table->lookup(v, g, &dg))
                << "segment rejected at " << v;
            const double g_exact = rtd_math::chord(p, v);
            worst_chord =
                std::max(worst_chord, std::abs(g - g_exact) / std::abs(g_exact));
            // dG/dV is the exact derivative of the chord patch — a C1
            // model self-consistency, looser than the value accuracy.
            const double dg_exact = rtd_math::chord_dv(p, v);
            EXPECT_NEAR(dg, dg_exact, 1e-4 * std::max(std::abs(dg_exact), 1e-4))
                << v;
        }
        EXPECT_LE(worst_chord, 1e-6);
    };
    sweep_region(0.05, pv.v_peak);            // PDR1
    sweep_region(pv.v_peak, pv.v_valley);     // NDR
    sweep_region(pv.v_valley, 5.0);           // PDR2

    double g = 0.0;
    EXPECT_FALSE(table->lookup(cfg.v_max + 1.0, g));
    EXPECT_FALSE(table->lookup(cfg.v_min - 1.0, g));
    EXPECT_TRUE(table->contains(0.0));
}

TEST(TabulatedModels, AccuracyGateRejectsCoarseTables) {
    // A 16-point table over the default range misses the 1e-6 gate in
    // every segment, so every lookup answers "closed form" and the
    // transient is BIT-identical to the closed-form run.
    TableConfig coarse;
    coarse.points = 16; // far too coarse for 1e-6 over 10 V
    const Rtd rtd("RTD1", 1, 0, RtdParams::date05());
    TableStore store;
    std::size_t builds = 0;
    const auto table = store.acquire(rtd, coarse, builds);
    ASSERT_NE(table, nullptr);
    const double h =
        (coarse.v_max - coarse.v_min) / static_cast<double>(coarse.points - 1);
    for (std::size_t i = 0; i + 1 < coarse.points; ++i) {
        for (const double t : {0.0, 0.25, 0.5, 0.75}) {
            double g = 0.0;
            EXPECT_FALSE(table->lookup(
                coarse.v_min + h * (static_cast<double>(i) + t), g))
                << "segment " << i;
        }
    }

    engines::SwecTranOptions exact;
    exact.t_stop = 100e-9;
    exact.tables.enabled = false;
    engines::SwecTranOptions tab = exact;
    tab.tables = coarse;

    Circuit ckt_a = refckt::fet_rtd_inverter();
    const mna::MnaAssembler asm_a(ckt_a);
    const auto res_a = engines::run_tran_swec(asm_a, exact);

    Circuit ckt_b = refckt::fet_rtd_inverter();
    const mna::MnaAssembler asm_b(ckt_b);
    mna::SystemCache cache_b(asm_b);
    const auto res_b = engines::run_tran_swec(asm_b, tab, nullptr, &cache_b);
    EXPECT_EQ(cache_b.tabulated_devices(), 2u); // bound, never used

    EXPECT_EQ(res_a.steps_accepted, res_b.steps_accepted);
    expect_waves_bit_identical(res_a.node_waves, res_b.node_waves);
}

TEST(TabulatedModels, ExactFallbackOutsideTableRange) {
    // Operate the RTD divider at 2 V with a table covering only
    // [-0.1, 0.1]: every evaluation falls outside the range, so the
    // tabulated run must be BIT-identical to the closed-form run.
    auto make = [] {
        Circuit ckt = refckt::rtd_divider();
        ckt.get_mutable<VSource>("V1").set_wave(
            std::make_shared<DcWave>(2.0));
        return ckt;
    };
    engines::SwecTranOptions exact;
    exact.t_stop = 1e-6;
    exact.tables.enabled = false;
    engines::SwecTranOptions tab = exact;
    tab.tables.enabled = true;
    tab.tables.v_min = -0.1;
    tab.tables.v_max = 0.1;

    Circuit ckt_a = make();
    const mna::MnaAssembler asm_a(ckt_a);
    const auto res_a = engines::run_tran_swec(asm_a, exact);

    Circuit ckt_b = make();
    const mna::MnaAssembler asm_b(ckt_b);
    const auto res_b = engines::run_tran_swec(asm_b, tab);

    expect_waves_bit_identical(res_a.node_waves, res_b.node_waves);
}

TEST(TabulatedModels, TablesBuiltOncePerMonteCarloBatch) {
    // 6 identical RTDs + a noise source: ONE table build serves every
    // device and every trial (and the next batch on the same cache).
    refckt::ChainSpec spec;
    spec.stages = 6;
    Circuit ckt = refckt::rtd_chain(spec);
    ckt.add<NoiseCurrentSource>("NOISE1", k_ground, ckt.find_node("n3"),
                                1e-9);
    const mna::MnaAssembler assembler(ckt);
    mna::SystemCache cache(assembler);

    engines::McOptions mc; // tabulated chords: the default
    mc.runs = 5;
    mc.t_stop = 10e-9;
    mc.noise_dt = 5e-10;
    mc.grid_points = 11;

    auto batch = [&](std::uint64_t seed) {
        auto res = engines::run_monte_carlo(
            assembler, mc, seed, ckt.find_node("n3"),
            runtime::ExecutionPolicy{1}, nullptr, &cache);
        EXPECT_EQ(res.mean.size(), mc.grid_points);
        return res;
    };

    const std::uint64_t before = chord_table_build_count();
    const engines::McResult first = batch(1);
    EXPECT_EQ(chord_table_build_count() - before, 1u)
        << "identical RTDs across all trials must share one table";
    EXPECT_EQ(cache.stats().tables_built, 1u);
    EXPECT_EQ(cache.tabulated_devices(), 6u);

    (void)batch(2);
    EXPECT_EQ(chord_table_build_count() - before, 1u)
        << "a second batch on the same cache must reuse the store";

    // The first batch filled the table; a rerun of its seed finds it
    // filled.  Table work is set-up and charges no flops, so the flop
    // total (like every output) must not depend on that history.
    const engines::McResult third = batch(1);
    EXPECT_EQ(third.flops.summary(), first.flops.summary());
    EXPECT_EQ(third.mean.value(), first.mean.value());
    EXPECT_EQ(third.stddev.value(), first.stddev.value());
}

// ---------------------------------------------------------------------------
// Step-time attribution (SolverWork split).
// ---------------------------------------------------------------------------

TEST(StampProgram, StepTimeSplitReported) {
    SimSession session(refckt::fet_rtd_inverter());
    TranSpec spec;
    spec.t_stop = 100e-9;
    const auto res = session.run(spec);
    const SolverWork& sw = res.header.solver;
    // The transient must attribute nonzero time to evaluation, stamping
    // and factorisation (solve_s folds into factor on the dense path
    // only for the construction; all four are cumulative timers).
    EXPECT_GT(sw.eval_s, 0.0);
    EXPECT_GT(sw.stamp_s, 0.0);
    EXPECT_GT(sw.factor_s, 0.0);
    EXPECT_GT(sw.solve_s, 0.0);
    EXPECT_GE(sw.tables_built, 1u); // SWEC transients use tables
}

} // namespace
} // namespace nanosim
