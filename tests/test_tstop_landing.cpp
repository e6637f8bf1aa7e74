// Regression suite for the t_stop-landing and breakpoint-tolerance fixes.
//
// Bug 1: all three transient engines looped `while (t < t_stop - dt_min)`
// and dropped the trailing sliver, so the last recorded point was up to
// dt_min short of the horizon — sweep-campaign "tranN.final.v(...)"
// metrics and Monte-Carlo's wave.at(t_stop) silently read a clamped/held
// value.  The fix merges the sliver into the last full step; these tests
// assert t_end() == t_stop EXACTLY (bitwise) for SWEC, NR and PWL.
//
// Bug 2: breakpoint snapping used an absolute 1e-18 s tolerance.  At
// femtosecond scales every source corner was "already passed" at t = 0
// (1e-18 s is 1000x the whole run) and corners were skipped; at second
// scales duplicate corners 1e-15 s apart were never coalesced and forced
// degenerate sliver steps.  The tolerance is now relative to t_stop
// (engines::breakpoint_snap_tol), and MnaAssembler::breakpoints
// deduplicates with the same relative tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/ref_circuits.hpp"
#include "devices/passives.hpp"
#include "devices/sources.hpp"
#include "engines/monte_carlo.hpp"
#include "engines/step_control.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"

namespace nanosim {
namespace {

using engines::TranResult;

void expect_lands_on_tstop(const TranResult& res, double t_stop,
                           const std::string& who) {
    ASSERT_FALSE(res.node_waves.empty()) << who;
    for (const auto& wave : res.node_waves) {
        ASSERT_FALSE(wave.empty()) << who;
        // Exact equality is the contract: the final step solves AT
        // t_stop, not near it.
        EXPECT_EQ(wave.t_end(), t_stop) << who << " wave " << wave.label();
    }
}

// t_stop chosen so the default dt sequence cannot hit it by accident:
// an irrational-looking fraction of the natural step.
constexpr double k_awkward_tstop = 5.000000123e-6;

TEST(TstopLanding, SwecLandsExactly) {
    const Circuit ckt = refckt::rc_lowpass();
    const mna::MnaAssembler assembler(ckt);
    engines::SwecTranOptions opt;
    opt.t_stop = k_awkward_tstop;
    const TranResult res = engines::run_tran_swec(assembler, opt);
    expect_lands_on_tstop(res, opt.t_stop, "swec rc");

    // Nonlinear circuit, adaptive stepping.
    const Circuit inv = refckt::fet_rtd_inverter();
    const mna::MnaAssembler inv_asm(inv);
    engines::SwecTranOptions inv_opt;
    inv_opt.t_stop = 200.0000123e-9;
    expect_lands_on_tstop(engines::run_tran_swec(inv_asm, inv_opt),
                          inv_opt.t_stop, "swec inverter");
}

TEST(TstopLanding, NrLandsExactly) {
    const Circuit ckt = refckt::rc_lowpass();
    const mna::MnaAssembler assembler(ckt);
    engines::NrTranOptions opt;
    opt.t_stop = k_awkward_tstop;
    expect_lands_on_tstop(engines::run_tran_nr(assembler, opt), opt.t_stop,
                          "nr rc");

    const Circuit inv = refckt::fet_rtd_inverter();
    const mna::MnaAssembler inv_asm(inv);
    engines::NrTranOptions inv_opt;
    inv_opt.t_stop = 200.0000123e-9;
    expect_lands_on_tstop(engines::run_tran_nr(inv_asm, inv_opt),
                          inv_opt.t_stop, "nr inverter");
}

TEST(TstopLanding, PwlLandsExactly) {
    const Circuit ckt = refckt::rc_lowpass();
    const mna::MnaAssembler assembler(ckt);
    engines::PwlTranOptions opt;
    opt.t_stop = k_awkward_tstop;
    expect_lands_on_tstop(engines::run_tran_pwl(assembler, opt), opt.t_stop,
                          "pwl rc");

    const Circuit inv = refckt::fet_rtd_inverter();
    const mna::MnaAssembler inv_asm(inv);
    engines::PwlTranOptions inv_opt;
    inv_opt.t_stop = 200.0000123e-9;
    expect_lands_on_tstop(engines::run_tran_pwl(inv_asm, inv_opt),
                          inv_opt.t_stop, "pwl inverter");
}

TEST(TstopLanding, SliverShorterThanDtMinIsMergedNotDropped) {
    // dt_init divides the horizon into 10 steps plus a sliver of
    // 0.3 * dt_min; the old loop dropped it (t_end = t_stop - sliver),
    // the fixed loop merges it into step 10.
    const Circuit ckt = refckt::rc_lowpass();
    const mna::MnaAssembler assembler(ckt);
    engines::SwecTranOptions opt;
    opt.adaptive = false;
    opt.dt_init = 1e-7;
    opt.dt_min = 1e-9;
    opt.t_stop = 10 * opt.dt_init + 0.3 * opt.dt_min;
    const TranResult res = engines::run_tran_swec(assembler, opt);
    expect_lands_on_tstop(res, opt.t_stop, "swec sliver");
    EXPECT_EQ(res.steps_accepted, 10) << "sliver not merged into last step";
}

TEST(TstopLanding, CornerInsideSliverZoneIsAbsorbedSafely) {
    // A source corner within dt_min of the horizon is absorbed into the
    // exact t_stop landing (sub-dt_min timing detail is below the
    // engine's resolution): the run still lands exactly on t_stop and
    // never takes an ill-scaled sub-dt_min closing step.
    const double t_stop = 1e-6;
    const double dt_min = 1e-9;
    const double corner = t_stop - 0.5 * dt_min;
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    ckt.add<VSource>(
        "V1", in, k_ground,
        std::make_shared<PwlWave>(std::vector<std::pair<double, double>>{
            {0.0, 1.0}, {corner, 1.0}, {t_stop, 0.0}}));
    ckt.add<Resistor>("R1", in, out, 1e3);
    ckt.add<Capacitor>("C1", out, k_ground, 1e-9);
    const mna::MnaAssembler assembler(ckt);

    engines::SwecTranOptions opt;
    opt.t_stop = t_stop;
    opt.dt_min = dt_min;
    const TranResult res = engines::run_tran_swec(assembler, opt);
    expect_lands_on_tstop(res, t_stop, "sliver-zone corner");
    // Every recorded interval respects the dt_min floor — the corner
    // landing did not split a sub-dt_min sliver off the final step.
    const auto& times = res.node_waves.front().time();
    for (std::size_t i = 1; i < times.size(); ++i) {
        EXPECT_GE(times[i] - times[i - 1], 0.5 * dt_min)
            << "sub-dt_min step at index " << i;
    }
}

TEST(TstopLanding, MonteCarloSamplesASolvedPointAtTstop) {
    // Guard for the satellite: the MC grid ends at t_stop and the per-run
    // transient now lands there, so wave.at(t_stop) reads a solved state
    // (interpolation would clamp to a held value before the fix).
    const Circuit ckt = refckt::noisy_rc();
    const mna::MnaAssembler assembler(ckt);
    engines::McOptions opt;
    opt.t_stop = 1.0000123e-6;
    opt.runs = 3;
    opt.grid_points = 11;
    const engines::McResult mc =
        engines::run_monte_carlo(assembler, opt, 7, ckt.find_node("n1"));
    EXPECT_EQ(mc.grid.back(), opt.t_stop);
    EXPECT_EQ(mc.mean.t_end(), opt.t_stop);

    // The underlying deterministic engine run (same step caps MC applies)
    // must have a sample exactly at t_stop.
    engines::SwecTranOptions tran;
    tran.t_stop = opt.t_stop;
    tran.dt_max = opt.t_stop / 200.0; // MC's noise_dt cap
    const TranResult res = engines::run_tran_swec(assembler, tran);
    expect_lands_on_tstop(res, tran.t_stop, "mc transient");
}

// ---- breakpoint tolerance -------------------------------------------------

TEST(BreakpointTolerance, SnapTolIsRelative) {
    EXPECT_DOUBLE_EQ(engines::breakpoint_snap_tol(1.0), 1e-12);
    EXPECT_DOUBLE_EQ(engines::breakpoint_snap_tol(1e-15), 1e-27);
}

TEST(BreakpointTolerance, FemtosecondPwlCornersAreHonored) {
    // 1 fs run: every corner is < 1e-18 s, which the old ABSOLUTE snap
    // tolerance treated as "already passed" at t = 0 — corners were
    // skipped and the source ramp was integrated as a single segment.
    const double t_stop = 1e-15;
    const double corner = 0.3e-15;
    Circuit ckt;
    const NodeId in = ckt.node("in");
    const NodeId out = ckt.node("out");
    ckt.add<VSource>(
        "V1", in, k_ground,
        std::make_shared<PwlWave>(std::vector<std::pair<double, double>>{
            {0.0, 0.0}, {corner, 0.0}, {0.6e-15, 1.0}}));
    ckt.add<Resistor>("R1", in, out, 1e3);
    ckt.add<Capacitor>("C1", out, k_ground, 1e-21); // tau = 1e-18 s
    const mna::MnaAssembler assembler(ckt);

    // The assembler must report the fs-scale corners distinctly...
    const std::vector<double> bps = assembler.breakpoints(0.0, t_stop);
    ASSERT_GE(bps.size(), 2u);

    engines::SwecTranOptions opt;
    opt.t_stop = t_stop;
    const TranResult res = engines::run_tran_swec(assembler, opt);
    expect_lands_on_tstop(res, t_stop, "fs pwl");

    // ...and the engine must land a time point on each corner.
    const auto& times = res.node_waves.front().time();
    for (const double bp : bps) {
        bool hit = false;
        for (const double t : times) {
            if (std::abs(t - bp) <= 1e-3 * t_stop) {
                hit = true;
                break;
            }
        }
        EXPECT_TRUE(hit) << "no time point lands on fs corner " << bp;
    }
}

TEST(BreakpointTolerance, SecondScaleDuplicateCornersCoalesce) {
    // Two sources with corners 1e-15 s apart on a 1 s run: physically the
    // same corner.  The old absolute tolerance kept both, forcing a
    // degenerate 1e-15 s step; the relative tolerance coalesces them.
    const double t_stop = 1.0;
    Circuit ckt;
    const NodeId a = ckt.node("a");
    const NodeId b = ckt.node("b");
    ckt.add<VSource>(
        "V1", a, k_ground,
        std::make_shared<PwlWave>(std::vector<std::pair<double, double>>{
            {0.0, 0.0}, {0.3, 0.0}, {0.4, 1.0}}));
    ckt.add<VSource>(
        "V2", b, k_ground,
        std::make_shared<PwlWave>(std::vector<std::pair<double, double>>{
            {0.0, 0.0}, {0.3 + 1e-15, 0.0}, {0.4, 1.0}}));
    ckt.add<Resistor>("R1", a, b, 1e3);
    ckt.add<Resistor>("R2", b, k_ground, 1e3);
    const mna::MnaAssembler assembler(ckt);

    const std::vector<double> bps = assembler.breakpoints(0.0, t_stop);
    for (std::size_t i = 1; i < bps.size(); ++i) {
        EXPECT_GT(bps[i] - bps[i - 1],
                  engines::breakpoint_snap_tol(t_stop))
            << "duplicate corners not coalesced";
    }

    engines::SwecTranOptions opt;
    opt.t_stop = t_stop;
    const TranResult res = engines::run_tran_swec(assembler, opt);
    expect_lands_on_tstop(res, t_stop, "s-scale pwl");
    // No degenerate steps: every recorded interval clears the snap
    // tolerance by a wide margin.
    const auto& times = res.node_waves.front().time();
    for (std::size_t i = 1; i < times.size(); ++i) {
        EXPECT_GT(times[i] - times[i - 1], 1e3 * 1e-12 * t_stop)
            << "degenerate sliver step at index " << i;
    }
}

} // namespace
} // namespace nanosim
