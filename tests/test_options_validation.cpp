// Tests for the centralized engine-option validation
// (engines/options_common.hpp): one rejection test per range check, plus
// the defaulting/widening semantics of the shared dt block.
#include <gtest/gtest.h>

#include <limits>

#include "core/ref_circuits.hpp"
#include "engines/dc_mla.hpp"
#include "engines/dc_nr.hpp"
#include "engines/dc_swec.hpp"
#include "engines/options_common.hpp"
#include "engines/tran_nr.hpp"
#include "engines/tran_pwl.hpp"
#include "engines/tran_swec.hpp"
#include "mna/mna.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

using engines::resolve_step_limits;
using engines::StepLimits;

constexpr double k_nan = std::numeric_limits<double>::quiet_NaN();
constexpr double k_inf = std::numeric_limits<double>::infinity();

// ------------------------------------------------- resolve_step_limits

TEST(StepLimits, DefaultsMatchEngineConventions) {
    const StepLimits s = resolve_step_limits("t", 1e-6, 0.0, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(s.dt_init, 1e-9);   // t_stop / 1000
    EXPECT_DOUBLE_EQ(s.dt_min, 1e-15);   // t_stop * 1e-9
    EXPECT_DOUBLE_EQ(s.dt_max, 2e-8);    // t_stop / 50
}

TEST(StepLimits, ExplicitValuesAreKept) {
    const StepLimits s = resolve_step_limits("t", 1.0, 1e-3, 1e-6, 1e-2);
    EXPECT_DOUBLE_EQ(s.dt_init, 1e-3);
    EXPECT_DOUBLE_EQ(s.dt_min, 1e-6);
    EXPECT_DOUBLE_EQ(s.dt_max, 1e-2);
}

TEST(StepLimits, DefaultedBoundsWidenAroundExplicitInit) {
    // dt_init above the default ceiling: the defaulted ceiling rises.
    const StepLimits s = resolve_step_limits("t", 1.0, 0.5, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(s.dt_init, 0.5);
    EXPECT_GE(s.dt_max, 0.5);
    EXPECT_LE(s.dt_min, 0.5);
}

TEST(StepLimits, RejectsBadTStop) {
    EXPECT_THROW((void)resolve_step_limits("t", 0.0, 0, 0, 0), AnalysisError);
    EXPECT_THROW((void)resolve_step_limits("t", -1.0, 0, 0, 0), AnalysisError);
    EXPECT_THROW((void)resolve_step_limits("t", k_nan, 0, 0, 0), AnalysisError);
    EXPECT_THROW((void)resolve_step_limits("t", k_inf, 0, 0, 0), AnalysisError);
}

TEST(StepLimits, RejectsNegativeOrNonFiniteSteps) {
    EXPECT_THROW((void)resolve_step_limits("t", 1.0, -1e-3, 0, 0),
                 AnalysisError);
    EXPECT_THROW((void)resolve_step_limits("t", 1.0, 0, -1e-9, 0),
                 AnalysisError);
    EXPECT_THROW((void)resolve_step_limits("t", 1.0, 0, 0, -1e-2),
                 AnalysisError);
    EXPECT_THROW((void)resolve_step_limits("t", 1.0, k_nan, 0, 0),
                 AnalysisError);
}

TEST(StepLimits, DefaultedBoundsBracketLoneExplicitBound) {
    // Only dt_min explicit, above the defaulted ceiling: the defaulted
    // ceiling widens (and std::clamp must never see lo > hi).
    const StepLimits hi_min = resolve_step_limits("t", 1.0, 0.0, 0.1, 0.0);
    EXPECT_DOUBLE_EQ(hi_min.dt_min, 0.1);
    EXPECT_GE(hi_min.dt_max, hi_min.dt_min);
    EXPECT_GE(hi_min.dt_init, hi_min.dt_min);
    EXPECT_LE(hi_min.dt_init, hi_min.dt_max);
    // Symmetric case: explicit tiny dt_max below the defaulted floor.
    const StepLimits lo_max =
        resolve_step_limits("t", 1.0, 0.0, 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(lo_max.dt_max, 1e-12);
    EXPECT_LE(lo_max.dt_min, lo_max.dt_max);
    EXPECT_LE(lo_max.dt_init, lo_max.dt_max);
}

TEST(StepLimits, RejectsExplicitlyInconsistentOrdering) {
    // dt_min > dt_max
    EXPECT_THROW((void)resolve_step_limits("t", 1.0, 0, 1e-2, 1e-6),
                 AnalysisError);
    // dt_init outside [dt_min, dt_max]
    EXPECT_THROW((void)resolve_step_limits("t", 1.0, 1e-1, 1e-6, 1e-2),
                 AnalysisError);
    EXPECT_THROW((void)resolve_step_limits("t", 1.0, 1e-9, 1e-6, 1e-2),
                 AnalysisError);
}

// ------------------------------------------------- per-engine rejection

mna::MnaAssembler rc_assembler() {
    static Circuit ckt = refckt::rc_lowpass();
    return mna::MnaAssembler(ckt);
}

TEST(EngineOptionValidation, SwecTranRejections) {
    const mna::MnaAssembler a = rc_assembler();
    engines::SwecTranOptions o;
    o.t_stop = 1e-6;

    auto bad = o;
    bad.eps = 0.0;
    EXPECT_THROW((void)engines::run_tran_swec(a, bad), AnalysisError);
    bad = o;
    bad.eps = -0.1;
    EXPECT_THROW((void)engines::run_tran_swec(a, bad), AnalysisError);
    bad = o;
    bad.growth_limit = 0.5;
    EXPECT_THROW((void)engines::run_tran_swec(a, bad), AnalysisError);
    bad = o;
    bad.geq_floor = -1.0;
    EXPECT_THROW((void)engines::run_tran_swec(a, bad), AnalysisError);
    bad = o;
    bad.t_stop = -1.0;
    EXPECT_THROW((void)engines::run_tran_swec(a, bad), AnalysisError);
    bad = o;
    bad.dt_min = 1e-3;
    bad.dt_max = 1e-9;
    EXPECT_THROW((void)engines::run_tran_swec(a, bad), AnalysisError);
}

TEST(EngineOptionValidation, NrTranRejections) {
    const mna::MnaAssembler a = rc_assembler();
    engines::NrTranOptions o;
    o.t_stop = 1e-6;

    auto bad = o;
    bad.max_nr_iterations = 0;
    EXPECT_THROW((void)engines::run_tran_nr(a, bad), AnalysisError);
    bad = o;
    bad.abstol = 0.0;
    EXPECT_THROW((void)engines::run_tran_nr(a, bad), AnalysisError);
    bad = o;
    bad.reltol = -1e-6;
    EXPECT_THROW((void)engines::run_tran_nr(a, bad), AnalysisError);
    bad = o;
    bad.lte_tol = 0.0;
    EXPECT_THROW((void)engines::run_tran_nr(a, bad), AnalysisError);
    bad = o;
    bad.max_halvings = -1;
    EXPECT_THROW((void)engines::run_tran_nr(a, bad), AnalysisError);
    bad = o;
    bad.dt_init = -1.0;
    EXPECT_THROW((void)engines::run_tran_nr(a, bad), AnalysisError);
}

TEST(EngineOptionValidation, PwlTranRejections) {
    const mna::MnaAssembler a = rc_assembler();
    engines::PwlTranOptions o;
    o.t_stop = 1e-6;

    auto bad = o;
    bad.segments = 1;
    EXPECT_THROW((void)engines::run_tran_pwl(a, bad), AnalysisError);
    bad = o;
    bad.v_min = 2.0;
    bad.v_max = 1.0;
    EXPECT_THROW((void)engines::run_tran_pwl(a, bad), AnalysisError);
    bad = o;
    bad.v_min = bad.v_max; // empty range
    EXPECT_THROW((void)engines::run_tran_pwl(a, bad), AnalysisError);
    bad = o;
    bad.max_segment_iters = 0;
    EXPECT_THROW((void)engines::run_tran_pwl(a, bad), AnalysisError);
    bad = o;
    bad.max_halvings = -1;
    EXPECT_THROW((void)engines::run_tran_pwl(a, bad), AnalysisError);
}

TEST(EngineOptionValidation, SwecDcRejections) {
    const mna::MnaAssembler a = rc_assembler();

    engines::SwecDcOptions bad;
    bad.c_pseudo = 0.0;
    EXPECT_THROW((void)engines::solve_op_swec(a, bad), AnalysisError);
    bad = {};
    bad.dt_init = -1e-6;
    EXPECT_THROW((void)engines::solve_op_swec(a, bad), AnalysisError);
    bad = {};
    bad.dt_max = bad.dt_init / 10.0; // dt_max < dt_init
    EXPECT_THROW((void)engines::solve_op_swec(a, bad), AnalysisError);
    bad = {};
    bad.growth = 0.9;
    EXPECT_THROW((void)engines::solve_op_swec(a, bad), AnalysisError);
    bad = {};
    bad.settle_tol = 0.0;
    EXPECT_THROW((void)engines::solve_op_swec(a, bad), AnalysisError);
    bad = {};
    bad.settle_checks = 0;
    EXPECT_THROW((void)engines::solve_op_swec(a, bad), AnalysisError);
    bad = {};
    bad.max_steps = 0;
    EXPECT_THROW((void)engines::solve_op_swec(a, bad), AnalysisError);
}

TEST(EngineOptionValidation, NrDcRejections) {
    const mna::MnaAssembler a = rc_assembler();

    engines::NrOptions bad;
    bad.max_iterations = 0;
    EXPECT_THROW((void)engines::solve_op_nr(a, bad), AnalysisError);
    bad = {};
    bad.abstol = -1.0;
    EXPECT_THROW((void)engines::solve_op_nr(a, bad), AnalysisError);
    bad = {};
    bad.gmin = -1e-12;
    EXPECT_THROW((void)engines::solve_op_nr(a, bad), AnalysisError);
    bad = {};
    bad.damping = 0.0;
    EXPECT_THROW((void)engines::solve_op_nr(a, bad), AnalysisError);
    bad = {};
    bad.damping = 1.5;
    EXPECT_THROW((void)engines::solve_op_nr(a, bad), AnalysisError);
}

TEST(EngineOptionValidation, MlaDcRejections) {
    const mna::MnaAssembler a = rc_assembler();

    engines::MlaOptions bad;
    bad.v_limit = 0.0;
    EXPECT_THROW((void)engines::solve_op_mla(a, bad), AnalysisError);
    bad = {};
    bad.max_iterations = 0;
    EXPECT_THROW((void)engines::solve_op_mla(a, bad), AnalysisError);
    bad = {};
    bad.ramp_initial_steps = 0;
    EXPECT_THROW((void)engines::solve_op_mla(a, bad), AnalysisError);
    bad = {};
    bad.ramp_max_halvings = -1;
    EXPECT_THROW((void)engines::solve_op_mla(a, bad), AnalysisError);
}

TEST(EngineOptionValidation, SwecSweepWarmStartBumpStaysValid) {
    // dc_sweep_swec grows dt_init x10 between warm-started points; with a
    // dt_init/dt_max pair less than a decade apart the bump must clamp to
    // dt_max instead of tripping the new range validation.
    Circuit ckt = refckt::rtd_divider();
    engines::SwecDcOptions opt;
    opt.dt_init = 2e-3;
    opt.dt_max = 1e-2;
    const linalg::Vector values{0.0, 0.2, 0.4};
    const engines::SweepResult sweep =
        engines::dc_sweep_swec(ckt, "V1", values, opt);
    ASSERT_EQ(sweep.solutions.size(), values.size());
    EXPECT_EQ(sweep.failures(), 0);
}

TEST(EngineOptionValidation, ValidDefaultsStillRun) {
    // Guard against over-eager validation: the stock options must keep
    // working on every engine.
    const mna::MnaAssembler a = rc_assembler();
    engines::SwecTranOptions so;
    so.t_stop = 1e-7;
    EXPECT_NO_THROW((void)engines::run_tran_swec(a, so));
    engines::NrTranOptions no;
    no.t_stop = 1e-7;
    EXPECT_NO_THROW((void)engines::run_tran_nr(a, no));
    engines::PwlTranOptions po;
    po.t_stop = 1e-7;
    EXPECT_NO_THROW((void)engines::run_tran_pwl(a, po));
    EXPECT_NO_THROW((void)engines::solve_op_swec(a));
    EXPECT_NO_THROW((void)engines::solve_op_nr(a));
    EXPECT_NO_THROW((void)engines::solve_op_mla(a));
}

} // namespace
} // namespace nanosim
