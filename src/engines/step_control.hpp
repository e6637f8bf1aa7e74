// Nano-Sim — adaptive time-step control for the SWEC engine
// (paper Sec. 3.4, eqs. 10-12).
//
// For a target local error ratio eps, the next step is the minimum over
//   * every conducting transistor:   eps * 2 (V_GS - V_th) / |dV_GS/dt|
//     and the analogous chord-rate bound for RTD/RTT/nanowire devices
//     (both from mna::SystemCache::device_step_bound), and
//   * every node j with grounded capacitance C_j:
//                                    eps * C_j / sum_k G_jk(t_n)
// — eq. (12).  The a-posteriori error of a completed step is measured as
// eq. (10):  eps_meas = |dV_actual - dV_est| / |dV_actual|.
#ifndef NANOSIM_ENGINES_STEP_CONTROL_HPP
#define NANOSIM_ENGINES_STEP_CONTROL_HPP

#include <span>

#include "mna/mna.hpp"

namespace nanosim::engines {

/// Breakpoint snap tolerance shared by the transient engines: two time
/// points closer than this are the same source corner.  Relative to the
/// horizon — an absolute tolerance (the old 1e-18 s) misclassifies
/// corners on femtosecond-scale runs and never coalesces duplicates on
/// second-scale ones.  The ratio lives in mna (mna::k_breakpoint_snap_rel)
/// so MnaAssembler::breakpoints dedups with exactly the same tolerance.
[[nodiscard]] constexpr double breakpoint_snap_tol(double t_stop) noexcept {
    return mna::k_breakpoint_snap_rel * t_stop;
}

/// One proposed transient step after event clipping — shared by the
/// SWEC/NR/PWL accepted-step loops so the breakpoint-landing and
/// t_stop-landing rules cannot drift apart between engines.
struct ClippedStep {
    double h = 0.0;            ///< step to take
    bool hit_breakpoint = false; ///< h lands on a source corner
    bool final_step = false;   ///< h lands exactly on t_stop (the caller
                               ///< must then set t = t_stop, not t + h)
};

/// Clip a proposed step `h` from time `t` to the next source corner and
/// to the horizon.  Corners already behind t (within the snap tolerance)
/// are consumed from `next_bp`.  Rules:
///  * never step across a corner; with `floor_to_dt_min` (NR/PWL) the
///    corner step is floored at dt_min, accepting a < dt_min overshoot;
///  * any step reaching within dt_min of the horizon merges into an
///    exact t_stop landing (a trailing sliver step would make the C/h
///    companion ill-scaled for no informational gain); when the landing
///    would stretch the proposed step by more than 50% the remainder is
///    split in two bound-respecting halves instead, the second landing
///    exactly;
///  * a corner within dt_min of t_stop is absorbed by that merge rather
///    than landed on — sub-dt_min timing detail is below the engine's
///    resolution (the same bound as the NR/PWL corner-floor overshoot).
///    Accepted points therefore stay below t_stop - dt_min (or land
///    exactly on t_stop), except after an NR/PWL convergence retry that
///    deliberately lands short; the closing step still lands exactly.
[[nodiscard]] ClippedStep
clip_step_to_events(double t, double h, double t_stop, double dt_min,
                    std::span<const double> breakpoints,
                    std::size_t& next_bp, bool floor_to_dt_min);

/// The node-capacitance half of eq. (12): min over nodes of
/// eps * C_j / |G_jj|, where `node_gdiag` holds the node-diagonal sums of
/// conductance at the current time point and `c_node_diag` the per-node
/// grounded capacitance (the C-matrix diagonal, constant per assembly —
/// precompute it once per analysis instead of binary-searching c_csr
/// every step).  The SWEC engine takes the min of this and the device
/// half, mna::SystemCache::device_step_bound, which reuses the chord/rate
/// values of the current step instead of re-evaluating every device
/// model.  Returns +infinity when no node constrains the step.
///
/// Activity guard: the node bound eps * C_j / sum G_jk protects the
/// accuracy of a node that is *relaxing*; clamping a quiescent node to a
/// fraction of its (possibly picosecond) time constant only burns steps.
/// A node's bound is therefore applied only when the step it allows
/// would still move that node by more than `v_floor` at its current
/// slew rate — paper [4] applies the constraint to conducting/active
/// devices in the same spirit.
[[nodiscard]] double
swec_node_step_bound(std::span<const double> c_node_diag,
                     std::span<const double> node_gdiag,
                     std::span<const double> dvdt, double eps,
                     double v_floor = 1e-6);

/// A-posteriori local error of a step (eq. 10): worst over nodes of
/// |dv_actual - dv_estimated| / |dv_actual|, where dv_estimated =
/// h * dvdt_prev.  Nodes whose actual move is below `v_floor` are
/// skipped (the ratio is meaningless in the noise floor).
[[nodiscard]] double measured_local_error(std::span<const double> x_old,
                                          std::span<const double> x_new,
                                          std::span<const double> dvdt_prev,
                                          double h, int num_nodes,
                                          double v_floor = 1e-9);

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_STEP_CONTROL_HPP
