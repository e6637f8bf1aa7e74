#include "engines/step_control.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace nanosim::engines {

ClippedStep clip_step_to_events(double t, double h, double t_stop,
                                double dt_min,
                                std::span<const double> breakpoints,
                                std::size_t& next_bp,
                                bool floor_to_dt_min) {
    const double snap = breakpoint_snap_tol(t_stop);
    while (next_bp < breakpoints.size() &&
           breakpoints[next_bp] <= t + snap) {
        ++next_bp;
    }
    ClippedStep out;
    out.h = h;
    // Land on the next corner — unless it sits within dt_min of the
    // horizon, in which case it is absorbed into the final landing: a
    // separate corner landing would leave a closing sliver far below
    // dt_min whose C/h companion entries are ill-scaled, and sub-dt_min
    // timing detail is below the engine's resolution anyway (the NR/PWL
    // corner floor overshoots by the same bound).
    if (next_bp < breakpoints.size() &&
        t + out.h > breakpoints[next_bp] - snap &&
        breakpoints[next_bp] < t_stop - dt_min) {
        out.h = breakpoints[next_bp] - t;
        if (floor_to_dt_min) {
            out.h = std::max(out.h, dt_min);
        }
        out.hit_breakpoint = true;
    }
    // Exact-corner landings target < t_stop - dt_min and never reach the
    // sliver zone; anything else that does (plain steps, the dt_min
    // floor overshooting a corner) merges into the exact horizon
    // landing — unless the landing would stretch the caller's
    // accuracy-bounded proposal by more than 50%, in which case half the
    // remainder is taken now (>= 0.75 * dt_min, within the proposal) and
    // the landing happens next iteration.  SWEC accepts steps
    // unconditionally, so an unbounded merge would silently exceed its
    // eq. 12 error bound right at the t_stop sample this merge exists to
    // make exact.
    if (t + out.h >= t_stop - dt_min) {
        const double remain = t_stop - t;
        out.hit_breakpoint = false;
        if (remain > 1.5 * out.h) {
            out.h = 0.5 * remain;
            out.final_step = false;
        } else {
            out.h = remain;
            out.final_step = true;
        }
    }
    return out;
}

double swec_node_step_bound(std::span<const double> c_node_diag,
                            std::span<const double> node_gdiag,
                            std::span<const double> dvdt, double eps,
                            double v_floor) {
    double bound = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < c_node_diag.size(); ++r) {
        const double cj = c_node_diag[r];
        const double gj = std::abs(node_gdiag[r]);
        if (cj <= 0.0 || gj <= 0.0) {
            continue;
        }
        const double h_j = eps * cj / gj;
        // Activity guard (see header): enforce only while the node moves.
        if (std::abs(dvdt[r]) * h_j > v_floor) {
            bound = std::min(bound, h_j);
        }
    }
    return bound;
}

double measured_local_error(std::span<const double> x_old,
                            std::span<const double> x_new,
                            std::span<const double> dvdt_prev, double h,
                            int num_nodes, double v_floor) {
    const auto nn = static_cast<std::size_t>(num_nodes);
    // Eq. (10) is defined "at the output" — the actively switching node.
    // Evaluate it on nodes moving comparably to the most active one;
    // nodes near a turning point (dV ~ 0 while the slope estimate is
    // finite) would otherwise blow the ratio up without saying anything
    // about step-control quality.
    double max_move = 0.0;
    for (std::size_t j = 0; j < nn && j < x_old.size(); ++j) {
        max_move = std::max(max_move, std::abs(x_new[j] - x_old[j]));
    }
    const double gate = std::max(v_floor, 0.25 * max_move);

    double worst = 0.0;
    for (std::size_t j = 0; j < nn && j < x_old.size(); ++j) {
        const double actual = x_new[j] - x_old[j];
        if (std::abs(actual) < gate) {
            continue;
        }
        const double estimated = h * dvdt_prev[j];
        worst = std::max(worst, std::abs(actual - estimated) /
                                    std::abs(actual));
    }
    return worst;
}

} // namespace nanosim::engines
