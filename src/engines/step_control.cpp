#include "engines/step_control.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "engines/wave_recorder.hpp"
#include "obs/scoped_timer.hpp"
#include "util/error.hpp"

namespace nanosim::engines {

namespace {

/// A proposed step after event clipping.
struct ClippedStep {
    double h = 0.0;              ///< step to take
    bool hit_breakpoint = false; ///< h lands on a source corner
    bool final_step = false;     ///< h lands exactly on t_stop (the caller
                                 ///< must then set t = t_stop, not t + h)
};

/// Clip a proposed step `h` from time `t` to the next source corner and
/// to the horizon (rules in run_accepted_steps' contract).  Corners
/// already behind t (within the snap tolerance) are consumed from
/// `next_bp`.  Accepted points stay below t_stop - dt_min (or land
/// exactly on t_stop), except after a retry that deliberately lands
/// short; the closing step still lands exactly.
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

/// The highest rescue rung attempted between `before` and `after`, or
/// null when none was.
const char* last_rung(const obs::RescueCounts& before,
                      const obs::RescueCounts& after) {
    if (after.source_attempted > before.source_attempted) {
        return "source stepping";
    }
    if (after.gmin_attempted > before.gmin_attempted) {
        return "gmin stepping";
    }
    if (after.dt_backoff_attempted > before.dt_backoff_attempted) {
        return "dt-backoff";
    }
    return nullptr;
}

} // namespace

void run_accepted_steps(StepEngine& engine, const StepRules& rules,
                        const mna::MnaAssembler& assembler,
                        mna::SystemCache& cache,
                        const AnalysisObserver* observer, TranResult& result,
                        std::span<const NodeId> record) {
    WaveRecorder recorder(assembler, record, cache.record_clock());
    const std::vector<double> breakpoints =
        assembler.breakpoints(0.0, rules.t_stop);
    std::size_t next_bp = 0;
    double t = 0.0;
    recorder.record(t, engine.state());
    result.min_dt_used = rules.dt_max;
    // Lengths of the current runs of rescued steps and of floor steps
    // (the no-progress rule, k_stall_steps).
    std::uint64_t rescued_run = 0;
    std::uint64_t floor_run = 0;
    while (t < rules.t_stop) {
        // Cooperative cancellation, polled once per step: the partial
        // waveforms recorded so far are the result.
        if (observer != nullptr && observer->cancelled()) {
            result.aborted = true;
            break;
        }
        // The step's own work outside the cache's layers and the
        // recorder (the engine's step bound, predictor, error and state
        // update, and this loop) is step control (self time).
        const obs::ScopedTimer step_timer(cache.step_clock(), "step",
                                          "engine");
        const obs::RescueCounts rescues_before = result.rescues;
        const StepEngine::Proposal proposal = engine.propose(t);
        const ClippedStep clip = clip_step_to_events(
            t, proposal.h, rules.t_stop, rules.dt_min, breakpoints, next_bp,
            rules.floor_to_dt_min);
        double h = clip.h;
        int halvings = 0;
        while (!engine.trial(t, h)) {
            // A retry is only useful when the step actually shrinks
            // (h/2 clamps to dt_min at the floor — redoing the identical
            // solve is pointless).
            const double h_half = std::max(h / 2.0, rules.dt_min);
            if (h_half >= h || halvings >= rules.max_halvings) {
                engine.out_of_road(t, h);
                break;
            }
            h = h_half;
            ++halvings;
            ++result.steps_rejected;
        }
        // A step shortened by a retry or by the trial itself lands short
        // of the event it was clipped to (and of t_stop: h <= t_stop - t
        // on entry); later steps re-approach it through the clip.
        const bool landed = h == clip.h;
        engine.accept(t, h, landed && clip.hit_breakpoint);
        // Land on t_stop bit-exactly: t + (t_stop - t) may round off.
        t = landed && clip.final_step ? rules.t_stop : t + h;
        ++result.steps_accepted;
        // Step-bound attribution: a halved step was shrunk by the
        // engine's error or convergence control (dt_min when it hit the
        // floor); an un-halved step the clip changed was event-sized;
        // otherwise the proposal's own bound set it.
        using Counts = obs::StepBoundCounts;
        std::uint64_t Counts::*bound = proposal.bound;
        if (halvings > 0) {
            bound = h <= rules.dt_min ? &Counts::dt_min : &Counts::device;
        } else if (clip.h != proposal.h) {
            bound = clip.hit_breakpoint ? &Counts::breakpoint
                                        : &Counts::horizon;
        }
        ++(result.step_bounds.*bound);
        result.min_dt_used = std::min(result.min_dt_used, h);
        result.max_dt_used = std::max(result.max_dt_used, h);
        const char* rung = last_rung(rescues_before, result.rescues);
        rescued_run = rung != nullptr ? rescued_run + 1 : 0;
        floor_run = bound == &Counts::dt_min ? floor_run + 1 : 0;
        if (rescued_run == k_stall_steps || floor_run == k_stall_steps) {
            std::ostringstream os;
            os << rules.who << ": no progress: " << k_stall_steps
               << " consecutive accepted steps "
               << (rescued_run == k_stall_steps
                       ? "each needed the rescue ladder"
                       : "each sat at the dt_min floor")
               << " (t = " << t << " s, h = " << h
               << " s, last rung: " << (rung != nullptr ? rung : "none")
               << ")";
            throw AnalysisError(os.str());
        }
        const linalg::Vector& x = engine.state();
        recorder.record(t, x);
        if (observer != nullptr) {
            observer->step(t, result.steps_accepted);
            observer->sample(t, x.data(), static_cast<int>(x.size()));
            observer->progress(t / rules.t_stop);
        }
    }
    result.node_waves = recorder.take();
    engine.finish();
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
