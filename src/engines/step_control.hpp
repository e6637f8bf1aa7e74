// Nano-Sim — transient step control (paper Sec. 3.4, eqs. 10-12) and
// run_accepted_steps, the one accepted-step loop of the SWEC, NR and PWL
// transient engines: one place for the landing, retry and step-bound
// rules, and for a step-rejection policy.
//
// SWEC's proposal is eq. (12): for a target local error ratio eps, the
// next step is the minimum over
//   * every conducting transistor:   eps * 2 (V_GS - V_th) / |dV_GS/dt|
//     and the analogous chord-rate bound for RTD/RTT/nanowire devices
//     (both from mna::SystemCache::device_step_bound), and
//   * every node j with grounded capacitance C_j:
//                                    eps * C_j / sum_k G_jk(t_n)
// The a-posteriori error of a completed step is measured as eq. (10):
// eps_meas = |dV_actual - dV_est| / |dV_actual|.
#ifndef NANOSIM_ENGINES_STEP_CONTROL_HPP
#define NANOSIM_ENGINES_STEP_CONTROL_HPP

#include <cstdint>
#include <optional>
#include <span>

#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"

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

/// The engine half of run_accepted_steps.  Each accepted step is one
/// propose(), one or more trial()s (out_of_road() after the last when no
/// smaller step is left) and one accept().
class StepEngine {
public:
    /// A proposed step and the bound that set its size.
    struct Proposal {
        double h = 0.0;
        std::uint64_t obs::StepBoundCounts::*bound = nullptr;
    };

    /// The state at the last accepted time (before the first step, the
    /// initial condition): what the recorder and the observer see.
    [[nodiscard]] const linalg::Vector& state() const noexcept { return x_; }
    /// Propose the next step from the last accepted time t.
    [[nodiscard]] virtual Proposal propose(double t) = 0;
    /// Solve the step [t, t + h].  True accepts it; false asks for a
    /// retry at a smaller step.  A trial may shorten h itself (SWEC's
    /// dt-backoff rung); the step then no longer lands on the event it
    /// was clipped to.
    [[nodiscard]] virtual bool trial(double t, double& h) = 0;
    /// The last trial asked for a retry and none is left (the step is at
    /// dt_min or the halving budget is spent): make that trial acceptable
    /// or throw.
    virtual void out_of_road(double t, double h) = 0;
    /// Take the last trial of [t, t + h] as the new state; `corner` is
    /// true when the step landed on a source corner.  Called before the
    /// driver counts the step in the result.
    virtual void accept(double t, double h, bool corner) = 0;
    /// Complete the engine's part of the result after the last step.
    virtual void finish() {}

protected:
    ~StepEngine() = default;

    linalg::Vector x_; ///< the state at the last accepted time
};

/// The rules one engine runs the loop under (resolved options).
struct StepRules {
    double t_stop = 0.0;
    double dt_min = 0.0;
    double dt_max = 0.0;
    int max_halvings = 0; ///< driver retries per time point
    /// Floor a step clipped to a source corner at dt_min, accepting a
    /// < dt_min overshoot (NR and PWL; SWEC lands exactly).
    bool floor_to_dt_min = false;
    /// The engine's entry point, named in diagnostics.
    const char* who = "transient";
};

/// The no-progress rule of run_accepted_steps: a transient whose last
/// k_stall_steps accepted steps each needed a rescue rung, or each sat at
/// the dt_min floor (step bound dt_min), is not advancing and ends in an
/// AnalysisError.  A default dt_min is 1e-9 of the horizon, so such a run
/// would need ~1e9 more steps.
inline constexpr std::uint64_t k_stall_steps = 1000;

/// Advance `engine` from t = 0 to rules.t_stop, or until `observer`
/// cancels (result.aborted, the waveforms recorded so far stand).  Per
/// step, inside one step_clock() timer:
///  * the proposal is clipped to the next source corner and to t_stop:
///    never step across a corner; a step reaching within dt_min of the
///    horizon merges into an exact t_stop landing, or — when that would
///    stretch the proposal by more than 50% — takes half the remainder
///    first; a corner within dt_min of t_stop is absorbed by that merge;
///  * a trial that asks for a retry is repeated at max(h/2, dt_min)
///    while that is smaller than h and fewer than rules.max_halvings
///    halvings were taken (each counted in steps_rejected), and handed
///    to out_of_road() otherwise;
///  * the accepted step is attributed to dt_min (h <= dt_min) or device
///    when it was halved, else to breakpoint or horizon when the clip
///    changed it, else to the proposal's own bound; then recorded
///    (`record` as in run_tran_swec) and reported to the observer;
///  * the no-progress rule (k_stall_steps) throws AnalysisError naming
///    rules.who, t, h and the last rescue rung.
/// Fills the result's step counts, step_bounds, min/max dt, aborted and
/// node_waves; the engine fills the rest.
void run_accepted_steps(StepEngine& engine, const StepRules& rules,
                        const mna::MnaAssembler& assembler,
                        mna::SystemCache& cache,
                        const AnalysisObserver* observer, TranResult& result,
                        std::span<const NodeId> record);

/// One transient: construct Engine(assembler, options, cache, result) on
/// `cache` — or, when it is null, on a cache built for this run — and
/// drive it with run_accepted_steps.  The cache keeps the per-step
/// system's pattern frozen (values restamped in place, the symbolic LU
/// analysis reused across every step, and across analyses when the
/// caller owns it).  The result's flops cover the whole run, the initial
/// condition included.
template <typename Engine, typename Options>
[[nodiscard]] TranResult
run_transient(const mna::MnaAssembler& assembler, const Options& options,
              const StepRules& rules, const AnalysisObserver* observer,
              mna::SystemCache* cache, std::span<const NodeId> record = {}) {
    const FlopScope scope;
    std::optional<mna::SystemCache> local_cache;
    if (cache == nullptr) {
        cache = &local_cache.emplace(assembler);
    }
    TranResult result;
    Engine engine(assembler, options, *cache, result);
    run_accepted_steps(engine, rules, assembler, *cache, observer, result,
                       record);
    result.flops = scope.counter();
    return result;
}

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
