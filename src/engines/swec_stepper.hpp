// Nano-Sim — the SWEC transient stepper as a phased state machine.
//
// run_tran_swec's adaptive loop, split at its natural seams:
//
//   eval()     chord conductances + rates at t_n   (cache->eval_chords)
//   prepare()  eq. 12 adaptive bound, event clip, eq. 5 predictor
//   stamp()    rhs assembly + in-place value restamp of the cached system
//   <solve>    x_next = cache->solve(rhs())        (driver-owned)
//   accept()   eq. 10 error, eq. 9 slope, waveforms, step control
//
// run_tran_swec runs the phases back-to-back per step; every phase
// performs the exact arithmetic of the historical monolithic loop.
#ifndef NANOSIM_ENGINES_SWEC_STEPPER_HPP
#define NANOSIM_ENGINES_SWEC_STEPPER_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "engines/tran_swec.hpp"
#include "engines/wave_recorder.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"
#include "obs/metrics.hpp"

namespace nanosim::engines {

/// Validate SwecTranOptions and fill the defaults derived from t_stop
/// (run_tran_swec's historical resolve step).  Throws AnalysisError.
[[nodiscard]] SwecTranOptions
resolve_swec_tran_options(const SwecTranOptions& options);

/// One transient integration in flight: owns the run state (x, dvdt,
/// chord conductances, step controller, waveforms) and advances one
/// accepted step per eval/prepare/stamp/solve/accept cycle through the
/// caller's SystemCache.  Construction performs the initial condition
/// (explicit / DC operating point / zeros) and records t = 0.
/// The recorder bills its time to the cache's record_clock().
class SwecStepper {
public:
    /// `options` must already be resolved (resolve_swec_tran_options).
    /// `dc_through_cache` routes the start_from_dc operating point
    /// through `cache` (shared SimSession-style caches); engine-local
    /// caches keep the historical self-contained DC solve.  `record`
    /// lists the nodes whose waveforms the result carries (see
    /// run_tran_swec; empty = every node).
    SwecStepper(const mna::MnaAssembler& assembler, SwecTranOptions options,
                mna::SystemCache& cache, bool dc_through_cache,
                std::span<const NodeId> record = {});

    /// True once the horizon is reached or the run was aborted.
    [[nodiscard]] bool done() const noexcept {
        return result_.aborted || t_ >= options_.t_stop;
    }
    /// Flag the run cancelled; the waveforms recorded so far stand.
    void abort() noexcept { result_.aborted = true; }

    /// Phase 1a: chord conductances/rates at t_n through the cache.
    void eval();
    /// Phase 1b: adaptive step bound (eq. 12), event clipping, and the
    /// eq. 5 conductance predictor.  Requires eval() this cycle.
    void prepare();
    /// Phase 2: assemble the backward-Euler rhs and restamp the cached
    /// system's values.  After stamp() the cache holds this step's
    /// (G + C/h, rhs) until the driver solves it.
    void stamp();
    [[nodiscard]] const linalg::Vector& rhs() const noexcept { return rhs_; }
    /// Phase 2.5: solve the stamped system with the numerical rescue
    /// ladder behind it.  The healthy path is exactly
    /// `cache->solve(rhs())` plus a finiteness scan — bit-identical
    /// results.  On a singular or non-finite solve it escalates
    /// dt-backoff -> gmin stepping -> source stepping (counting each rung
    /// in the result's RescueCounts) and throws AnalysisError only when
    /// every rung is exhausted.  Requires stamp() this cycle; on return
    /// the step may be smaller than prepare() chose.
    [[nodiscard]] linalg::Vector solve_rescued();
    /// Phase 3: accept the solved step — error/slope bookkeeping, state
    /// and waveform update, step-control advance, observer callbacks.
    void accept(linalg::Vector x_next, const AnalysisObserver* observer);

    [[nodiscard]] double time() const noexcept { return t_; }
    [[nodiscard]] int steps_accepted() const noexcept {
        return result_.steps_accepted;
    }
    [[nodiscard]] const SwecTranOptions& options() const noexcept {
        return options_;
    }

    /// Finalise (average local error) and move the result out.
    [[nodiscard]] TranResult take_result();

private:
    /// begin() + in-place restamps for the current rhs_/h_/geq_pred_ (the
    /// second half of stamp(); the rescue ladder re-runs it after
    /// mutating the step or the rhs).
    void restamp_system();
    /// The slow path of solve_rescued() (see its contract).
    [[nodiscard]] linalg::Vector rescue_ladder();

    const mna::MnaAssembler* assembler_;
    mna::SystemCache* cache_;
    SwecTranOptions options_;
    std::size_t n_ = 0;  ///< unknowns
    std::size_t nl_ = 0; ///< nonlinear devices
    std::size_t nn_ = 0; ///< non-ground nodes

    TranResult result_;
    WaveRecorder recorder_;
    std::vector<double> breakpoints_;
    std::size_t next_bp_ = 0;
    std::vector<double> static_gdiag_;
    std::vector<double> c_node_diag_;
    obs::Histogram* h_hist_ = nullptr;

    linalg::Vector x_;
    linalg::Vector dvdt_;
    std::vector<double> geq_;
    std::vector<double> geq_rate_;
    std::vector<double> geq_pred_;
    linalg::Vector rhs_;
    double t_ = 0.0;
    double h_ = 0.0;
    double h_prev_ = 0.0;
    int steps_since_corner_ = 0;
    double local_error_sum_ = 0.0;
    std::size_t local_error_count_ = 0;
    std::uint64_t* bound_src_ = nullptr;
    bool hit_breakpoint_ = false;
    bool final_step_ = false;
    const mna::MnaAssembler::NoiseRealization* noise_ = nullptr;
};

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_SWEC_STEPPER_HPP
