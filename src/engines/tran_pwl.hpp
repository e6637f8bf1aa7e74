// Nano-Sim — piece-wise-linear (PWL) transient engine, ACES-like baseline.
//
// Re-implementation of the approach of Le, Pileggi & Devgan, "Circuit
// Simulation of Nanotechnology Devices with Non-monotonic I-V
// Characteristics" (ICCAD 2003), at the algorithm-family level: each
// nonlinear device's I-V curve is approximated by uniform piece-wise
// linear segments; a time step replaces Newton-Raphson by a *segment
// fixed-point* — solve the linear circuit assuming each device sits in a
// segment, re-derive the segments from the solution, repeat until the
// assignment is stable.  When the assignment cycles (the PWL flavour of
// the NDR problem: a segment's conductance IS negative inside the NDR
// region) the step is cut — the halving retry of the accepted-step loop
// shared with SWEC and NR (engines/step_control.hpp) — mirroring the
// paper's adaptive-time-step + current-stepping remedy.
//
// MOSFETs are piecewise-linearised along V_DS with V_GS frozen at its
// previous iterate — the weak-coupling treatment that keeps the engine a
// pure linear-solver loop.
#ifndef NANOSIM_ENGINES_TRAN_PWL_HPP
#define NANOSIM_ENGINES_TRAN_PWL_HPP

#include "engines/observer.hpp"
#include "engines/results.hpp"
#include "mna/mna.hpp"
#include "mna/system_cache.hpp"

namespace nanosim::engines {

/// PWL engine options.
struct PwlTranOptions {
    double t_stop = 0.0;   ///< end time [s] (required)
    double dt_init = 0.0;  ///< 0 = t_stop / 1000
    double dt_min = 0.0;   ///< 0 = t_stop * 1e-9
    double dt_max = 0.0;   ///< 0 = t_stop / 50
    int segments = 64;     ///< PWL segments per device table
    double v_min = -1.0;   ///< table range [V]
    double v_max = 6.0;
    int max_segment_iters = 8; ///< fixed-point budget per step
    int max_halvings = 12;
    bool start_from_dc = true; ///< IC via segment iteration at t=0
    linalg::Vector initial;
    mna::MnaAssembler::NoiseRealization noise;
};

/// Run the PWL transient.  `observer` (optional) receives per-step
/// progress and may cancel cooperatively (partial waveforms, `aborted`
/// set); `cache` (optional) shares a caller-owned SystemCache across
/// analyses.  Solver stats in the result are deltas over this run.
[[nodiscard]] TranResult run_tran_pwl(const mna::MnaAssembler& assembler,
                                      const PwlTranOptions& options,
                                      const AnalysisObserver* observer = nullptr,
                                      mna::SystemCache* cache = nullptr);

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_TRAN_PWL_HPP
