// Nano-Sim — the one per-step recorder of the transient engines.
//
// SWEC, NR, PWL and Euler-Maruyama paths record their state the same
// way: each accepted time is appended once to one time axis and each
// recorded node's voltage onto its own row.  take() hands every node
// waveform that one axis (analysis::Waveform::on_shared_axis), so a
// transient holds one time vector in memory, not one per node — the
// shape it already has on the wire.  A caller that reads only some
// nodes (a Monte-Carlo trial reads its node and probes) records only
// those.
#ifndef NANOSIM_ENGINES_WAVE_RECORDER_HPP
#define NANOSIM_ENGINES_WAVE_RECORDER_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "analysis/waveform.hpp"
#include "mna/mna.hpp"

namespace nanosim::engines {

class WaveRecorder {
public:
    /// Record the voltages of `nodes` (empty = every non-ground node; a
    /// node listed twice is recorded once; ground or an unknown id throws
    /// AnalysisError).  record() bills its wall time to `clock`
    /// (SystemCache::record_clock()).
    WaveRecorder(const mna::MnaAssembler& assembler,
                 std::span<const NodeId> nodes, double& clock);

    /// Append the accepted time t (after the previous one; AnalysisError
    /// otherwise) and the recorded nodes' voltages in state x.
    void record(double t, const linalg::Vector& x);

    /// One waveform per non-ground node, index NodeId - 1, labelled
    /// "v(<name>)": the recorded nodes' waves share one time axis; a node
    /// not recorded holds an empty, unlabelled waveform.  Moves the
    /// samples out: call once, after the last record().
    [[nodiscard]] std::vector<analysis::Waveform> take();

private:
    const mna::MnaAssembler* assembler_;
    std::vector<std::size_t> rows_; ///< NodeId - 1 per recorded node, ascending
    std::vector<double> time_;
    std::vector<std::vector<double>> values_; ///< parallel to rows_
    double* clock_;
};

} // namespace nanosim::engines

#endif // NANOSIM_ENGINES_WAVE_RECORDER_HPP
