#include "engines/wave_recorder.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "obs/scoped_timer.hpp"
#include "util/error.hpp"

namespace nanosim::engines {

WaveRecorder::WaveRecorder(const mna::MnaAssembler& assembler,
                           std::span<const NodeId> nodes, double& clock)
    : assembler_(&assembler), clock_(&clock) {
    if (nodes.empty()) {
        rows_.resize(static_cast<std::size_t>(assembler.num_nodes()));
        std::iota(rows_.begin(), rows_.end(), std::size_t{0});
    } else {
        for (const NodeId node : nodes) {
            if (node < 1 || node > assembler.num_nodes()) {
                throw AnalysisError("WaveRecorder: node id " +
                                    std::to_string(node) +
                                    " is not a non-ground node");
            }
            rows_.push_back(static_cast<std::size_t>(node - 1));
        }
        std::ranges::sort(rows_);
        rows_.erase(std::unique(rows_.begin(), rows_.end()), rows_.end());
    }
    values_.resize(rows_.size());
}

void WaveRecorder::record(double t, const linalg::Vector& x) {
    const obs::ScopedTimer timer(*clock_, "record", "engine");
    if (!time_.empty() && t <= time_.back()) {
        throw AnalysisError("WaveRecorder: non-increasing time");
    }
    time_.push_back(t);
    for (std::size_t k = 0; k < rows_.size(); ++k) {
        values_[k].push_back(x[rows_[k]]);
    }
}

std::vector<analysis::Waveform> WaveRecorder::take() {
    std::vector<std::string> labels;
    labels.reserve(rows_.size());
    for (const std::size_t row : rows_) {
        labels.push_back("v(" +
                         assembler_->circuit().node_name(
                             static_cast<NodeId>(row + 1)) +
                         ")");
    }
    std::vector<analysis::Waveform> recorded =
        analysis::Waveform::on_shared_axis(
            std::move(time_), std::move(labels), std::move(values_));
    const auto nn = static_cast<std::size_t>(assembler_->num_nodes());
    if (recorded.size() == nn) {
        return recorded; // every node, in node order
    }
    std::vector<analysis::Waveform> waves(nn);
    for (std::size_t k = 0; k < rows_.size(); ++k) {
        waves[rows_[k]] = std::move(recorded[k]);
    }
    return waves;
}

} // namespace nanosim::engines
