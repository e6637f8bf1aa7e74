// Nano-Sim — waveform container and interpolation.
//
// A Waveform is a (time, value) series produced by an engine for one
// circuit quantity.  Time points may be non-uniform (adaptive stepping),
// so value() interpolates linearly and resampled() maps onto a uniform
// grid for comparison between engines that chose different step
// sequences.
#ifndef NANOSIM_ANALYSIS_WAVEFORM_HPP
#define NANOSIM_ANALYSIS_WAVEFORM_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace nanosim::analysis {

/// Sampled scalar signal over time (or over a sweep variable).
class Waveform {
public:
    Waveform() = default;

    /// Named waveform ("v(out)", "i(RTD1)").
    explicit Waveform(std::string label) : label_(std::move(label)) {}

    /// Construct from parallel vectors (must be equal length, time
    /// strictly increasing; throws AnalysisError).
    Waveform(std::string label, std::vector<double> time,
             std::vector<double> value);

    /// Waveforms on one shared time axis: wave k is (labels[k], time,
    /// rows[k]).  The axis is checked once (strictly increasing) and each
    /// row against its length (AnalysisError otherwise); the waves then
    /// hold one copy of it between them.  An empty axis gives empty
    /// waves.
    [[nodiscard]] static std::vector<Waveform>
    on_shared_axis(std::vector<double> time, std::vector<std::string> labels,
                   std::vector<std::vector<double>> rows);

    [[nodiscard]] const std::string& label() const noexcept { return label_; }
    void set_label(std::string label) { label_ = std::move(label); }

    /// Append one sample; time must exceed the previous sample's time.
    /// A wave whose axis is shared copies it first (the other waves keep
    /// theirs).
    void append(double t, double v);

    [[nodiscard]] std::size_t size() const noexcept { return value_.size(); }
    [[nodiscard]] bool empty() const noexcept { return value_.empty(); }
    /// The time axis; waves built by on_shared_axis (and copies of one
    /// wave) return the same object.
    [[nodiscard]] const std::vector<double>& time() const noexcept {
        return time_ != nullptr ? *time_ : no_time();
    }
    [[nodiscard]] const std::vector<double>& value() const noexcept {
        return value_;
    }
    [[nodiscard]] double time_at(std::size_t i) const { return time()[i]; }
    [[nodiscard]] double value_at(std::size_t i) const { return value_[i]; }

    [[nodiscard]] double t_begin() const { return time().front(); }
    [[nodiscard]] double t_end() const { return time().back(); }

    /// Linear interpolation at time t (clamped to the end values outside
    /// the record).  Throws AnalysisError on an empty waveform.
    ///
    /// Interior lookups keep a last-segment cursor: consumers sample
    /// waveforms on monotone grids (resampled(), the measure:: helpers,
    /// Monte-Carlo statistics), so the next query almost always lands in
    /// the hinted or the following segment — O(1) instead of a binary
    /// search per sample.  The cursor lives in a small THREAD-LOCAL
    /// cache keyed by waveform identity: concurrent samplers of the same
    /// waveform each advance their own hint instead of ping-ponging a
    /// shared one (which silently degraded every reader to repeated
    /// binary searches).  Values are bit-identical either way — the hint
    /// only chooses how the segment is found, never which one.
    [[nodiscard]] double at(double t) const;

    /// Uniform resampling with n >= 2 points across [t_begin, t_end].
    [[nodiscard]] Waveform resampled(std::size_t n) const;

    /// Global extrema of the recorded samples.
    [[nodiscard]] double max_value() const;
    [[nodiscard]] double min_value() const;

private:
    [[nodiscard]] static const std::vector<double>& no_time() noexcept;

    std::string label_;
    /// Null until the first sample; read-only while another wave holds
    /// it too.
    std::shared_ptr<std::vector<double>> time_;
    std::vector<double> value_;
};

/// Measurements on waveforms (delay, crossings, peaks, error norms).
namespace measure {

/// First time the waveform crosses `level` in the given direction after
/// `after`.  rising = upward crossing.  Returns NaN when never crossed.
[[nodiscard]] double crossing_time(const Waveform& w, double level,
                                   bool rising, double after = 0.0);

/// Time of the global maximum.
[[nodiscard]] double peak_time(const Waveform& w);

/// RMS of the samples (trapezoidal weighting over time).
[[nodiscard]] double rms(const Waveform& w);

/// Max |a - b| over the union time range, comparing by interpolation at
/// a's time points and b's time points.
[[nodiscard]] double max_abs_error(const Waveform& a, const Waveform& b);

/// RMS of (a - b) sampled on a uniform n-point grid over the overlap.
[[nodiscard]] double rms_error(const Waveform& a, const Waveform& b,
                               std::size_t n = 512);

} // namespace measure

} // namespace nanosim::analysis

#endif // NANOSIM_ANALYSIS_WAVEFORM_HPP
