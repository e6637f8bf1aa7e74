#include "analysis/waveform.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace nanosim::analysis {

namespace {

void check_increasing(const std::vector<double>& time) {
    for (std::size_t i = 1; i < time.size(); ++i) {
        if (time[i] <= time[i - 1]) {
            throw AnalysisError("Waveform: time must be strictly increasing");
        }
    }
}

} // namespace

Waveform::Waveform(std::string label, std::vector<double> time,
                   std::vector<double> value)
    : label_(std::move(label)),
      time_(std::make_shared<std::vector<double>>(std::move(time))),
      value_(std::move(value)) {
    if (time_->size() != value_.size()) {
        throw AnalysisError("Waveform: time/value length mismatch");
    }
    check_increasing(*time_);
}

std::vector<Waveform>
Waveform::on_shared_axis(std::vector<double> time,
                         std::vector<std::string> labels,
                         std::vector<std::vector<double>> rows) {
    if (labels.size() != rows.size()) {
        throw AnalysisError("Waveform::on_shared_axis: " +
                            std::to_string(labels.size()) + " labels but " +
                            std::to_string(rows.size()) + " rows");
    }
    check_increasing(time);
    const auto axis = std::make_shared<std::vector<double>>(std::move(time));
    std::vector<Waveform> waves(rows.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
        if (rows[k].size() != axis->size()) {
            throw AnalysisError("Waveform: time/value length mismatch");
        }
        waves[k].label_ = std::move(labels[k]);
        waves[k].time_ = axis;
        waves[k].value_ = std::move(rows[k]);
    }
    return waves;
}

const std::vector<double>& Waveform::no_time() noexcept {
    static const std::vector<double> empty;
    return empty;
}

void Waveform::append(double t, double v) {
    if (!empty() && t <= time_->back()) {
        throw AnalysisError("Waveform::append: non-increasing time");
    }
    if (time_ == nullptr) {
        time_ = std::make_shared<std::vector<double>>();
    } else if (time_.use_count() > 1) {
        time_ = std::make_shared<std::vector<double>>(*time_); // un-share
    }
    time_->push_back(t);
    value_.push_back(v);
}

namespace {

/// Per-thread last-segment hints, direct-mapped by waveform identity.
/// Each sampling thread advances its own cursors, so concurrent readers
/// of one waveform never contend (the shared-atomic design ping-ponged
/// the hint between threads, degrading every reader to binary search).
/// A slot holding a dangling pointer is harmless: the identity is used
/// only as a hash key, never dereferenced, and a wrong hint is validated
/// against the time axis before use.
struct CursorHint {
    const void* wave = nullptr;
    std::size_t segment = 0;
};
constexpr std::size_t k_cursor_slots = 8; // power of two

CursorHint& cursor_slot(const void* wave) noexcept {
    thread_local CursorHint slots[k_cursor_slots];
    const auto key = reinterpret_cast<std::uintptr_t>(wave);
    // Low bits are alignment zeros; fold in some higher ones.
    return slots[(key >> 6) & (k_cursor_slots - 1)];
}

} // namespace

double Waveform::at(double t) const {
    if (empty()) {
        throw AnalysisError("Waveform::at: empty waveform");
    }
    const std::vector<double>& time = *time_;
    if (t <= time.front()) {
        return value_.front();
    }
    if (t >= time.back()) {
        return value_.back();
    }
    // Last-segment cursor: try the hinted segment and its successor
    // before binary-searching.  Segment selection (time[lo] <= t <
    // time[lo+1]) matches upper_bound exactly, so the interpolation is
    // bit-identical to an uncached lookup.
    const std::size_t n = time.size();
    auto in_segment = [&](std::size_t s) {
        return s + 1 < n && time[s] <= t && t < time[s + 1];
    };
    CursorHint& hint = cursor_slot(this);
    std::size_t lo = hint.wave == this ? hint.segment : 0;
    if (!in_segment(lo)) {
        if (in_segment(lo + 1)) {
            ++lo;
        } else {
            const auto it = std::upper_bound(time.begin(), time.end(), t);
            lo = static_cast<std::size_t>(it - time.begin()) - 1;
        }
    }
    hint.wave = this;
    hint.segment = lo;
    const std::size_t hi = lo + 1;
    const double f = (t - time[lo]) / (time[hi] - time[lo]);
    return value_[lo] + f * (value_[hi] - value_[lo]);
}

Waveform Waveform::resampled(std::size_t n) const {
    if (empty() || n < 2) {
        throw AnalysisError("Waveform::resampled: need data and n >= 2");
    }
    Waveform out(label_);
    const double t0 = t_begin();
    const double t1 = t_end();
    for (std::size_t i = 0; i < n; ++i) {
        const double t =
            t0 + (t1 - t0) * static_cast<double>(i) /
                     static_cast<double>(n - 1);
        out.append(t, at(t));
    }
    return out;
}

double Waveform::max_value() const {
    if (empty()) {
        throw AnalysisError("Waveform::max_value: empty waveform");
    }
    return *std::max_element(value_.begin(), value_.end());
}

double Waveform::min_value() const {
    if (empty()) {
        throw AnalysisError("Waveform::min_value: empty waveform");
    }
    return *std::min_element(value_.begin(), value_.end());
}

namespace measure {

double crossing_time(const Waveform& w, double level, bool rising,
                     double after) {
    for (std::size_t i = 1; i < w.size(); ++i) {
        const double t0 = w.time_at(i - 1);
        const double t1 = w.time_at(i);
        if (t1 < after) {
            continue;
        }
        const double v0 = w.value_at(i - 1);
        const double v1 = w.value_at(i);
        const bool crossed =
            rising ? (v0 < level && v1 >= level) : (v0 > level && v1 <= level);
        if (!crossed) {
            continue;
        }
        const double f = (level - v0) / (v1 - v0);
        const double tc = t0 + f * (t1 - t0);
        if (tc >= after) {
            return tc;
        }
    }
    return std::numeric_limits<double>::quiet_NaN();
}

double peak_time(const Waveform& w) {
    if (w.empty()) {
        throw AnalysisError("peak_time: empty waveform");
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < w.size(); ++i) {
        if (w.value_at(i) > w.value_at(best)) {
            best = i;
        }
    }
    return w.time_at(best);
}

double rms(const Waveform& w) {
    if (w.size() < 2) {
        throw AnalysisError("rms: need at least two samples");
    }
    double acc = 0.0;
    for (std::size_t i = 1; i < w.size(); ++i) {
        const double dt = w.time_at(i) - w.time_at(i - 1);
        const double v0 = w.value_at(i - 1);
        const double v1 = w.value_at(i);
        acc += dt * (v0 * v0 + v1 * v1) / 2.0;
    }
    return std::sqrt(acc / (w.t_end() - w.t_begin()));
}

double max_abs_error(const Waveform& a, const Waveform& b) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        worst = std::max(worst,
                         std::abs(a.value_at(i) - b.at(a.time_at(i))));
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
        worst = std::max(worst,
                         std::abs(b.value_at(i) - a.at(b.time_at(i))));
    }
    return worst;
}

double rms_error(const Waveform& a, const Waveform& b, std::size_t n) {
    const double t0 = std::max(a.t_begin(), b.t_begin());
    const double t1 = std::min(a.t_end(), b.t_end());
    if (!(t1 > t0) || n < 2) {
        throw AnalysisError("rms_error: waveforms do not overlap");
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = t0 + (t1 - t0) * static_cast<double>(i) /
                                  static_cast<double>(n - 1);
        const double d = a.at(t) - b.at(t);
        acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(n));
}

} // namespace measure

} // namespace nanosim::analysis
