// Nano-Sim — statistics utilities for ensemble analysis.
//
// RunningStats accumulates mean/variance/extrema in one pass (Welford);
// EnsembleStats aggregates many sample paths point-by-point and answers
// the questions the paper's Sec. 4 cares about: expected waveform,
// variance envelope, and the distribution of the *peak within a time
// window* (the paper's Black-Scholes-style peak prediction).
#ifndef NANOSIM_STOCHASTIC_STATS_HPP
#define NANOSIM_STOCHASTIC_STATS_HPP

#include <cstddef>
#include <vector>

namespace nanosim::stochastic {

/// One-pass mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
public:
    void add(double x) noexcept;

    [[nodiscard]] std::size_t count() const noexcept { return n_; }
    [[nodiscard]] double mean() const noexcept { return mean_; }
    /// Unbiased sample variance (0 for fewer than 2 samples).
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
    [[nodiscard]] double min() const noexcept { return min_; }
    [[nodiscard]] double max() const noexcept { return max_; }

    /// Half-width of the ~95% confidence interval of the mean.
    [[nodiscard]] double ci95_halfwidth() const noexcept;

    /// Raw second central moment sum (Welford M2) — together with
    /// count/mean/min/max this is the complete accumulator state, exposed
    /// so Monte-Carlo checkpoints can round-trip it bit-exactly.
    [[nodiscard]] double m2() const noexcept { return m2_; }

    /// Restore the exact accumulator state captured by count()/mean()/
    /// m2()/min()/max().  A restored accumulator continues the original
    /// add() sequence bit-identically (the checkpoint/resume contract).
    void restore(std::size_t n, double mean, double m2, double min,
                 double max) noexcept;

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Percentile of a sample set (linear interpolation between order
/// statistics); p in [0, 100].  Throws AnalysisError on empty input.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Simple fixed-width histogram.
class Histogram {
public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x) noexcept;

    [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
    [[nodiscard]] std::size_t count(std::size_t bin) const {
        return counts_[bin];
    }
    [[nodiscard]] double bin_center(std::size_t bin) const noexcept;
    [[nodiscard]] std::size_t total() const noexcept { return total_; }
    /// Samples outside [lo, hi).
    [[nodiscard]] std::size_t overflow() const noexcept { return overflow_; }

private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
    std::size_t overflow_ = 0;
};

/// Point-by-point aggregation of equal-length sample paths.
class EnsembleStats {
public:
    EnsembleStats() = default;
    /// `points` = number of time samples per path.
    explicit EnsembleStats(std::size_t points);

    /// Add one complete path (size must equal points; throws
    /// AnalysisError otherwise).  Also records the path's peak value.
    void add_path(const std::vector<double>& path);

    [[nodiscard]] std::size_t paths() const noexcept { return paths_; }
    [[nodiscard]] std::size_t points() const noexcept {
        return per_point_.size();
    }

    /// Statistics of sample value at time index i.
    [[nodiscard]] const RunningStats& at(std::size_t i) const {
        return per_point_[i];
    }

    /// Mean waveform.
    [[nodiscard]] std::vector<double> mean_path() const;

    /// Per-point standard deviation.
    [[nodiscard]] std::vector<double> stddev_path() const;

    /// Statistics of the per-path maximum (the "peak performance within a
    /// certain time window" of paper Sec. 4.2).
    [[nodiscard]] const RunningStats& peak_stats() const noexcept {
        return peak_;
    }

    /// All recorded per-path peaks (for percentiles/histograms).
    [[nodiscard]] const std::vector<double>& peaks() const noexcept {
        return peaks_;
    }

    /// Restore the full aggregation state (per-point accumulators, peak
    /// accumulator, per-path peaks, path count) captured from another
    /// EnsembleStats — the Monte-Carlo checkpoint/resume contract.
    /// Throws AnalysisError when per_point.size() != points().
    void restore(std::vector<RunningStats> per_point, RunningStats peak,
                 std::vector<double> peaks, std::size_t paths);

private:
    std::vector<RunningStats> per_point_;
    RunningStats peak_;
    std::vector<double> peaks_;
    std::size_t paths_ = 0;
};

} // namespace nanosim::stochastic

#endif // NANOSIM_STOCHASTIC_STATS_HPP
