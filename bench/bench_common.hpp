// Nano-Sim bench harness — shared output helpers.
//
// Every binary in bench/ regenerates one table or figure of the paper:
// it prints a banner naming the artifact, the data series as aligned
// tables/CSV, and an ASCII rendering of the figure so the *shape* (peaks,
// NDR valleys, switching edges) is visible directly in bench_output.txt.
#ifndef NANOSIM_BENCH_BENCH_COMMON_HPP
#define NANOSIM_BENCH_BENCH_COMMON_HPP

#include <iostream>
#include <string>

#include "analysis/ascii_plot.hpp"
#include "analysis/table.hpp"
#include "analysis/waveform.hpp"

namespace nanosim::bench {

/// Banner naming the reproduced artifact.
inline void banner(const std::string& artifact, const std::string& what) {
    std::cout << '\n'
              << std::string(74, '=') << '\n'
              << "Nano-Sim reproduction | " << artifact << '\n'
              << what << '\n'
              << std::string(74, '=') << '\n';
}

/// Section divider inside one bench.
inline void section(const std::string& title) {
    std::cout << '\n' << "---- " << title << " ----\n";
}

/// Plot helper with sane bench defaults.
inline void plot(const std::vector<analysis::Waveform>& waves,
                 const std::string& title, const std::string& x_label,
                 const std::string& y_label) {
    analysis::PlotOptions opt;
    opt.title = title;
    opt.x_label = x_label;
    opt.y_label = y_label;
    opt.width = 72;
    opt.height = 18;
    analysis::ascii_plot(std::cout, waves, opt);
}

/// The reproduction's shape as checks: each prints one PASS or FAIL line
/// that states its tolerance, and exit_code() is non-zero when any check
/// failed, so the CTest entry fails with the shape.
class ShapeChecks {
public:
    void check(bool ok, const std::string& what) {
        std::cout << (ok ? "PASS  " : "FAIL  ") << what << '\n';
        failed_ = failed_ || !ok;
    }
    [[nodiscard]] int exit_code() const noexcept { return failed_ ? 1 : 0; }

private:
    bool failed_ = false;
};

} // namespace nanosim::bench

#endif // NANOSIM_BENCH_BENCH_COMMON_HPP
