#include "core/analysis_spec.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/vecops.hpp"

namespace nanosim {

const char* engine_name(DcEngine engine) noexcept {
    switch (engine) {
    case DcEngine::swec:
        return "swec";
    case DcEngine::newton_raphson:
        return "nr";
    case DcEngine::mla:
        return "mla";
    }
    return "?";
}

const char* engine_name(TranEngine engine) noexcept {
    switch (engine) {
    case TranEngine::swec:
        return "swec";
    case TranEngine::newton_raphson:
        return "nr";
    case TranEngine::pwl:
        return "pwl";
    }
    return "?";
}

const char* analysis_kind_name(AnalysisKind kind) noexcept {
    switch (kind) {
    case AnalysisKind::op:
        return "op";
    case AnalysisKind::dc_sweep:
        return "dc";
    case AnalysisKind::tran:
        return "tran";
    case AnalysisKind::monte_carlo:
        return "mc";
    case AnalysisKind::ensemble:
        return "em";
    }
    return "?";
}

linalg::Vector DcSweepSpec::values() const {
    const double intervals = (stop - start) / step;
    if (step == 0.0 || intervals < 0.0 || !std::isfinite(intervals)) {
        throw AnalysisError("DcSweepSpec '" + name +
                            "': inconsistent start/stop/step");
    }
    // A step that divides the span exactly can leave the quotient a
    // rounding error short of the integer (0.3 / 0.1 gives
    // 2.9999999999999996); snap it so the endpoint is not lost.  A step
    // that does not divide it stops at the last whole step short of
    // `stop` (0 to 0.35 by 0.1 ends at 0.3).
    const double nearest = std::round(intervals);
    const bool divides =
        std::abs(intervals - nearest) <= 1e-9 * std::max(nearest, 1.0);
    const double whole = divides ? nearest : std::floor(intervals);
    const double last = divides ? stop : start + whole * step;
    return linalg::linspace(start, last, static_cast<std::size_t>(whole) + 1);
}

} // namespace nanosim
