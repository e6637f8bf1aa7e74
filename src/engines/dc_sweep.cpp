#include "engines/dc_sweep.hpp"

#include <memory>
#include <utility>

#include "devices/sources.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace nanosim::engines {

namespace {

/// The swept V or I source: sets its DC level per point and, on
/// destruction, puts the exact original stimulus object back.
class SourceWaveGuard {
public:
    SourceWaveGuard(Circuit& circuit, const std::string& source)
        : circuit_(circuit), source_(source) {
        if (const Device* d = circuit.find(source); d != nullptr) {
            if (d->kind() == DeviceKind::vsource) {
                is_vsource_ = true;
                saved_ = circuit.get<VSource>(source).wave_ptr();
                return;
            }
            if (d->kind() == DeviceKind::isource) {
                saved_ = circuit.get<ISource>(source).wave_ptr();
                return;
            }
        }
        throw NetlistError("dc sweep: '" + source +
                           "' is not a V or I source");
    }
    ~SourceWaveGuard() { set_wave(std::move(saved_)); }

    SourceWaveGuard(const SourceWaveGuard&) = delete;
    SourceWaveGuard& operator=(const SourceWaveGuard&) = delete;

    void set_level(double level) { set_wave(std::make_shared<DcWave>(level)); }

private:
    void set_wave(WaveformPtr wave) {
        if (is_vsource_) {
            circuit_.get_mutable<VSource>(source_).set_wave(std::move(wave));
        } else {
            circuit_.get_mutable<ISource>(source_).set_wave(std::move(wave));
        }
    }

    Circuit& circuit_;
    std::string source_;
    WaveformPtr saved_;
    bool is_vsource_ = false;
};

} // namespace

SweepResult dc_sweep(Circuit& circuit, const std::string& source_name,
                     const linalg::Vector& values,
                     const AnalysisObserver* observer,
                     const SweepPointSolver& solve_point) {
    if (values.empty()) {
        throw AnalysisError("dc sweep: empty sweep");
    }
    SourceWaveGuard source(circuit, source_name);
    const FlopScope scope;
    const linalg::Vector no_previous;
    SweepResult result;
    const int total = static_cast<int>(values.size());
    for (const double v : values) {
        if (observer != nullptr && observer->cancelled()) {
            result.aborted = true;
            break;
        }
        const obs::Span point_span("sweep-point", "engine");
        source.set_level(v);
        DcResult point = solve_point(
            result.solutions.empty() ? no_previous : result.solutions.back());
        result.values.push_back(v);
        result.solutions.push_back(std::move(point.x));
        result.converged.push_back(point.converged);
        result.total_iterations += point.iterations;
        if (observer != nullptr) {
            const int done = static_cast<int>(result.values.size());
            observer->trial(done, total);
            observer->progress(static_cast<double>(done) / total);
        }
    }
    result.flops = scope.counter();
    return result;
}

} // namespace nanosim::engines
