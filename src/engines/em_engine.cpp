#include "engines/em_engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "devices/sources.hpp"
#include "engines/dc_swec.hpp"
#include "engines/wave_recorder.hpp"
#include "util/error.hpp"

namespace nanosim::engines {

namespace {

/// B * dW accumulated into a vector (ISource sign convention: the noise
/// current is drawn out of pos and injected into neg).
void add_noise_injection(const mna::MnaAssembler& assembler,
                         std::span<const double> dw, linalg::Vector& out,
                         double gain) {
    const auto& noise = assembler.noise_sources();
    for (std::size_t k = 0; k < noise.size(); ++k) {
        const auto* src = static_cast<const NoiseCurrentSource*>(noise[k]);
        const double amp = gain * src->sigma() * dw[k];
        if (src->pos() != k_ground) {
            out[static_cast<std::size_t>(src->pos() - 1)] -= amp;
        }
        if (src->neg() != k_ground) {
            out[static_cast<std::size_t>(src->neg() - 1)] += amp;
        }
    }
}

} // namespace

EmEngine::EmEngine(const mna::MnaAssembler& assembler,
                   const EmOptions& options)
    : assembler_(&assembler), options_(options) {
    if (options_.t_stop <= 0.0 || options_.dt <= 0.0) {
        throw AnalysisError("EmEngine: t_stop and dt must be positive");
    }
    if (options_.dt > options_.t_stop) {
        throw AnalysisError("EmEngine: dt exceeds t_stop");
    }
    steps_ = static_cast<std::size_t>(
        std::llround(options_.t_stop / options_.dt));
    if (steps_ == 0) {
        steps_ = 1;
    }
    if (assembler.noise_sources().empty()) {
        throw AnalysisError(
            "EmEngine: circuit has no noise sources (nothing stochastic)");
    }
    if (!options_.initial.empty() &&
        options_.initial.size() !=
            static_cast<std::size_t>(assembler.unknowns())) {
        throw AnalysisError("EmEngine: initial size mismatch");
    }
    if (options_.scheme == EmScheme::explicit_em) {
        check_explicit_feasible();
        c_lu_.emplace(assembler.c_triplets());
    }
}

void EmEngine::check_explicit_feasible() const {
    if (assembler_->num_branches() != 0) {
        throw AnalysisError(
            "EmEngine(explicit): branch unknowns (V sources / inductors) "
            "make C singular; use EmScheme::implicit_be");
    }
    // Every node needs capacitance for C to be invertible.
    const auto& c = assembler_->c_csr();
    for (int j = 0; j < assembler_->num_nodes(); ++j) {
        const auto r = static_cast<std::size_t>(j);
        if (c.at(r, r) == 0.0) {
            throw AnalysisError(
                "EmEngine(explicit): node '" +
                assembler_->circuit().node_name(j + 1) +
                "' carries no capacitance; C is singular — use "
                "EmScheme::implicit_be");
        }
    }
}

linalg::Vector EmEngine::initial_state(mna::SystemCache& cache) const {
    if (!options_.initial.empty()) {
        return options_.initial;
    }
    if (options_.start_from_dc) {
        return solve_op_swec(*assembler_, {}, 0.0, 1.0, &cache).x;
    }
    return linalg::Vector(static_cast<std::size_t>(assembler_->unknowns()),
                          0.0);
}

std::vector<stochastic::WienerPath>
EmEngine::draw_paths(stochastic::Rng& rng) const {
    std::vector<stochastic::WienerPath> paths;
    paths.reserve(assembler_->noise_sources().size());
    for (std::size_t k = 0; k < assembler_->noise_sources().size(); ++k) {
        paths.emplace_back(rng, options_.t_stop, steps_);
    }
    return paths;
}

EmPathResult EmEngine::run_path(stochastic::Rng& rng,
                                mna::SystemCache* cache) const {
    return run_path(draw_paths(rng), cache);
}

EmPathResult EmEngine::run_path(std::span<const stochastic::WienerPath> paths,
                                mna::SystemCache* cache) const {
    if (paths.size() != assembler_->noise_sources().size()) {
        throw AnalysisError("EmEngine: need one Wiener path per source");
    }
    for (const auto& p : paths) {
        if (p.steps() != steps_) {
            throw AnalysisError(
                "EmEngine: Wiener path grid does not match engine grid");
        }
    }
    std::optional<mna::SystemCache> local_cache; // set-up: outside the tally
    if (cache == nullptr) {
        cache = &local_cache.emplace(*assembler_);
    }
    const FlopScope scope;
    EmPathResult result;
    WaveRecorder recorder(*assembler_, {}, cache->record_clock());
    integrate(paths, initial_state(*cache), *cache,
              [&recorder](double t, const linalg::Vector& x) {
                  recorder.record(t, x);
              });
    result.node_waves = recorder.take();
    result.flops = scope.counter();
    return result;
}

void EmEngine::integrate(std::span<const stochastic::WienerPath> paths,
                         linalg::Vector x, mna::SystemCache& cache,
                         const Recorder& record) const {
    // The chord tables SWEC transients use, bound after any DC march
    // (which runs the closed forms); every path starts from an exact
    // factor whatever the cache solved before.
    cache.configure_tables(TableConfig{});
    cache.start_run();
    const auto n = static_cast<std::size_t>(assembler_->unknowns());
    const bool explicit_scheme = options_.scheme == EmScheme::explicit_em;
    const double dt = options_.t_stop / static_cast<double>(steps_);
    std::vector<double> geq(assembler_->nonlinear_devices().size(), 0.0);
    std::vector<double> dw(paths.size(), 0.0);

    record(0.0, x);
    for (std::size_t j = 0; j < steps_; ++j) {
        const double t = dt * static_cast<double>(j);
        const double t_next = t + dt;
        for (std::size_t k = 0; k < paths.size(); ++k) {
            dw[k] = paths[k].increment(j);
        }

        linalg::Vector rhs = cache.rhs(explicit_scheme ? t : t_next);
        if (!explicit_scheme) {
            // (C/dt + G) x' = (C/dt) x + b + B dW/dt.
            cache.add_history(x, dt, rhs);
            add_noise_injection(*assembler_, dw, rhs, 1.0 / dt);
        }
        // G(t) in place: static + time-varying + SWEC chords at X_j.
        cache.eval_chords(x, {}, false, geq, {});
        for (double& g : geq) {
            g = std::max(g, 0.0);
        }
        cache.begin(explicit_scheme ? 0.0 : 1.0 / dt, rhs);
        cache.restamp_time_varying(t);
        cache.restamp_swec(geq);

        if (explicit_scheme) {
            // z solves C z = dt (b - G x) + B dW;  x += z   (eq. 18).
            const linalg::Vector gx = cache.multiply(x);
            for (std::size_t i = 0; i < n; ++i) {
                rhs[i] = dt * (rhs[i] - gx[i]);
            }
            add_noise_injection(*assembler_, dw, rhs, 1.0);
            const linalg::Vector z = c_lu_->solve(rhs);
            for (std::size_t i = 0; i < n; ++i) {
                x[i] += z[i];
            }
        } else {
            x = cache.solve(rhs);
        }
        record(t_next, x);
    }
}

} // namespace nanosim::engines
