#include "devices/tabulated.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <typeinfo>
#include <utility>

#include "devices/diode.hpp"
#include "devices/nanowire.hpp"
#include "devices/rtd.hpp"
#include "util/error.hpp"
#include "util/flops.hpp"

namespace nanosim {

namespace {

std::atomic<std::uint64_t> g_build_count{0};

/// Append the raw bytes of a scalar to a key string (params are plain
/// doubles/ints; field-by-field append avoids struct padding bytes).
template <typename T>
void append_bytes(std::string& key, const T& v) {
    const auto* p = reinterpret_cast<const char*>(&v);
    key.append(p, sizeof(T));
}

} // namespace

std::uint64_t chord_table_build_count() noexcept {
    return g_build_count.load(std::memory_order_relaxed);
}

ChordTable::ChordTable(Model model, double v_min, double v_max,
                       std::size_t points, double rel_tol)
    : model_(std::move(model)) {
    if (!(v_max > v_min) || points < 2 || !std::isfinite(v_min) ||
        !std::isfinite(v_max)) {
        throw AnalysisError("ChordTable: need finite v_min < v_max and "
                            "points >= 2");
    }
    v_min_ = v_min;
    v_max_ = v_max;
    h_ = (v_max - v_min) / static_cast<double>(points - 1);
    inv_h_ = 1.0 / h_;
    rel_tol_ = rel_tol;
    nodes_ = std::make_unique_for_overwrite<Node[]>(points);
    state_.assign(points - 1, State::empty);
    g_build_count.fetch_add(1, std::memory_order_relaxed);

    // The gate's floor comes from a fixed coarse scan of the whole range,
    // so no verdict depends on which segments happen to be visited first.
    const FlopMute mute;
    double g_scale = 0.0;
    for (std::size_t j = 0; j <= k_floor_scan; ++j) {
        g_scale = std::max(
            g_scale, std::abs(model_.chord(
                         v_min + (v_max - v_min) * static_cast<double>(j) /
                                     static_cast<double>(k_floor_scan))));
    }
    floor_ = std::max(k_error_floor_frac * g_scale,
                      std::numeric_limits<double>::min());
}

namespace {

/// Cubic Hermite basis evaluation on one segment: value from node values
/// (y0, y1) and node slopes (d0, d1), with h the segment width.
inline double hermite(double t, double y0, double y1, double d0, double d1,
                      double h) noexcept {
    const double t2 = t * t;
    const double t3 = t2 * t;
    count_fma(8);
    return (2.0 * t3 - 3.0 * t2 + 1.0) * y0 + (t3 - 2.0 * t2 + t) * h * d0 +
           (-2.0 * t3 + 3.0 * t2) * y1 + (t3 - t2) * h * d1;
}

/// Exact derivative (d/dv) of the Hermite patch above.
inline double hermite_dv(double t, double y0, double y1, double d0,
                         double d1, double h) noexcept {
    const double t2 = t * t;
    count_fma(8);
    return (6.0 * t2 - 6.0 * t) * (y0 - y1) / h +
           (3.0 * t2 - 4.0 * t + 1.0) * d0 + (3.0 * t2 - 2.0 * t) * d1;
}

} // namespace

bool ChordTable::node_filled(std::size_t k) const noexcept {
    return (k > 0 && state_[k - 1] != State::empty) ||
           (k < state_.size() && state_[k] != State::empty);
}

void ChordTable::fill(std::size_t i) {
    const FlopMute mute;
    for (const std::size_t k : {i, i + 1}) {
        if (!node_filled(k)) {
            model_.chord_and_dv(node_v(static_cast<double>(k)), nodes_[k].g,
                                nodes_[k].dg);
        }
    }
    const double exact = model_.chord(node_v(static_cast<double>(i) + 0.5));
    const Node& a = nodes_[i];
    const Node& b = nodes_[i + 1];
    const double err = std::abs(hermite(0.5, a.g, b.g, a.dg, b.dg, h_) -
                                exact);
    state_[i] = err <= rel_tol_ * std::max(std::abs(exact), floor_)
                    ? State::accepted
                    : State::rejected;
}

bool ChordTable::lookup(double v, double& g, double* dg) {
    if (!contains(v)) {
        return false;
    }
    // v == v_max lands in the last segment.
    const std::size_t i = std::min(static_cast<std::size_t>((v - v_min_) *
                                                            inv_h_),
                                   state_.size() - 1);
    if (state_[i] == State::empty) {
        fill(i);
    }
    if (state_[i] == State::rejected) {
        return false;
    }
    const double t = (v - node_v(static_cast<double>(i))) * inv_h_;
    const Node& a = nodes_[i];
    const Node& b = nodes_[i + 1];
    g = hermite(t, a.g, b.g, a.dg, b.dg, h_);
    if (dg != nullptr) {
        *dg = hermite_dv(t, a.g, b.g, a.dg, b.dg, h_);
    }
    return true;
}

namespace {

/// Identity key of a device's tabulated model: class tag + parameter
/// bytes + grid config.  Empty when the device class is not tabulatable.
std::string chord_table_key(const Device& dev, const TableConfig& cfg) {
    std::string key;
    if (typeid(dev) == typeid(Rtd)) {
        const auto& p = static_cast<const Rtd&>(dev).params();
        key = "rtd:";
        append_bytes(key, p.a);
        append_bytes(key, p.b);
        append_bytes(key, p.c);
        append_bytes(key, p.d);
        append_bytes(key, p.n1);
        append_bytes(key, p.n2);
        append_bytes(key, p.h);
        append_bytes(key, p.temp);
    } else if (typeid(dev) == typeid(Diode)) {
        const auto& p = static_cast<const Diode&>(dev).params();
        key = "diode:";
        append_bytes(key, p.i_sat);
        append_bytes(key, p.emission);
        append_bytes(key, p.temp);
    } else if (typeid(dev) == typeid(Nanowire)) {
        const auto& p = static_cast<const Nanowire&>(dev).params();
        key = "nanowire:";
        append_bytes(key, p.channels);
        append_bytes(key, p.v_step);
        append_bytes(key, p.smear);
        append_bytes(key, p.g0);
    } else {
        return {}; // not tabulatable (multi-control or unknown class)
    }
    append_bytes(key, cfg.v_min);
    append_bytes(key, cfg.v_max);
    append_bytes(key, cfg.points);
    // rel_tol is part of the identity: a table caches per-segment
    // accept/reject verdicts, and the same segment can pass one tolerance
    // while failing a stricter one.
    append_bytes(key, cfg.rel_tol);
    return key;
}

/// The closed-form chord of a two-terminal device of class Dev, over a
/// private copy built from its parameters.
template <typename Dev>
ChordTable::Model copied_model(const Device& dev) {
    const auto copy = std::make_shared<const Dev>(
        dev.name(), 1, k_ground, static_cast<const Dev&>(dev).params());
    return {[copy](double v, double& g, double& dg) {
                g = copy->chord_conductance(v);
                dg = copy->chord_conductance_dv(v);
            },
            [copy](double v) { return copy->chord_conductance(v); }};
}

/// The closed-form model a table of `dev` fills from (`dev` must be
/// tabulatable).  RTD nodes use the fused evaluator, bit-identical to
/// the separate chord / chord_dv closed forms.
ChordTable::Model chord_model(const Device& dev) {
    if (typeid(dev) == typeid(Rtd)) {
        const RtdParams p = static_cast<const Rtd&>(dev).params();
        return {[p](double v, double& g, double& dg) {
                    rtd_math::chord_and_dv(p, v, g, dg);
                },
                [p](double v) { return rtd_math::chord(p, v); }};
    }
    if (typeid(dev) == typeid(Diode)) {
        return copied_model<Diode>(dev);
    }
    return copied_model<Nanowire>(dev);
}

} // namespace

std::shared_ptr<ChordTable> TableStore::acquire(const Device& dev,
                                                const TableConfig& cfg,
                                                std::size_t& builds_out) {
    const std::string key = chord_table_key(dev, cfg);
    if (key.empty()) {
        return nullptr;
    }
    if (const auto it = tables_.find(key); it != tables_.end()) {
        return it->second;
    }
    auto table = std::make_shared<ChordTable>(
        chord_model(dev), cfg.v_min, cfg.v_max, cfg.points, cfg.rel_tol);
    ++builds_out;
    if (tables_.size() >= k_max_tables) {
        tables_.erase(tables_.begin());
    }
    tables_.emplace(key, table);
    return table;
}

} // namespace nanosim
