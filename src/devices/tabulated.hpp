// Nano-Sim — tabulated chord-conductance device models.
//
// The SWEC inner loop spends most of its device-model time in the
// closed-form transcendentals of the Schulman RTD equation (exp / ln /
// atan per device, per step, per trial).  The paper's own SWEC
// formulation is table-driven in spirit — the chord conductance is a
// scalar function of one branch voltage — so this module captures each
// two-terminal model's
//
//     I(V),  G_eq(V) = I(V)/V,  dG_eq/dV
//
// once into a uniform-grid cubic-Hermite table over a configured voltage
// range.  Inside the range a lookup is a handful of FMAs; outside it the
// engines fall back to the exact closed form, so the table can never
// change which operating branch a circuit settles on.
//
// Accuracy gating: a freshly built table measures its own worst relative
// chord error against the closed form on the interval midpoints (the
// maxima of the Hermite error).  A table that misses TableConfig::rel_tol
// is rejected at build time and the device stays closed-form — enabling
// tables can therefore trade at most `rel_tol` of accuracy.
//
// Sharing: tables are keyed by (device class, parameter set, grid
// config) in a TableStore, so the 1024 identical RTDs of a mesh share
// ONE table, and a SimSession's persistent solver cache shares that
// table across every Monte-Carlo trial and sweep point
// (chord_table_build_count() lets tests assert the reuse).
//
// Tabulatable classes: Rtd, Diode, Nanowire — two-terminal models whose
// chord depends on a single branch voltage.  Mosfet/Rtt chords depend on
// a second controlling voltage and always evaluate closed-form.
#ifndef NANOSIM_DEVICES_TABULATED_HPP
#define NANOSIM_DEVICES_TABULATED_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "devices/device.hpp"
#include "util/fields.hpp"

namespace nanosim {

/// Configuration of the tabulated-model layer (engine option block; a
/// default-constructed config leaves every model closed-form).
struct TableConfig {
    bool enabled = false;
    double v_min = -2.0;    ///< table range lower bound [V]
    double v_max = 8.0;     ///< table range upper bound [V]
    std::size_t points = 4097; ///< grid nodes (>= 2)
    /// Build-time accuracy gate: a table whose measured max relative
    /// chord error exceeds this is rejected (device stays closed-form).
    double rel_tol = 1e-6;

    [[nodiscard]] bool operator==(const TableConfig&) const = default;
};

constexpr auto field_table(std::type_identity<TableConfig>) {
    return std::tuple{
        Field{"enabled", &TableConfig::enabled},
        Field{"v_min", &TableConfig::v_min},
        Field{"v_max", &TableConfig::v_max},
        Field{"points", &TableConfig::points},
        Field{"rel_tol", &TableConfig::rel_tol}};
}

/// Uniform-grid cubic-Hermite tabulation of one two-terminal model:
/// current I(V) (with exact dI/dV node slopes) and chord conductance
/// G_eq(V) (with exact dG/dV node slopes).  chord_dv() is the analytic
/// derivative of the chord's Hermite patch, so the tabulated model is a
/// self-consistent C1 function — the eq. (5) predictor sees exactly the
/// slope of the conductance the stamp uses.
class ChordTable {
public:
    /// Closed-form callbacks of the model being tabulated.
    struct Model {
        std::function<double(double)> current;  ///< I(V)
        std::function<double(double)> didv;     ///< dI/dV
        std::function<double(double)> chord;    ///< I(V)/V (with V->0 limit)
        std::function<double(double)> chord_dv; ///< d(chord)/dV
    };

    /// Sample the model on `points` uniform nodes over [v_min, v_max] and
    /// measure the worst-case midpoint chord error.  Throws AnalysisError
    /// on a degenerate range or points < 2.
    ChordTable(const Model& model, double v_min, double v_max,
               std::size_t points);

    [[nodiscard]] double v_min() const noexcept { return v_min_; }
    [[nodiscard]] double v_max() const noexcept { return v_max_; }
    [[nodiscard]] std::size_t points() const noexcept { return g_.size(); }

    /// True when v is inside the tabulated range (callers must fall back
    /// to the closed form outside it).
    [[nodiscard]] bool contains(double v) const noexcept {
        return v >= v_min_ && v <= v_max_;
    }

    /// Chord conductance G_eq(v); only valid when contains(v).
    [[nodiscard]] double chord(double v) const noexcept;
    /// dG_eq/dV — exact derivative of the chord() Hermite patch.
    [[nodiscard]] double chord_dv(double v) const noexcept;
    /// Branch current I(v); only valid when contains(v).
    [[nodiscard]] double current(double v) const noexcept;

    /// Worst midpoint |table - closed form| / max(|closed form|, floor)
    /// measured at build time, where floor is k_error_floor_frac of the
    /// model's conductance scale over the range (errors in conductances
    /// a thousand times below the device's own scale are circuit noise).
    [[nodiscard]] double max_rel_error() const noexcept {
        return max_rel_error_;
    }

    /// Fraction of the range's max |chord| below which absolute error is
    /// measured against the floor instead of the (vanishing) local value.
    static constexpr double k_error_floor_frac = 1e-3;

private:
    struct Segment {
        std::size_t i;  ///< left node
        double t;       ///< normalised position in [0, 1]
    };
    [[nodiscard]] Segment segment(double v) const noexcept;

    double v_min_ = 0.0;
    double v_max_ = 0.0;
    double inv_h_ = 0.0; ///< 1 / node spacing
    double h_ = 0.0;     ///< node spacing
    std::vector<double> i_;  ///< current at nodes
    std::vector<double> di_; ///< dI/dV at nodes
    std::vector<double> g_;  ///< chord at nodes
    std::vector<double> dg_; ///< d(chord)/dV at nodes
    double max_rel_error_ = 0.0;
};

/// Process-wide count of ChordTable builds — lets tests assert that a
/// Monte-Carlo batch built its tables once, not once per trial.
[[nodiscard]] std::uint64_t chord_table_build_count() noexcept;

/// Registry of built tables keyed by (device class, parameters, grid
/// config).  acquire() is get-or-build; devices of an untabulatable
/// class, and tables failing the config's accuracy gate, yield nullptr
/// (the nullptr is cached too, so a rejected build is not repeated).
class TableStore {
public:
    [[nodiscard]] std::shared_ptr<const ChordTable>
    acquire(const Device& dev, const TableConfig& cfg,
            std::size_t& builds_out);

    [[nodiscard]] std::size_t size() const noexcept {
        return tables_.size();
    }

private:
    /// Bounded: a parameter-sweep session retains recent tables without
    /// accumulating one per sweep point forever.
    static constexpr std::size_t k_max_tables = 64;

    std::map<std::string, std::shared_ptr<const ChordTable>> tables_;
};

/// Identity key of a device's tabulated model: class tag + parameter
/// bytes + grid config.  Empty when the device class is not tabulatable.
[[nodiscard]] std::string chord_table_key(const Device& dev,
                                          const TableConfig& cfg);

} // namespace nanosim

#endif // NANOSIM_DEVICES_TABULATED_HPP
