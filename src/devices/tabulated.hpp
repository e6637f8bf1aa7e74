// Nano-Sim — tabulated chord-conductance device models.
//
// The SWEC inner loop spends most of its device-model time in the
// closed-form transcendentals of the Schulman RTD equation (exp / ln /
// atan per device, per step, per trial).  The chord conductance
// G_eq(V) = I(V)/V and its slope dG_eq/dV each depend on one branch
// voltage (paper eqs. 6-9), so this module serves both from a
// uniform-grid cubic-Hermite table over a configured voltage range.
// Inside the range a lookup is a handful of FMAs; outside it the engines
// fall back to the exact closed form, so the table can never change
// which operating branch a circuit settles on.  SWEC transients, and so
// every Monte-Carlo trial, use tables by default; the SWEC DC march
// stays closed form.
//
// Lazy fill: a table starts empty.  The first lookup that lands in a
// segment computes that segment's two grid nodes (G_eq and dG_eq/dV from
// the closed form) and checks the Hermite patch against the closed form
// at the segment midpoint, where the interpolation error peaks.  A
// segment that misses TableConfig::rel_tol is rejected: every lookup in
// it answers "use the closed form", so a table trades at most `rel_tol`
// of accuracy.  A run pays only for the voltage range it visits.
//
// Determinism: a node's value depends only on its voltage, and the
// error floor of the gate is fixed at construction from a coarse scan,
// never from the segments visited so far.  A lookup therefore returns
// the same bits, and a segment the same accept/reject verdict, whatever
// order the segments were filled in.  Construction and fills charge no
// flops (FlopMute): they are set-up work, and a run's flop total must not
// depend on which segments its cache filled before.
//
// Sharing: tables are keyed by (device class, parameter set, grid
// config) in a TableStore, so the 1024 identical RTDs of a mesh share
// ONE table, and a SimSession's persistent solver cache shares that
// table across every Monte-Carlo trial and sweep point
// (chord_table_build_count() lets tests assert the reuse).  A table owns
// a copy of the parameters it tabulates: a later parameter change cannot
// reach a table filed under the old key.
//
// Confinement: a lookup may fill a segment, so a table mutates as it is
// read.  Each table, and the TableStore holding it, belongs to ONE
// SystemCache and is used by one thread at a time.  Monte-Carlo workers
// each own a cache, and so their own tables.
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

namespace nanosim {

/// Configuration of the tabulated-model layer (SwecTranOptions::tables).
/// `enabled = false` is the in-process closed-form reference for tests
/// and benches; it is not a user-facing option.
struct TableConfig {
    bool enabled = true;
    double v_min = -2.0;    ///< table range lower bound [V]
    double v_max = 8.0;     ///< table range upper bound [V]
    std::size_t points = 1025; ///< grid nodes (>= 2)
    /// Per-segment accuracy gate: a segment whose midpoint relative
    /// chord error exceeds this stays closed form.
    double rel_tol = 1e-6;

    [[nodiscard]] bool operator==(const TableConfig&) const = default;
};

/// Lazily filled uniform-grid cubic-Hermite tabulation of one
/// two-terminal model's chord conductance G_eq(V), with exact dG/dV node
/// slopes.  The dG_eq/dV a lookup returns is the analytic derivative of
/// the chord's Hermite patch, so the tabulated model is a
/// self-consistent C1 function: the eq. (5) predictor sees exactly the
/// slope of the conductance the stamp uses.  Not thread-safe: lookups
/// fill segments (see the confinement note above).
class ChordTable {
public:
    /// Closed forms of the tabulated model: G_eq(v) and dG_eq/dV at the
    /// grid nodes, G_eq(v) alone at the midpoints the gate checks (the
    /// cheaper call).  Both must own everything they read: fills run long
    /// after construction.
    struct Model {
        std::function<void(double v, double& g, double& dg)> chord_and_dv;
        std::function<double(double v)> chord;
    };

    /// Empty table on `points` uniform nodes over [v_min, v_max] whose
    /// segments are gated at `rel_tol`.  Fixes the gate's error floor
    /// from a coarse scan of the model.  Throws AnalysisError on a
    /// degenerate range or points < 2.
    ChordTable(Model model, double v_min, double v_max, std::size_t points,
               double rel_tol);

    /// True when v is inside the tabulated range.
    [[nodiscard]] bool contains(double v) const noexcept {
        return v >= v_min_ && v <= v_max_;
    }

    /// Tabulated G_eq(v) into `g` and, when `dg` is non-null, dG_eq/dV
    /// into *dg; fills v's segment on its first visit.  Returns false and
    /// writes nothing when v lies outside the range or in a segment that
    /// failed the accuracy gate: the caller evaluates the closed form.
    [[nodiscard]] bool lookup(double v, double& g, double* dg = nullptr);

    /// Fraction of the scanned max |chord| below which absolute error is
    /// measured against that floor instead of the (vanishing) local value:
    /// errors in conductances a thousand times below the device's own
    /// scale are circuit noise.
    static constexpr double k_error_floor_frac = 1e-3;
    /// Intervals of the construction-time scan that sets the floor (a
    /// scale, so coarse: a short cold run must not pay for it).
    static constexpr std::size_t k_floor_scan = 16;

private:
    enum class State : std::uint8_t { empty, accepted, rejected };
    struct Node {
        double g;  ///< chord at the node
        double dg; ///< d(chord)/dV at the node
    };

    /// Compute segment i's missing nodes and gate it at its midpoint.
    void fill(std::size_t i);
    /// Node k holds a value (a filled segment touches it).
    [[nodiscard]] bool node_filled(std::size_t k) const noexcept;
    [[nodiscard]] double node_v(double k) const noexcept {
        return v_min_ + h_ * k;
    }

    Model model_;
    double v_min_ = 0.0;
    double v_max_ = 0.0;
    double h_ = 0.0;     ///< node spacing
    double inv_h_ = 0.0; ///< 1 / node spacing
    double rel_tol_ = 0.0;
    double floor_ = 0.0; ///< absolute error floor of the gate
    /// Left uninitialised: a node is written before any filled segment
    /// reads it, and a run touches only the pages it visits.
    std::unique_ptr<Node[]> nodes_;
    std::vector<State> state_; ///< per segment
};

/// Process-wide count of ChordTable constructions — lets tests assert
/// that a Monte-Carlo batch built its tables once, not once per trial.
[[nodiscard]] std::uint64_t chord_table_build_count() noexcept;

/// Registry of tables keyed by (device class, parameters, grid config).
/// acquire() is get-or-build; devices of an untabulatable class yield
/// nullptr.  Confined to one SystemCache, like its tables.
class TableStore {
public:
    [[nodiscard]] std::shared_ptr<ChordTable>
    acquire(const Device& dev, const TableConfig& cfg,
            std::size_t& builds_out);

private:
    /// Bounded: a parameter-sweep session retains recent tables without
    /// accumulating one per sweep point forever.
    static constexpr std::size_t k_max_tables = 64;

    std::map<std::string, std::shared_ptr<ChordTable>> tables_;
};

} // namespace nanosim

#endif // NANOSIM_DEVICES_TABULATED_HPP
