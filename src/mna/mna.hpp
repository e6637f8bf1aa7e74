// Nano-Sim — modified nodal analysis (MNA) assembly.
//
// Builds the G (conductance), C (reactance) and b (source) objects of the
// paper's eq. (1),  G(t) V(t) + C dV/dt = b u(t),  from a Circuit.
//
// Unknown ordering: [v_1 .. v_N, i_b1 .. i_bB] — node voltages first
// (node 0/ground eliminated), then branch currents of voltage sources and
// inductors.
//
// MnaBuilder implements the devices' Stamper interface and accumulates
// triplets; MnaAssembler caches the circuit structure (static stamps,
// nonlinear device list, noise sources) and produces per-step systems for
// the engines: NR-linearised, SWEC, or purely linear.
#ifndef NANOSIM_MNA_MNA_HPP
#define NANOSIM_MNA_MNA_HPP

#include <span>
#include <unordered_map>
#include <vector>

#include "devices/device.hpp"
#include "devices/waveform.hpp"
#include "linalg/sparse.hpp"
#include "netlist/circuit.hpp"

namespace nanosim::mna {

/// Relative tolerance under which two source corner times are the same
/// breakpoint.  Shared single source of truth: MnaAssembler::breakpoints
/// deduplicates with it and the transient engines snap with it
/// (engines::breakpoint_snap_tol) — if they diverged, duplicate corners
/// could survive dedup yet be skipped by the snap, reintroducing
/// degenerate sliver steps.
inline constexpr double k_breakpoint_snap_rel = 1e-12;

/// Stamper writing into triplet matrices + an rhs vector.
class MnaBuilder final : public Stamper {
public:
    MnaBuilder(int num_nodes, int num_branches);

    // Stamper interface.
    void conductance(NodeId a, NodeId b, double g) override;
    void conductance_entry(NodeId row, NodeId col, double g) override;
    void capacitance(NodeId a, NodeId b, double c) override;
    void rhs_current(NodeId node, double i) override;
    void branch_incidence(NodeId node, int branch, double sign) override;
    void branch_voltage_coeff(int branch, NodeId node, double coeff) override;
    void branch_reactive(int branch_row, int branch_col,
                         double value) override;
    void branch_rhs(int branch, double value) override;

    [[nodiscard]] const linalg::Triplets& g() const noexcept { return g_; }
    [[nodiscard]] const linalg::Triplets& c() const noexcept { return c_; }
    [[nodiscard]] const linalg::Vector& rhs() const noexcept { return rhs_; }
    [[nodiscard]] linalg::Vector& rhs() noexcept { return rhs_; }

private:
    [[nodiscard]] int node_row(NodeId n) const noexcept { return n - 1; }
    [[nodiscard]] int branch_row(int b) const noexcept {
        return num_nodes_ + b;
    }

    int num_nodes_;
    int num_branches_;
    linalg::Triplets g_;
    linalg::Triplets c_;
    linalg::Vector rhs_;
};

/// Cached assembly of one Circuit.
class MnaAssembler {
public:
    /// Validates the circuit (throws NetlistError on dangling nodes etc.).
    explicit MnaAssembler(const Circuit& circuit);

    [[nodiscard]] const Circuit& circuit() const noexcept { return *circuit_; }
    [[nodiscard]] int num_nodes() const noexcept { return num_nodes_; }
    [[nodiscard]] int num_branches() const noexcept { return num_branches_; }
    [[nodiscard]] int unknowns() const noexcept {
        return num_nodes_ + num_branches_;
    }

    /// Static (linear, time-invariant) G triplets: resistors, source and
    /// inductor branch rows.
    [[nodiscard]] const linalg::Triplets& static_g() const noexcept {
        return static_g_;
    }

    /// Reactive triplets: capacitors and inductor -L terms.
    [[nodiscard]] const linalg::Triplets& c_triplets() const noexcept {
        return c_;
    }

    /// Compressed C for fast C*x products in companion models.
    [[nodiscard]] const linalg::CsrMatrix& c_csr() const noexcept {
        return c_csr_;
    }

    /// Per-noise-source sample-path realizations (parallel to
    /// noise_sources()); used by the Monte-Carlo wrapper to turn white
    /// noise into concrete current stimuli for deterministic engines.
    using NoiseRealization = std::vector<WaveformPtr>;

    /// Source vector b(t).  When `noise` is given, each noise source is
    /// additionally realized as a current injection of its waveform value
    /// at t (ISource sign convention).
    [[nodiscard]] linalg::Vector
    rhs(double t, const NoiseRealization* noise = nullptr) const;

    /// Nonlinear devices, in circuit order (engines keep per-device state
    /// in vectors parallel to this list).
    [[nodiscard]] const std::vector<const Device*>&
    nonlinear_devices() const noexcept {
        return nonlinear_;
    }

    /// White-noise sources (for the Euler-Maruyama engine).
    [[nodiscard]] const std::vector<const Device*>&
    noise_sources() const noexcept {
        return noise_;
    }

    /// Time-varying linear devices (Device::time_varying()).
    [[nodiscard]] const std::vector<const Device*>&
    time_varying_devices() const noexcept {
        return time_varying_;
    }

    /// ADD the G entries of all time-varying linear devices at time t.
    /// Engines call this wherever they copy static_g().
    void add_time_varying_stamps(double t, linalg::Triplets& g) const;

    // ---- Stamper-direct variants ----
    // The add_*_stamps helpers above materialise a scratch MnaBuilder and
    // merge its triplets; these write straight into any Stamper instead —
    // the zero-allocation restamp path SystemCache builds on.  RHS
    // contributions (NR Norton currents, PWL offsets) flow through the
    // stamper's rhs_current/branch_rhs hooks.

    /// Stamp all time-varying linear devices at time t into `st`.
    void stamp_time_varying_into(double t, Stamper& st) const;

    /// Stamp SWEC chord conductances (`geq` parallel to
    /// nonlinear_devices()) into `st`.
    void stamp_swec_into(std::span<const double> geq, Stamper& st) const;

    /// Stamp the Newton-Raphson linearisation at trial point `x` into
    /// `st` (tangent conductances into the matrix, Norton currents into
    /// the stamper's rhs hooks).
    void stamp_nr_into(std::span<const double> x, Stamper& st) const;

    /// Branch base of a device (by pointer; must belong to the circuit).
    [[nodiscard]] int branch_base_of(const Device* dev) const;

    /// ADD the Newton-Raphson linearisation (tangent conductances +
    /// Norton currents) of every nonlinear device at trial point `x` into
    /// an existing system.  Callers pre-fill `g` with static_g() (copy)
    /// and `rhs` with (possibly scaled) sources — this split is what lets
    /// source stepping scale only the independent sources.
    void add_nr_stamps(std::span<const double> x, linalg::Triplets& g,
                       linalg::Vector& rhs) const;

    /// ADD SWEC chord-conductance stamps, `geq` parallel to
    /// nonlinear_devices().
    void add_swec_stamps(std::span<const double> geq,
                         linalg::Triplets& g) const;

    /// View helper binding an unknown vector to the circuit's node count.
    [[nodiscard]] NodeVoltages view(std::span<const double> x) const noexcept {
        return NodeVoltages(x, static_cast<std::size_t>(num_nodes_));
    }

    /// Waveform corner times of all sources inside [t0, t1), sorted,
    /// deduplicated (tolerance k_breakpoint_snap_rel relative to the
    /// window) — transient engines land time points on them.
    [[nodiscard]] std::vector<double> breakpoints(double t0, double t1) const;

private:
    const Circuit* circuit_;
    int num_nodes_ = 0;
    int num_branches_ = 0;
    linalg::Triplets static_g_{0, 0};
    linalg::Triplets c_{0, 0};
    linalg::CsrMatrix c_csr_;
    std::vector<const Device*> nonlinear_;
    std::vector<const Device*> noise_;
    std::vector<const Device*> time_varying_;
    std::vector<int> branch_base_; // parallel to circuit devices
    std::unordered_map<const Device*, int> branch_base_map_;
};

/// At or below this many unknowns a system is solved by dense LU, above
/// it by sparse LU (solve_system's default and SystemCache's path).
inline constexpr std::size_t k_dense_threshold = 64;

/// Solve A x = b choosing dense LU for small systems and Gilbert-Peierls
/// sparse LU above `dense_threshold` unknowns.
[[nodiscard]] linalg::Vector
solve_system(const linalg::Triplets& a, const linalg::Vector& b,
             std::size_t dense_threshold = k_dense_threshold);

/// A representative SWEC per-step system of the circuit:
/// static G + time-varying stamps at t = 0 + chord conductances `geq`
/// on every nonlinear device + C/h.  This is the matrix the cached
/// solver refactors every accepted step; benches and solver tests use it
/// to measure/compare factorisations without running an engine.
[[nodiscard]] linalg::Triplets
swec_step_matrix(const MnaAssembler& assembler, double h,
                 double geq = 1e-3);

} // namespace nanosim::mna

#endif // NANOSIM_MNA_MNA_HPP
