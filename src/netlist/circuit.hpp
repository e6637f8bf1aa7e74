// Nano-Sim — circuit container.
//
// A Circuit owns its devices (unique_ptr), its node name table and a
// device name index, so a node or device lookup by name is O(1).  Node 0
// is always ground and answers to the names "0", "gnd" and "GND".  Engines
// treat the Circuit as immutable while simulating; all per-run state lives
// in the engine.
#ifndef NANOSIM_NETLIST_CIRCUIT_HPP
#define NANOSIM_NETLIST_CIRCUIT_HPP

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "devices/device.hpp"

namespace nanosim {

/// Container of devices + node table; the unit every engine consumes.
class Circuit {
public:
    Circuit() = default;

    Circuit(const Circuit&) = delete;
    Circuit& operator=(const Circuit&) = delete;
    Circuit(Circuit&&) = default;
    Circuit& operator=(Circuit&&) = default;

    /// Get-or-create the node with this name.  "0"/"gnd"/"GND" map to
    /// ground (NodeId 0).
    NodeId node(const std::string& name);

    /// Look up an existing node; throws NetlistError if absent.
    [[nodiscard]] NodeId find_node(const std::string& name) const;

    /// Name of a node id (ground prints as "0").
    [[nodiscard]] const std::string& node_name(NodeId id) const;

    /// Number of non-ground nodes.
    [[nodiscard]] int num_nodes() const noexcept {
        return static_cast<int>(node_names_.size());
    }

    /// Construct a device in place and take ownership.  The device name
    /// must be unique (throws NetlistError).  Returns a reference valid
    /// for the lifetime of the circuit.
    template <typename T, typename... Args>
    T& add(Args&&... args) {
        auto dev = std::make_unique<T>(std::forward<Args>(args)...);
        T& ref = *dev;
        register_device(std::move(dev));
        return ref;
    }

    /// All devices in insertion order.
    [[nodiscard]] const std::vector<std::unique_ptr<Device>>&
    devices() const noexcept {
        return devices_;
    }

    /// Number of devices.
    [[nodiscard]] std::size_t device_count() const noexcept {
        return devices_.size();
    }

    /// Find a device by name; nullptr if absent.
    [[nodiscard]] const Device* find(const std::string& name) const noexcept;

    /// Find and cast; throws NetlistError if absent or of the wrong type.
    template <typename T>
    [[nodiscard]] const T& get(const std::string& name) const {
        const auto* d = dynamic_cast<const T*>(find(name));
        if (d == nullptr) {
            throw_bad_lookup(name);
        }
        return *d;
    }

    /// Mutable lookup for stimulus editing (source stepping, sweeps).
    template <typename T>
    [[nodiscard]] T& get_mutable(const std::string& name) {
        const auto it = device_index_.find(name);
        auto* d = it == device_index_.end()
                      ? nullptr
                      : dynamic_cast<T*>(devices_[it->second].get());
        if (d == nullptr) {
            throw_bad_lookup(name);
        }
        return *d;
    }

    /// Total branch unknowns over all devices.
    [[nodiscard]] int num_branches() const noexcept;

    /// Size of the MNA unknown vector: num_nodes() + num_branches().
    [[nodiscard]] int unknown_count() const noexcept {
        return num_nodes() + num_branches();
    }

    /// First branch index of the i-th device (device order).  Devices
    /// without branches share the next device's base; only meaningful for
    /// devices with branch_count() > 0.
    [[nodiscard]] int branch_base(std::size_t device_index) const;

    /// Sanity checks: every non-ground node reachable, no dangling device
    /// pins, at least one device.  Throws NetlistError on violation.
    void validate() const;

private:
    [[noreturn]] void throw_bad_lookup(const std::string& name) const;
    void register_device(std::unique_ptr<Device> dev);

    std::vector<std::unique_ptr<Device>> devices_;
    /// Device name -> index into devices_.  The keys view each device's
    /// own name: a device lives on the heap and keeps its name, so they
    /// stay valid while the Circuit grows or moves.
    std::unordered_map<std::string_view, std::size_t> device_index_;
    std::unordered_map<std::string, NodeId> node_ids_;
    std::vector<std::string> node_names_; // index = NodeId - 1
    std::vector<int> branch_bases_;       // parallel to devices_
    int branch_total_ = 0;
};

} // namespace nanosim

#endif // NANOSIM_NETLIST_CIRCUIT_HPP
