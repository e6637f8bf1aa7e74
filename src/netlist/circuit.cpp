#include "netlist/circuit.hpp"

#include "util/error.hpp"

namespace nanosim {

namespace {

const std::string k_ground_name = "0";

bool is_ground_name(const std::string& name) noexcept {
    return name == "0" || name == "gnd" || name == "GND" || name == "Gnd";
}

} // namespace

NodeId Circuit::node(const std::string& name) {
    if (is_ground_name(name)) {
        return k_ground;
    }
    const auto it = node_ids_.find(name);
    if (it != node_ids_.end()) {
        return it->second;
    }
    node_names_.push_back(name);
    const NodeId id = static_cast<NodeId>(node_names_.size());
    node_ids_.emplace(name, id);
    return id;
}

NodeId Circuit::find_node(const std::string& name) const {
    if (is_ground_name(name)) {
        return k_ground;
    }
    const auto it = node_ids_.find(name);
    if (it == node_ids_.end()) {
        throw NetlistError("unknown node '" + name + "'");
    }
    return it->second;
}

const std::string& Circuit::node_name(NodeId id) const {
    if (id == k_ground) {
        return k_ground_name;
    }
    const auto idx = static_cast<std::size_t>(id - 1);
    if (idx >= node_names_.size()) {
        throw NetlistError("node id out of range");
    }
    return node_names_[idx];
}

void Circuit::register_device(std::unique_ptr<Device> dev) {
    if (device_index_.contains(dev->name())) {
        throw NetlistError("duplicate device name '" + dev->name() + "'");
    }
    for (const NodeId n : dev->terminals()) {
        if (n < 0 || n > num_nodes()) {
            throw NetlistError("device '" + dev->name() +
                               "' references an unknown node id");
        }
    }
    const std::string& name = dev->name();
    branch_bases_.push_back(branch_total_);
    branch_total_ += dev->branch_count();
    devices_.push_back(std::move(dev));
    device_index_.emplace(name, devices_.size() - 1);
}

const Device* Circuit::find(const std::string& name) const noexcept {
    const auto it = device_index_.find(name);
    return it == device_index_.end() ? nullptr : devices_[it->second].get();
}

void Circuit::throw_bad_lookup(const std::string& name) const {
    throw NetlistError("device '" + name +
                       "' not found (or has unexpected type)");
}

int Circuit::num_branches() const noexcept { return branch_total_; }

int Circuit::branch_base(std::size_t device_index) const {
    if (device_index >= branch_bases_.size()) {
        throw NetlistError("branch_base: device index out of range");
    }
    return branch_bases_[device_index];
}

void Circuit::validate() const {
    if (devices_.empty()) {
        throw NetlistError("circuit has no devices");
    }
    // Every non-ground node must be touched by at least one device, and
    // at least one device must reference ground (otherwise the MNA matrix
    // is singular by construction).
    std::vector<bool> touched(static_cast<std::size_t>(num_nodes()) + 1,
                              false);
    for (const auto& dev : devices_) {
        for (const NodeId n : dev->terminals()) {
            touched[static_cast<std::size_t>(n)] = true;
        }
    }
    if (!touched[0]) {
        throw NetlistError("no device is connected to ground");
    }
    for (NodeId n = 1; n <= num_nodes(); ++n) {
        if (!touched[static_cast<std::size_t>(n)]) {
            throw NetlistError("node '" + node_name(n) +
                               "' is not connected to any device");
        }
    }
}

} // namespace nanosim
