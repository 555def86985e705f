#include "core/power_manager.hpp"

#include <algorithm>

#include "obs/recorder.hpp"
#include "util/assert.hpp"

namespace gm::core {

PowerManager::PowerManager(storage::Cluster& cluster, int min_dwell_slots)
    : cluster_(cluster),
      min_dwell_(min_dwell_slots),
      min_feasible_(cluster.min_feasible_count()),
      active_(cluster.node_count(), true),
      last_change_(cluster.node_count(), -1'000'000),
      failed_(cluster.node_count(), false) {
  GM_CHECK(min_dwell_slots >= 0, "negative dwell");
}

int PowerManager::min_feasible() const {
  if (min_feasible_stale_) {
    min_feasible_ = storage::Cluster::active_count(
        cluster_.choose_active_set(0, &failed_));
    min_feasible_stale_ = false;
  }
  return min_feasible_;
}

void PowerManager::fail_node(storage::NodeId node, SimTime now) {
  GM_CHECK(node < failed_.size(), "failed node id out of range");
  if (failed_[node]) return;
  failed_[node] = true;
  storage::StorageNode& n = cluster_.node(node);
  if (n.state() != storage::NodeState::kOff) {
    // A crash is not an orderly shutdown: the node drops instantly and
    // pays no transition energy.
    if (n.state() == storage::NodeState::kOn ||
        n.state() == storage::NodeState::kBooting) {
      n.complete_power_off(n.begin_power_off(now));
    }
  }
  active_[node] = false;
  min_feasible_stale_ = true;
}

void PowerManager::recover_node(storage::NodeId node, SimTime,
                                SlotIndex slot) {
  GM_CHECK(node < failed_.size(), "recovered node id out of range");
  if (!failed_[node]) return;
  failed_[node] = false;
  last_change_[node] = slot;  // repaired node is dwell-protected off
  min_feasible_stale_ = true;
}

PowerManager::Transition PowerManager::apply_target(SlotIndex slot,
                                                    int target,
                                                    SimTime now) {
  const int healthy = static_cast<int>(cluster_.node_count()) -
                      static_cast<int>(std::count(failed_.begin(),
                                                  failed_.end(), true));
  target = std::clamp(target, min_feasible(), healthy);
  const storage::ActiveSet desired =
      cluster_.choose_active_set(target, &failed_);

  Transition tr;
  for (storage::NodeId n = 0; n < cluster_.node_count(); ++n) {
    if (desired[n] == active_[n]) continue;
    storage::StorageNode& node = cluster_.node(n);
    if (desired[n]) {
      // Power on: always permitted (availability beats hysteresis).
      const SimTime done = node.begin_power_on(now);
      node.complete_power_on(std::max(done, now));
      active_[n] = true;
      last_change_[n] = slot;
      ++tr.powered_on;
      tr.energy_j += node.config().boot_energy_j();
    } else {
      // Power off: respect the dwell.
      if (slot - last_change_[n] < min_dwell_) continue;
      const SimTime done = node.begin_power_off(now);
      node.complete_power_off(std::max(done, now));
      active_[n] = false;
      last_change_[n] = slot;
      ++tr.powered_off;
      tr.energy_j += node.config().shutdown_energy_j();
      tr.deactivated.push_back(n);
    }
  }
  GM_ASSERT_MSG(cluster_.covered_groups(active_) ==
                    cluster_.coverable_groups(failed_),
                "power manager left coverage infeasible");
  return tr;
}

SimTime PowerManager::force_wake_for_group(storage::GroupId group,
                                           SimTime now, SlotIndex slot) {
  GM_OBS_SCOPE("power.force_wake");
  const auto& replicas = cluster_.placement().replicas(group);
  GM_CHECK(!replicas.empty(), "group without replicas: " << group);
  // Prefer an already-waking replica, else the first (primary).
  for (storage::NodeId n : replicas)
    if (active_[n])
      return now;  // race resolved: someone already woke it
  for (storage::NodeId n : replicas) {
    if (failed_[n]) continue;
    storage::StorageNode& node = cluster_.node(n);
    const SimTime done = node.begin_power_on(now);
    node.complete_power_on(std::max(done, now));
    active_[n] = true;
    last_change_[n] = slot;
    forced_energy_j_ += node.config().boot_energy_j();
    return std::max(done, now);
  }
  return kSimTimeMax;  // every replica failed: group is dark
}

storage::NodeId PowerManager::wake_sleeping_replica(storage::GroupId group,
                                                    SimTime now,
                                                    SlotIndex slot) {
  for (storage::NodeId n : cluster_.placement().replicas(group)) {
    if (active_[n] || failed_[n]) continue;
    storage::StorageNode& node = cluster_.node(n);
    const SimTime done = node.begin_power_on(now);
    node.complete_power_on(std::max(done, now));
    active_[n] = true;
    last_change_[n] = slot;
    forced_energy_j_ += node.config().boot_energy_j();
    return n;
  }
  return storage::kInvalidNode;
}

Joules PowerManager::drain_forced_energy_j() {
  const Joules e = forced_energy_j_;
  forced_energy_j_ = 0.0;
  return e;
}

}  // namespace gm::core
