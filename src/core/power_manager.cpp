#include "core/power_manager.hpp"

#include <algorithm>

#include "obs/recorder.hpp"
#include "util/assert.hpp"

namespace gm::core {

PowerManager::PowerManager(storage::Cluster& cluster, int min_dwell_slots)
    : cluster_(cluster),
      min_dwell_(min_dwell_slots),
      active_(cluster.node_count(), true),
      active_count_(static_cast<int>(cluster.node_count())),
      last_change_(cluster.node_count(), -1'000'000),
      failed_(cluster.node_count(), false),
      removed_(cluster.choose_active_set(0)),
      queued_(cluster.node_count(), false) {
  GM_CHECK(min_dwell_slots >= 0, "negative dwell");
  removed_.flip();
  removed_count_ = storage::Cluster::active_count(removed_);
  const storage::PlacementMap& placement = cluster_.placement();
  live_.resize(placement.group_count());
  for (storage::GroupId g = 0; g < placement.group_count(); ++g)
    live_[g] = static_cast<int>(placement.replicas(g).size());
  group_active_ = live_;
}

bool PowerManager::greedy_removes(storage::NodeId node) const {
  if (failed_[node]) return false;
  const storage::PlacementMap& placement = cluster_.placement();
  for (storage::GroupId g : placement.groups_on(node)) {
    int left = live_[g];
    for (storage::NodeId k : placement.replicas(g))
      if (k > node && removed_[k]) --left;
    if (left < 2) return false;
  }
  return true;
}

void PowerManager::queue(storage::NodeId node) const {
  if (queued_[node]) return;
  queued_[node] = true;
  dirty_.push(node);
}

void PowerManager::queue_failure_change(storage::NodeId node) {
  const storage::PlacementMap& placement = cluster_.placement();
  queue(node);
  for (storage::GroupId g : placement.groups_on(node))
    for (storage::NodeId k : placement.replicas(g)) queue(k);
}

int PowerManager::min_feasible() const {
  // Highest id first, so every decision a node depends on is final
  // when it is re-decided; a flip only reaches lower ids.
  const storage::PlacementMap& placement = cluster_.placement();
  while (!dirty_.empty()) {
    const storage::NodeId node = dirty_.top();
    dirty_.pop();
    queued_[node] = false;
    const bool removes = greedy_removes(node);
    if (removes == removed_[node]) continue;
    removed_[node] = removes;
    removed_count_ += removes ? 1 : -1;
    for (storage::GroupId g : placement.groups_on(node))
      for (storage::NodeId k : placement.replicas(g))
        if (k < node) queue(k);
  }
  return static_cast<int>(cluster_.node_count()) - failed_count_ -
         removed_count_;
}

void PowerManager::set_active(storage::NodeId node, bool on) {
  if (active_[node] == on) return;
  active_[node] = on;
  active_count_ += on ? 1 : -1;
  for (storage::GroupId g : cluster_.placement().groups_on(node)) {
    if (on) {
      if (group_active_[g]++ == 0 && live_[g] > 0) --dark_coverable_;
    } else {
      if (--group_active_[g] == 0 && live_[g] > 0) ++dark_coverable_;
    }
  }
}

void PowerManager::fail_node(storage::NodeId node, SimTime now) {
  GM_CHECK(node < failed_.size(), "failed node id out of range");
  if (failed_[node]) return;
  failed_[node] = true;
  ++failed_count_;
  storage::StorageNode& n = cluster_.node(node);
  if (n.state() != storage::NodeState::kOff) {
    // A crash is not an orderly shutdown: the node drops instantly and
    // pays no transition energy.
    if (n.state() == storage::NodeState::kOn ||
        n.state() == storage::NodeState::kBooting) {
      n.complete_power_off(n.begin_power_off(now));
    }
  }
  set_active(node, false);
  for (storage::GroupId g : cluster_.placement().groups_on(node))
    if (--live_[g] == 0 && group_active_[g] == 0) --dark_coverable_;
  queue_failure_change(node);
}

void PowerManager::recover_node(storage::NodeId node, SimTime,
                                SlotIndex slot) {
  GM_CHECK(node < failed_.size(), "recovered node id out of range");
  if (!failed_[node]) return;
  failed_[node] = false;
  --failed_count_;
  last_change_[node] = slot;  // repaired node is dwell-protected off
  for (storage::GroupId g : cluster_.placement().groups_on(node))
    if (live_[g]++ == 0 && group_active_[g] == 0) ++dark_coverable_;
  queue_failure_change(node);
}

PowerManager::Transition PowerManager::apply_target(SlotIndex slot,
                                                    int target,
                                                    SimTime now) {
  const auto nodes = static_cast<storage::NodeId>(cluster_.node_count());
  const int healthy = static_cast<int>(nodes) - failed_count_;
  target = std::clamp(target, min_feasible(), healthy);
  // choose_active_set(target, &failed_) makes the first healthy - target
  // removals of the floor run, highest id first: nodes from `cut` up
  // keep their removal, every other healthy node is desired on.
  storage::NodeId cut = nodes;
  for (int left = healthy - target; left > 0;)
    if (removed_[--cut]) --left;

  Transition tr;
  for (storage::NodeId n = 0; n < nodes; ++n) {
    const bool desired = !failed_[n] && !(n >= cut && removed_[n]);
    if (desired == active_[n]) continue;
    storage::StorageNode& node = cluster_.node(n);
    if (desired) {
      // Power on: always permitted (availability beats hysteresis).
      const SimTime done = node.begin_power_on(now);
      node.complete_power_on(std::max(done, now));
      set_active(n, true);
      last_change_[n] = slot;
      ++tr.powered_on;
      tr.energy_j += node.config().boot_energy_j();
    } else {
      // Power off: respect the dwell.
      if (slot - last_change_[n] < min_dwell_) continue;
      const SimTime done = node.begin_power_off(now);
      node.complete_power_off(std::max(done, now));
      set_active(n, false);
      last_change_[n] = slot;
      ++tr.powered_off;
      tr.energy_j += node.config().shutdown_energy_j();
      tr.deactivated.push_back(n);
    }
  }
  GM_ASSERT_MSG(dark_coverable_ == 0,
                "power manager left coverage infeasible");
  return tr;
}

SimTime PowerManager::force_wake_for_group(storage::GroupId group,
                                           SimTime now, SlotIndex slot) {
  GM_OBS_SCOPE("power.force_wake");
  const auto replicas = cluster_.placement().replicas(group);
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
    set_active(n, true);
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
    set_active(n, true);
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
