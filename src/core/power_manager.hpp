#pragma once
// Executes per-slot node-activation targets against the cluster while
// enforcing the invariants policies may not break: placement coverage
// (never below the feasible minimum), hysteresis (a node keeps its
// power state for `min_dwell_slots` before it may switch off again),
// and transition-energy accounting.

#include <vector>

#include "storage/cluster.hpp"
#include "util/time_types.hpp"
#include "util/units.hpp"

namespace gm::core {

class PowerManager {
 public:
  PowerManager(storage::Cluster& cluster, int min_dwell_slots);

  struct Transition {
    int powered_on = 0;
    int powered_off = 0;
    Joules energy_j = 0.0;
    /// Nodes that went down (their running tasks must migrate).
    std::vector<storage::NodeId> deactivated;
  };

  /// Moves the cluster toward `target` active nodes at the boundary of
  /// `slot`. Deactivation below coverage feasibility is refused, as is
  /// deactivating a node that changed state less than the dwell ago.
  Transition apply_target(SlotIndex slot, int target, SimTime now);

  /// Forces one replica node of `group` on mid-slot (router fallback).
  /// Returns the time the node is available and accumulates the
  /// transition energy into the next apply_target's accounting. The
  /// awakened node is dwell-protected from `slot` on.
  SimTime force_wake_for_group(storage::GroupId group, SimTime now,
                               SlotIndex slot);

  /// Wakes the first *sleeping* replica of `group` even when other
  /// replicas are already active (urgent-task capacity relief).
  /// Returns the woken node, or kInvalidNode if none was sleeping.
  storage::NodeId wake_sleeping_replica(storage::GroupId group,
                                        SimTime now, SlotIndex slot);

  const storage::ActiveSet& active() const { return active_; }
  int active_count() const {
    return storage::Cluster::active_count(active_);
  }
  /// Coverage floor under the current failures: the greedy minimum of
  /// active nodes that keeps every coverable group covered. Failures
  /// only mark it stale; the first read after a change recomputes it.
  int min_feasible() const;
  Joules drain_forced_energy_j();

  // --- failure injection --------------------------------------------
  /// Marks a node as failed: it is powered off immediately and cannot
  /// be activated (by targets, forced wakes or urgent relief) until
  /// recover_node. Coverage guarantees shrink to what the surviving
  /// replicas can provide.
  void fail_node(storage::NodeId node, SimTime now);
  /// Brings a failed node back (off but activatable).
  void recover_node(storage::NodeId node, SimTime now, SlotIndex slot);
  bool is_failed(storage::NodeId node) const { return failed_[node]; }
  const std::vector<bool>& failed() const { return failed_; }

 private:
  storage::Cluster& cluster_;
  int min_dwell_;
  mutable int min_feasible_;
  mutable bool min_feasible_stale_ = false;
  storage::ActiveSet active_;
  std::vector<SlotIndex> last_change_;
  std::vector<bool> failed_;
  Joules forced_energy_j_ = 0.0;
};

}  // namespace gm::core
