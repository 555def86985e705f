#pragma once
// Executes per-slot node-activation targets against the cluster while
// enforcing the invariants policies may not break: placement coverage
// (never below the feasible minimum), hysteresis (a node keeps its
// power state for `min_dwell_slots` before it may switch off again),
// and transition-energy accounting.
//
// Coverage is kept incrementally. The coverage floor is the answer of
// Cluster::choose_active_set(0, &failed): a greedy that walks node ids
// from highest to lowest and removes a node when every group on it
// keeps another live replica. Its decision for node j depends only on
// j's failure, on the live-replica counts of j's groups and on the
// decisions for higher-id replicas in those groups, so a failure or a
// recovery re-decides only the nodes it reaches. A target t is that
// run's prefix: the greedy stops after the first healthy - t removals.
// Per-group active-replica counts make the coverage check O(1).

#include <cstdint>
#include <queue>
#include <vector>

#include "storage/cluster.hpp"
#include "util/time_types.hpp"
#include "util/units.hpp"

namespace gm::core {

class PowerManager {
 public:
  /// Runs the coverage greedy once, for the failure-free floor.
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
  int active_count() const { return active_count_; }
  /// Groups with a live (non-failed) replica but no active one.
  /// apply_target always leaves this at 0.
  std::uint32_t dark_coverable_groups() const { return dark_coverable_; }
  /// Coverage floor under the current failures: the greedy minimum of
  /// active nodes that keeps every coverable group covered. Failures
  /// only queue the nodes they reach; the first read after a change
  /// re-decides those.
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
  /// The only writer of active_: keeps the count and the per-group
  /// active-replica counts in step.
  void set_active(storage::NodeId node, bool on);
  /// Queues `node` and every replica of its groups for re-decision
  /// after its failure state changed.
  void queue_failure_change(storage::NodeId node);
  void queue(storage::NodeId node) const;
  /// The greedy's decision for `node`, given the settled decisions for
  /// every higher id.
  bool greedy_removes(storage::NodeId node) const;

  storage::Cluster& cluster_;
  int min_dwell_;
  storage::ActiveSet active_;
  int active_count_;
  std::vector<SlotIndex> last_change_;
  std::vector<bool> failed_;
  int failed_count_ = 0;
  /// Per group: replicas on non-failed nodes, and on active nodes.
  std::vector<int> live_;
  std::vector<int> group_active_;
  std::uint32_t dark_coverable_ = 0;
  // The target-0 greedy's removals, settled lazily by min_feasible():
  // queued ids are re-decided highest first.
  mutable std::vector<bool> removed_;
  mutable int removed_count_ = 0;
  mutable std::priority_queue<storage::NodeId> dirty_;
  mutable std::vector<bool> queued_;
  Joules forced_energy_j_ = 0.0;
};

}  // namespace gm::core
