#pragma once
// Replica placement. Objects hash into a fixed number of placement
// groups; each group maps to `replication` nodes in distinct racks via
// rendezvous (highest-random-weight) hashing. Rendezvous hashing gives
// deterministic, uniformly balanced placement with minimal movement
// when the node set changes — the properties the coverage logic and
// the rebalance workload rely on.

#include <cstdint>
#include <span>
#include <vector>

#include "storage/types.hpp"

namespace gm::storage {

struct PlacementConfig {
  std::uint32_t group_count = 512;
  int replication = 2;
  std::uint64_t seed = 7;
  /// Data volume per placement group: lognormal with this mean (bytes)
  /// and log-space sigma. Drives scrub/repair work and capacity checks.
  double mean_group_bytes = 200e9;
  double group_bytes_sigma = 0.6;

  void validate() const;
};

/// Immutable description of the node universe for placement purposes.
struct NodeDescriptor {
  NodeId id;
  RackId rack;
};

/// Deterministic placement-group → scheduling-shard map used by the
/// sharded planner (core/shard.hpp). Pure hash of the group id: stable
/// across runs, processes, and node-set changes, so a group's shard
/// never churns — the property the CI shard-determinism gate and the
/// sharded-vs-flat equivalence tests rely on. `shard_count <= 1` maps
/// everything to shard 0.
std::uint32_t shard_of_group(GroupId group, std::uint32_t shard_count);

class PlacementMap {
 public:
  PlacementMap(const PlacementConfig& config,
               std::vector<NodeDescriptor> nodes);

  const PlacementConfig& config() const { return config_; }
  std::uint32_t group_count() const { return config_.group_count; }
  GroupId group_of(ObjectId object) const;

  /// Replica nodes of a group, in descending placement preference.
  /// Every group has the same count, min(replication, node count).
  std::span<const NodeId> replicas(GroupId group) const;

  /// All groups having a replica on `node`, ascending.
  std::span<const GroupId> groups_on(NodeId node) const;

  /// Data volume of a group (one replica's worth).
  double group_bytes(GroupId group) const;
  /// Bytes stored on a node (sum over its replicas).
  double node_bytes(NodeId node) const;
  /// Total logical data × replication (physical bytes in the cluster).
  double total_physical_bytes() const;

  std::size_t node_count() const { return nodes_.size(); }
  const std::vector<NodeDescriptor>& nodes() const { return nodes_; }

 private:
  std::size_t index_of(NodeId node) const;

  PlacementConfig config_;
  std::vector<NodeDescriptor> nodes_;
  /// Replicas per group; every group's list has this length.
  std::size_t replicas_per_group_ = 0;
  /// Group-major: group g's replicas are
  /// [g * replicas_per_group_, (g + 1) * replicas_per_group_).
  std::vector<NodeId> replicas_;
  /// node → groups in CSR form: the groups on the node at index i are
  /// node_groups_[node_group_offsets_[i], node_group_offsets_[i + 1]).
  std::vector<std::size_t> node_group_offsets_;
  std::vector<GroupId> node_groups_;
  std::vector<double> group_bytes_;
  std::vector<std::size_t> id_to_index_;  ///< dense NodeId → index
};

}  // namespace gm::storage
