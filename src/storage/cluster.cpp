#include "storage/cluster.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace gm::storage {

void ClusterConfig::validate() const {
  GM_CHECK(racks >= 1 && nodes_per_rack >= 1,
           "cluster needs at least one rack and node");
  // total_nodes() is an int product; reject before it can overflow.
  GM_CHECK(racks <= std::numeric_limits<int>::max() / nodes_per_rack,
           "cluster of " << racks << " racks x " << nodes_per_rack
                         << " nodes exceeds "
                         << std::numeric_limits<int>::max() << " nodes");
  node.validate();
  placement.validate();
}

namespace {

// Validates first: the placement member is built from these
// descriptors before the constructor body runs.
std::vector<NodeDescriptor> make_descriptors(const ClusterConfig& config) {
  config.validate();
  std::vector<NodeDescriptor> descriptors;
  descriptors.reserve(config.total_nodes());
  NodeId id = 0;
  for (int r = 0; r < config.racks; ++r)
    for (int n = 0; n < config.nodes_per_rack; ++n)
      descriptors.push_back({id++, static_cast<RackId>(r)});
  return descriptors;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      placement_(config.placement, make_descriptors(config)) {
  nodes_.reserve(config_.total_nodes());
  for (const auto& d : placement_.nodes())
    nodes_.emplace_back(d.id, d.rack, config_.node);
  GM_CHECK(max_storage_utilization() <= 1.0,
           "cluster overfull: a node holds "
               << max_storage_utilization() * 100.0
               << "% of its disk capacity — reduce group sizes or add "
                  "nodes/disks");
}

StorageNode& Cluster::node(NodeId id) {
  GM_CHECK(id < nodes_.size(), "node id out of range: " << id);
  return nodes_[id];
}

const StorageNode& Cluster::node(NodeId id) const {
  GM_CHECK(id < nodes_.size(), "node id out of range: " << id);
  return nodes_[id];
}

std::uint32_t Cluster::covered_groups(const ActiveSet& active) const {
  GM_CHECK(active.size() == nodes_.size(),
           "active set size mismatch: " << active.size());
  std::uint32_t covered = 0;
  for (GroupId g = 0; g < placement_.group_count(); ++g) {
    for (NodeId n : placement_.replicas(g)) {
      if (active[n]) {
        ++covered;
        break;
      }
    }
  }
  return covered;
}

ActiveSet Cluster::choose_active_set(
    int target, const std::vector<bool>* excluded) const {
  GM_CHECK(target >= 0, "negative activation target");
  GM_CHECK(!excluded || excluded->size() == nodes_.size(),
           "exclusion mask size mismatch");
  ActiveSet active(nodes_.size(), true);
  int count = static_cast<int>(nodes_.size());

  // Per-group active replica counts let each deactivation check run in
  // O(groups on node) instead of recomputing global coverage.
  std::vector<int> group_active(placement_.group_count(), 0);
  for (GroupId g = 0; g < placement_.group_count(); ++g)
    group_active[g] = static_cast<int>(placement_.replicas(g).size());

  // Excluded nodes go first, unconditionally.
  if (excluded) {
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      if (!(*excluded)[id] || !active[id]) continue;
      active[id] = false;
      --count;
      for (GroupId g : placement_.groups_on(id)) --group_active[g];
    }
  }

  for (std::size_t i = nodes_.size(); i-- > 0 && count > target;) {
    const NodeId id = nodes_[i].id();
    if (!active[id]) continue;
    const auto groups = placement_.groups_on(id);
    const bool removable =
        std::all_of(groups.begin(), groups.end(),
                    [&](GroupId g) { return group_active[g] >= 2; });
    if (!removable) continue;
    active[id] = false;
    --count;
    for (GroupId g : groups) --group_active[g];
  }
  const std::uint32_t coverable =
      excluded ? coverable_groups(*excluded) : placement_.group_count();
  GM_ASSERT_MSG(covered_groups(active) == coverable,
                "greedy deactivation broke coverage");
  return active;
}

std::uint32_t Cluster::coverable_groups(
    const std::vector<bool>& excluded) const {
  GM_CHECK(excluded.size() == nodes_.size(),
           "exclusion mask size mismatch");
  std::uint32_t coverable = 0;
  for (GroupId g = 0; g < placement_.group_count(); ++g)
    for (NodeId n : placement_.replicas(g))
      if (!excluded[n]) {
        ++coverable;
        break;
      }
  return coverable;
}

int Cluster::min_feasible_count() const {
  return active_count(choose_active_set(0));
}

double Cluster::node_storage_utilization(NodeId id) const {
  const StorageNode& n = node(id);
  const double capacity =
      n.config().disk.capacity_bytes * n.disks().size();
  return capacity > 0.0 ? placement_.node_bytes(id) / capacity : 0.0;
}

double Cluster::max_storage_utilization() const {
  double worst = 0.0;
  for (NodeId id = 0; id < nodes_.size(); ++id)
    worst = std::max(worst, node_storage_utilization(id));
  return worst;
}

int Cluster::active_count(const ActiveSet& active) {
  return static_cast<int>(std::count(active.begin(), active.end(), true));
}

}  // namespace gm::storage
