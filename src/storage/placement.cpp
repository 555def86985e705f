#include "storage/placement.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "storage/placement_scan.hpp"
#include "util/assert.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gm::storage {

void PlacementConfig::validate() const {
  GM_CHECK(group_count > 0, "placement needs at least one group");
  GM_CHECK(replication >= 1, "replication must be >= 1");
  GM_CHECK(mean_group_bytes > 0.0, "group data size must be positive");
  GM_CHECK(group_bytes_sigma >= 0.0, "negative data-size sigma");
}

PlacementMap::PlacementMap(const PlacementConfig& config,
                           std::vector<NodeDescriptor> nodes)
    : config_(config), nodes_(std::move(nodes)) {
  config_.validate();
  GM_CHECK(!nodes_.empty(), "placement over an empty cluster");

  // Per-group data volumes (lognormal around the configured mean).
  group_bytes_.resize(config_.group_count);
  Rng data_rng(config_.seed ^ 0xda7aULL);
  const double log_mu =
      std::log(config_.mean_group_bytes) -
      0.5 * config_.group_bytes_sigma * config_.group_bytes_sigma;
  for (auto& bytes : group_bytes_)
    bytes = sample_lognormal(data_rng, log_mu, config_.group_bytes_sigma);

  NodeId max_id = 0;
  for (const auto& n : nodes_) max_id = std::max(max_id, n.id);
  id_to_index_.assign(max_id + 1, SIZE_MAX);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    GM_CHECK(id_to_index_[nodes_[i].id] == SIZE_MAX,
             "duplicate node id in placement: " << nodes_[i].id);
    id_to_index_[nodes_[i].id] = i;
  }

  // A group's replicas are its `replication` best nodes under
  // (score desc, node asc), at most one per rack when there are enough
  // racks. Only a rack's best node can ever be chosen from it, so the
  // scan takes each bucket's best node (a rack, or a node when racks
  // are too few to be disjoint) and a partial sort of the buckets
  // yields the replicas in preference order. The nodes are laid out
  // bucket-major with ids ascending inside each bucket, so a bucket's
  // best node is the first maximum of its tile (placement_scan.hpp).
  std::vector<NodeDescriptor> by_rack = nodes_;
  std::sort(by_rack.begin(), by_rack.end(),
            [](const NodeDescriptor& a, const NodeDescriptor& b) {
              return a.rack != b.rack ? a.rack < b.rack : a.id < b.id;
            });
  std::vector<NodeId> ids(by_rack.size());
  std::vector<std::uint32_t> starts;
  for (std::size_t i = 0; i < by_rack.size(); ++i) {
    ids[i] = by_rack[i].id;
    if (i == 0 || by_rack[i].rack != by_rack[i - 1].rack)
      starts.push_back(static_cast<std::uint32_t>(i));
  }
  const auto replication = static_cast<std::size_t>(config_.replication);
  if (starts.size() < replication) {
    starts.resize(ids.size());
    std::iota(starts.begin(), starts.end(), 0U);
  }
  const std::size_t buckets = starts.size();
  starts.push_back(static_cast<std::uint32_t>(ids.size()));
  const std::size_t take = std::min(replication, buckets);
  const auto better = [&ids](const TileMax& a, const TileMax& b) {
    if (a.score != b.score) return a.score > b.score;
    return ids[a.index] < ids[b.index];
  };
  const ScanTilesFn scan = scan_kernel().scan;

  // Groups are independent, so contiguous blocks of them run on the
  // pool, each with its own `best` buffer and writing only its own
  // groups' slice of the replica table. A block hashes ≈2²¹ nodes
  // (≈3 ms with the x86-64-v4 kernel), so a build smaller than that
  // stays on the calling thread, where starting the pool would cost
  // about what it saves.
  constexpr std::size_t kHashesPerBlock = std::size_t{1} << 21;
  const std::size_t group_count = config_.group_count;
  replicas_per_group_ = take;
  replicas_.resize(group_count * take);
  const std::size_t block =
      std::max<std::size_t>(1, kHashesPerBlock / nodes_.size());
  parallel_for((group_count + block - 1) / block, [&](std::size_t b) {
    std::vector<TileMax> best(buckets);
    const std::size_t end = std::min(group_count, (b + 1) * block);
    for (std::size_t g = b * block; g < end; ++g) {
      scan(mix_hash(config_.seed, g), ids.data(), starts.data(), buckets,
           best.data());
      std::partial_sort(best.begin(),
                        best.begin() + static_cast<std::ptrdiff_t>(take),
                        best.end(), better);
      NodeId* out = replicas_.data() + g * take;
      for (std::size_t k = 0; k < take; ++k) out[k] = ids[best[k].index];
    }
  });

  // Inverted in group order, so every node's list is ascending.
  node_group_offsets_.assign(nodes_.size() + 1, 0);
  for (NodeId node : replicas_)
    ++node_group_offsets_[id_to_index_[node] + 1];
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    node_group_offsets_[i + 1] += node_group_offsets_[i];
  node_groups_.resize(replicas_.size());
  std::vector<std::size_t> cursor(node_group_offsets_.begin(),
                                  node_group_offsets_.end() - 1);
  for (GroupId g = 0; g < config_.group_count; ++g)
    for (NodeId node : replicas(g))
      node_groups_[cursor[id_to_index_[node]]++] = g;
}

std::uint32_t shard_of_group(GroupId group, std::uint32_t shard_count) {
  if (shard_count <= 1) return 0;
  // Fixed seed (not the placement seed): shard membership is a
  // scheduling concern and must not move when placement is reseeded.
  return static_cast<std::uint32_t>(mix_hash(0x5aa5c0de0005ULL, group) %
                                    shard_count);
}

GroupId PlacementMap::group_of(ObjectId object) const {
  return static_cast<GroupId>(mix_hash(config_.seed ^ 0xabcdef12345ULL,
                                       object) %
                              config_.group_count);
}

std::span<const NodeId> PlacementMap::replicas(GroupId group) const {
  GM_CHECK(group < config_.group_count, "group out of range: " << group);
  return {replicas_.data() + group * replicas_per_group_,
          replicas_per_group_};
}

std::size_t PlacementMap::index_of(NodeId node) const {
  GM_CHECK(node < id_to_index_.size() && id_to_index_[node] != SIZE_MAX,
           "unknown node in placement: " << node);
  return id_to_index_[node];
}

std::span<const GroupId> PlacementMap::groups_on(NodeId node) const {
  const std::size_t i = index_of(node);
  return {node_groups_.data() + node_group_offsets_[i],
          node_group_offsets_[i + 1] - node_group_offsets_[i]};
}

double PlacementMap::group_bytes(GroupId group) const {
  GM_CHECK(group < group_bytes_.size(), "group out of range: " << group);
  return group_bytes_[group];
}

double PlacementMap::node_bytes(NodeId node) const {
  double total = 0.0;
  for (GroupId g : groups_on(node)) total += group_bytes_[g];
  return total;
}

double PlacementMap::total_physical_bytes() const {
  double total = 0.0;
  for (GroupId g = 0; g < config_.group_count; ++g)
    total += group_bytes_[g] * static_cast<double>(replicas_per_group_);
  return total;
}

}  // namespace gm::storage
