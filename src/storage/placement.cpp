#include "storage/placement.hpp"

#include <algorithm>
#include <cmath>

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

  group_replicas_.resize(config_.group_count);
  node_groups_.resize(nodes_.size());

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
  // racks. Only a rack's best node can ever be chosen from it, so one
  // pass keeps the best node per bucket (a rack, or a node when racks
  // are too few to be disjoint) and a partial sort of the buckets
  // yields the replicas in preference order.
  std::vector<RackId> racks;
  racks.reserve(nodes_.size());
  for (const auto& n : nodes_) racks.push_back(n.rack);
  std::sort(racks.begin(), racks.end());
  racks.erase(std::unique(racks.begin(), racks.end()), racks.end());
  const auto replication = static_cast<std::size_t>(config_.replication);
  const bool rack_disjoint = racks.size() >= replication;
  std::vector<std::uint32_t> bucket_of(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    bucket_of[i] =
        rack_disjoint
            ? static_cast<std::uint32_t>(
                  std::lower_bound(racks.begin(), racks.end(),
                                   nodes_[i].rack) -
                  racks.begin())
            : static_cast<std::uint32_t>(i);

  struct Scored {
    std::uint64_t score;
    NodeId node;
  };
  const auto better = [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.node < b.node;
  };
  const std::size_t buckets = rack_disjoint ? racks.size() : nodes_.size();
  const std::size_t take = std::min(replication, buckets);

  // Groups are independent, so contiguous blocks of them run on the
  // pool, each with its own `best` buffer and writing only its own
  // groups' replica lists. A block hashes ≈2²¹ nodes (≈7 ms), so a
  // build smaller than that stays on the calling thread, where
  // starting the pool would cost about what it saves.
  constexpr std::size_t kHashesPerBlock = std::size_t{1} << 21;
  const std::size_t group_count = config_.group_count;
  const std::size_t block =
      std::max<std::size_t>(1, kHashesPerBlock / nodes_.size());
  parallel_for((group_count + block - 1) / block, [&](std::size_t b) {
    std::vector<Scored> best(buckets);
    const std::size_t end = std::min(group_count, (b + 1) * block);
    for (std::size_t g = b * block; g < end; ++g) {
      const std::uint64_t group_key = mix_hash(config_.seed, g);
      // kInvalidNode is never a real id, so every node beats the filler.
      std::fill(best.begin(), best.end(), Scored{0, kInvalidNode});
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Scored s{mix_hash(group_key, nodes_[i].id), nodes_[i].id};
        Scored& kept = best[bucket_of[i]];
        if (better(s, kept)) kept = s;
      }
      std::partial_sort(best.begin(),
                        best.begin() + static_cast<std::ptrdiff_t>(take),
                        best.end(), better);
      auto& replicas = group_replicas_[g];
      for (std::size_t k = 0; k < take; ++k)
        replicas.push_back(best[k].node);
    }
  });

  // Inverted in group order, so every node's list is ascending.
  for (GroupId g = 0; g < config_.group_count; ++g)
    for (NodeId node : group_replicas_[g])
      node_groups_[id_to_index_[node]].push_back(g);
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

const std::vector<NodeId>& PlacementMap::replicas(GroupId group) const {
  GM_CHECK(group < group_replicas_.size(),
           "group out of range: " << group);
  return group_replicas_[group];
}

std::size_t PlacementMap::index_of(NodeId node) const {
  GM_CHECK(node < id_to_index_.size() && id_to_index_[node] != SIZE_MAX,
           "unknown node in placement: " << node);
  return id_to_index_[node];
}

const std::vector<GroupId>& PlacementMap::groups_on(NodeId node) const {
  return node_groups_[index_of(node)];
}

double PlacementMap::group_bytes(GroupId group) const {
  GM_CHECK(group < group_bytes_.size(), "group out of range: " << group);
  return group_bytes_[group];
}

double PlacementMap::node_bytes(NodeId node) const {
  double total = 0.0;
  for (GroupId g : node_groups_[index_of(node)]) total += group_bytes_[g];
  return total;
}

double PlacementMap::total_physical_bytes() const {
  double total = 0.0;
  for (GroupId g = 0; g < config_.group_count; ++g)
    total += group_bytes_[g] *
             static_cast<double>(group_replicas_[g].size());
  return total;
}

}  // namespace gm::storage
