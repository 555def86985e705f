// Placement map tests: determinism, replication, rack-disjointness,
// balance, stability under node-set changes, and agreement with the
// sort-and-scan reference selection.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_set>

#include "storage/placement.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gm::storage {
namespace {

std::vector<NodeDescriptor> grid_nodes(int racks, int per_rack) {
  std::vector<NodeDescriptor> nodes;
  NodeId id = 0;
  for (int r = 0; r < racks; ++r)
    for (int n = 0; n < per_rack; ++n)
      nodes.push_back({id++, static_cast<RackId>(r)});
  return nodes;
}

PlacementConfig config_with(int replication, std::uint32_t groups) {
  PlacementConfig c;
  c.replication = replication;
  c.group_count = groups;
  return c;
}

TEST(Placement, EveryGroupHasExactlyRReplicas) {
  PlacementMap map(config_with(3, 256), grid_nodes(4, 8));
  for (GroupId g = 0; g < 256; ++g) {
    const auto& reps = map.replicas(g);
    EXPECT_EQ(reps.size(), 3u) << "group " << g;
    // Replicas are distinct nodes.
    std::set<NodeId> unique(reps.begin(), reps.end());
    EXPECT_EQ(unique.size(), reps.size());
  }
}

TEST(Placement, ReplicasInDistinctRacks) {
  const auto nodes = grid_nodes(4, 8);
  PlacementMap map(config_with(3, 256), nodes);
  for (GroupId g = 0; g < 256; ++g) {
    std::set<RackId> racks;
    for (NodeId n : map.replicas(g)) racks.insert(nodes[n].rack);
    EXPECT_EQ(racks.size(), 3u) << "group " << g;
  }
}

TEST(Placement, RelaxesRackConstraintWhenImpossible) {
  // 2 racks but replication 3: still places 3 distinct nodes.
  PlacementMap map(config_with(3, 64), grid_nodes(2, 4));
  for (GroupId g = 0; g < 64; ++g) {
    const auto& reps = map.replicas(g);
    EXPECT_EQ(reps.size(), 3u);
    std::set<NodeId> unique(reps.begin(), reps.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(Placement, DeterministicPerSeed) {
  PlacementConfig c = config_with(2, 128);
  PlacementMap a(c, grid_nodes(4, 4)), b(c, grid_nodes(4, 4));
  for (GroupId g = 0; g < 128; ++g)
    EXPECT_EQ(a.replicas(g), b.replicas(g));

  c.seed = 99;
  PlacementMap other(c, grid_nodes(4, 4));
  int moved = 0;
  for (GroupId g = 0; g < 128; ++g)
    if (a.replicas(g) != other.replicas(g)) ++moved;
  EXPECT_GT(moved, 64);  // different seed reshuffles most groups
}

TEST(Placement, LoadIsBalanced) {
  const auto nodes = grid_nodes(4, 8);
  PlacementMap map(config_with(3, 4096), nodes);
  std::vector<int> load(nodes.size(), 0);
  for (GroupId g = 0; g < 4096; ++g)
    for (NodeId n : map.replicas(g)) ++load[n];
  const double expected = 4096.0 * 3 / nodes.size();  // 384
  const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
  EXPECT_GT(*lo, expected * 0.7);
  EXPECT_LT(*hi, expected * 1.3);
}

TEST(Placement, GroupsOnInvertsReplicas) {
  const auto nodes = grid_nodes(3, 5);
  PlacementMap map(config_with(2, 200), nodes);
  for (const auto& nd : nodes) {
    for (GroupId g : map.groups_on(nd.id)) {
      const auto& reps = map.replicas(g);
      EXPECT_NE(std::find(reps.begin(), reps.end(), nd.id), reps.end());
    }
  }
  // Total group-slots match.
  std::size_t total = 0;
  for (const auto& nd : nodes) total += map.groups_on(nd.id).size();
  EXPECT_EQ(total, 200u * 2u);
}

TEST(Placement, ObjectToGroupStableAndUniform) {
  PlacementMap map(config_with(2, 64), grid_nodes(2, 4));
  std::vector<int> hits(64, 0);
  for (ObjectId o = 0; o < 64000; ++o) {
    const GroupId g = map.group_of(o);
    EXPECT_EQ(g, map.group_of(o));
    ASSERT_LT(g, 64u);
    ++hits[g];
  }
  const auto [lo, hi] = std::minmax_element(hits.begin(), hits.end());
  EXPECT_GT(*lo, 700);
  EXPECT_LT(*hi, 1300);
}

TEST(Placement, MinimalMovementOnNodeRemoval) {
  // Rendezvous property: dropping one node only moves the groups that
  // had a replica there.
  auto nodes = grid_nodes(4, 8);
  PlacementConfig c = config_with(2, 512);
  PlacementMap full(c, nodes);

  auto fewer = nodes;
  const NodeId removed = 17;
  fewer.erase(std::remove_if(fewer.begin(), fewer.end(),
                             [&](const NodeDescriptor& d) {
                               return d.id == removed;
                             }),
              fewer.end());
  PlacementMap reduced(c, fewer);

  for (GroupId g = 0; g < 512; ++g) {
    const auto& before = full.replicas(g);
    const auto& after = reduced.replicas(g);
    const bool touched =
        std::find(before.begin(), before.end(), removed) != before.end();
    if (!touched) {
      EXPECT_EQ(before, after) << "untouched group " << g << " moved";
    } else {
      // The surviving replica keeps its slot.
      for (NodeId n : before)
        if (n != removed)
          EXPECT_NE(std::find(after.begin(), after.end(), n),
                    after.end());
    }
  }
}

// Reference selection: score every node, sort by (score desc, node
// asc), take nodes in that order skipping racks already used while
// rack-disjoint placement is possible, then fill any shortfall in the
// same order. PlacementMap must reproduce it element for element.
std::vector<NodeId> reference_replicas(
    const PlacementConfig& c, const std::vector<NodeDescriptor>& nodes,
    GroupId g) {
  std::set<RackId> racks;
  for (const auto& n : nodes) racks.insert(n.rack);
  const auto r = static_cast<std::size_t>(c.replication);
  const bool rack_disjoint = racks.size() >= r;

  struct Scored {
    std::uint64_t score;
    NodeId node;
    RackId rack;
  };
  std::vector<Scored> scored;
  for (const auto& n : nodes)
    scored.push_back({mix_hash(mix_hash(c.seed, g), n.id), n.id, n.rack});
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.node < b.node;
            });

  std::vector<NodeId> replicas;
  std::vector<RackId> used_racks;
  for (const auto& s : scored) {
    if (replicas.size() == r) break;
    if (rack_disjoint && std::find(used_racks.begin(), used_racks.end(),
                                   s.rack) != used_racks.end())
      continue;
    replicas.push_back(s.node);
    used_racks.push_back(s.rack);
  }
  for (const auto& s : scored) {
    if (replicas.size() == r) break;
    if (std::find(replicas.begin(), replicas.end(), s.node) ==
        replicas.end())
      replicas.push_back(s.node);
  }
  return replicas;
}

void expect_matches_reference(const PlacementConfig& c,
                              const std::vector<NodeDescriptor>& nodes) {
  PlacementMap map(c, nodes);
  for (GroupId g = 0; g < c.group_count; ++g)
    ASSERT_EQ(map.replicas(g), reference_replicas(c, nodes, g))
        << "group " << g;
}

TEST(Placement, MatchesReferenceOnRackDisjointGrids) {
  expect_matches_reference(config_with(3, 256), grid_nodes(4, 8));
  // The 1,280-node fleet tier (BM_PlacementBuild/1), then twice its
  // groups, which the build splits into two blocks for the pool.
  expect_matches_reference(config_with(3, 1024), grid_nodes(16, 80));
  expect_matches_reference(config_with(3, 2048), grid_nodes(16, 80));
  PlacementConfig reseeded = config_with(2, 256);
  reseeded.seed = 99;
  expect_matches_reference(reseeded, grid_nodes(3, 5));
}

TEST(Placement, MatchesReferenceWithFewerRacksThanReplicas) {
  expect_matches_reference(config_with(3, 256), grid_nodes(2, 4));
  expect_matches_reference(config_with(2, 256), grid_nodes(1, 5));
}

TEST(Placement, MatchesReferenceWithMoreReplicasThanNodes) {
  // Every group holds every node, in preference order.
  expect_matches_reference(config_with(5, 64), grid_nodes(1, 3));
  expect_matches_reference(config_with(4, 64), grid_nodes(3, 1));
  PlacementMap map(config_with(5, 8), grid_nodes(1, 3));
  EXPECT_EQ(map.replicas(0).size(), 3u);
}

TEST(Placement, MatchesReferenceOnShuffledSparseDescriptors) {
  // Sparse node ids, non-contiguous rack ids of uneven size, and the
  // descriptors in shuffled order.
  const std::vector<RackId> rack_ids = {17, 3, 1000, 42, 5, 99};
  std::vector<NodeDescriptor> nodes;
  NodeId id = 11;
  for (std::size_t r = 0; r < rack_ids.size(); ++r)
    for (std::size_t n = 0; n <= r + 1; ++n, id += 7)
      nodes.push_back({id, rack_ids[r]});
  Rng rng(2024);
  for (std::size_t i = nodes.size(); i > 1; --i)
    std::swap(nodes[i - 1], nodes[rng.uniform_u64(i)]);

  expect_matches_reference(config_with(3, 512), nodes);
  expect_matches_reference(config_with(6, 128), nodes);
  expect_matches_reference(config_with(7, 128), nodes);  // > racks
  expect_matches_reference(config_with(40, 16), nodes);  // > nodes
}

// The group loop runs in blocks on a transient pool, or inline when
// the caller is a pool worker. Both builds must be the same map; 4,096
// groups over 1,280 nodes make three blocks.
TEST(Placement, PoolWorkerBuildMatchesTestThreadBuild) {
  const auto nodes = grid_nodes(16, 80);
  const PlacementConfig c = config_with(3, 4096);
  const PlacementMap here(c, nodes);
  std::optional<PlacementMap> on_worker;
  ThreadPool pool(1);
  parallel_for(pool, 1, [&](std::size_t) { on_worker.emplace(c, nodes); });
  for (GroupId g = 0; g < c.group_count; ++g)
    ASSERT_EQ(on_worker->replicas(g), here.replicas(g)) << "group " << g;
  for (const auto& n : nodes)
    ASSERT_EQ(on_worker->groups_on(n.id), here.groups_on(n.id))
        << "node " << n.id;
}

TEST(Placement, ValidationErrors) {
  EXPECT_THROW(PlacementMap(config_with(0, 10), grid_nodes(2, 2)),
               InvalidArgument);
  EXPECT_THROW(PlacementMap(config_with(2, 0), grid_nodes(2, 2)),
               InvalidArgument);
  EXPECT_THROW(PlacementMap(config_with(2, 10), {}), InvalidArgument);
  EXPECT_THROW(PlacementMap(config_with(2, 10),
                            {{0, 0}, {0, 1}}),  // duplicate id
               InvalidArgument);
}

TEST(Placement, UnknownNodeQueriesThrow) {
  PlacementMap map(config_with(2, 16), grid_nodes(2, 2));
  EXPECT_THROW(map.groups_on(99), InvalidArgument);
  EXPECT_THROW(map.replicas(16), InvalidArgument);
}

}  // namespace
}  // namespace gm::storage
