// Cluster coverage/activation and request-router tests.

#include <gtest/gtest.h>

#include <algorithm>

#include "storage/cluster.hpp"
#include "storage/router.hpp"
#include "util/assert.hpp"

namespace gm::storage {
namespace {

ClusterConfig small_cluster(int replication = 3) {
  ClusterConfig c;
  c.racks = 2;
  c.nodes_per_rack = 4;
  c.placement.group_count = 64;
  c.placement.replication = replication;
  return c;
}

TEST(Cluster, AllActiveIsFeasible) {
  Cluster cl(small_cluster());
  ActiveSet all(cl.node_count(), true);
  EXPECT_TRUE(cl.is_feasible(all));
  EXPECT_EQ(cl.covered_groups(all), 64u);
}

TEST(Cluster, NoneActiveCoversNothing) {
  Cluster cl(small_cluster());
  ActiveSet none(cl.node_count(), false);
  EXPECT_EQ(cl.covered_groups(none), 0u);
}

TEST(Cluster, ChooseActiveSetIsFeasibleForAnyTarget) {
  Cluster cl(small_cluster());
  for (int target = 0; target <= static_cast<int>(cl.node_count());
       ++target) {
    const ActiveSet s = cl.choose_active_set(target);
    EXPECT_TRUE(cl.is_feasible(s)) << "target " << target;
    EXPECT_GE(Cluster::active_count(s), std::min(
        target, static_cast<int>(cl.node_count())));
  }
}

TEST(Cluster, ChooseActiveSetMonotoneNested) {
  // Larger targets keep everything a smaller target kept (the greedy
  // deactivation order is fixed), which minimizes churn across slots.
  Cluster cl(small_cluster());
  const ActiveSet small = cl.choose_active_set(0);
  const ActiveSet large =
      cl.choose_active_set(static_cast<int>(cl.node_count()) - 1);
  for (NodeId n = 0; n < cl.node_count(); ++n) {
    if (small[n]) {
      EXPECT_TRUE(large[n]);
    }
  }
}

TEST(Cluster, MinFeasibleBelowTotal) {
  Cluster cl(small_cluster());
  EXPECT_LE(cl.min_feasible_count(),
            static_cast<int>(cl.node_count()));
  EXPECT_GT(cl.min_feasible_count(), 0);
}

TEST(Cluster, HigherReplicationLowersFloor) {
  // On realistically-sized clusters more replicas per group give the
  // greedy deactivation strictly more room. (Tiny clusters can invert
  // this: the greedy order is not optimal.)
  ClusterConfig big2 = small_cluster(2), big3 = small_cluster(3);
  big2.racks = big3.racks = 4;
  big2.nodes_per_rack = big3.nodes_per_rack = 16;
  big2.placement.group_count = big3.placement.group_count = 512;
  Cluster r2(big2), r3(big3);
  EXPECT_LT(r3.min_feasible_count(), r2.min_feasible_count());
}

TEST(Cluster, ActiveCountHelper) {
  ActiveSet s{true, false, true, true};
  EXPECT_EQ(Cluster::active_count(s), 3);
}

TEST(Cluster, CoverageRejectsWrongSize) {
  Cluster cl(small_cluster());
  EXPECT_THROW(cl.covered_groups(ActiveSet(3, true)), InvalidArgument);
}

TEST(Cluster, NodeAccessBounds) {
  Cluster cl(small_cluster());
  EXPECT_NO_THROW(cl.node(0));
  EXPECT_THROW(cl.node(static_cast<NodeId>(cl.node_count())),
               InvalidArgument);
}

// -------------------------------------------------------------- Router

IoRequest make_read(RequestId id, SimTime at, ObjectId object,
                    std::uint64_t bytes = 1 << 20) {
  IoRequest r;
  r.id = id;
  r.arrival = at;
  r.object = object;
  r.size_bytes = bytes;
  r.is_write = false;
  return r;
}

TEST(Router, ServesReadOnActiveReplica) {
  Cluster cl(small_cluster());
  RequestRouter router(cl, RouterConfig{});
  const auto outcome = router.route(make_read(1, 0, 42), 0, nullptr);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_GT(outcome->latency_s, 0.0);
  EXPECT_LT(outcome->latency_s, 1.0);
  EXPECT_FALSE(outcome->offloaded);
  EXPECT_FALSE(outcome->forced_wakeup);
  // Served by a replica of the object's group.
  const GroupId g = cl.placement().group_of(42);
  const auto& reps = cl.placement().replicas(g);
  EXPECT_NE(std::find(reps.begin(), reps.end(), outcome->served_by),
            reps.end());
}

TEST(Router, QueueingDelaysSecondRequest) {
  Cluster cl(small_cluster());
  RequestRouter router(cl, RouterConfig{});
  // Two large requests for the same object arrive together; per-disk
  // FIFO queueing must make one wait (there are 3 replicas × 4 disks,
  // but the least-loaded-disk choice spreads them; hammer with many).
  const ObjectId object = 7;
  double max_latency = 0.0;
  for (int i = 0; i < 64; ++i) {
    const auto out =
        router.route(make_read(i, 0, object, 200 << 20), 0, nullptr);
    ASSERT_TRUE(out.has_value());
    max_latency = std::max(max_latency, out->latency_s);
  }
  // 64 × ~1.4 s of service over 12 replica disks → some request waits
  // several service times.
  EXPECT_GT(max_latency, 3.0);
}

TEST(Router, ReadUnavailableWithoutWaker) {
  Cluster cl(small_cluster());
  // Deactivate every node (bypassing coverage for the test).
  for (NodeId n = 0; n < cl.node_count(); ++n)
    cl.node(n).complete_power_off(cl.node(n).begin_power_off(0));
  RequestRouter router(cl, RouterConfig{});
  const auto out = router.route(make_read(1, 100, 5), 100, nullptr);
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(router.unavailable_reads(), 1u);
}

TEST(Router, WriteOffloadsToAnyActiveNode) {
  Cluster cl(small_cluster());
  // Find an object and deactivate all its replicas.
  const ObjectId object = 11;
  const GroupId g = cl.placement().group_of(object);
  for (NodeId n : cl.placement().replicas(g))
    cl.node(n).complete_power_off(cl.node(n).begin_power_off(0));

  RequestRouter router(cl, RouterConfig{});
  IoRequest w = make_read(1, 10, object);
  w.is_write = true;
  const auto out = router.route(w, 10, nullptr);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->offloaded);
  // Served by a non-replica node.
  const auto& reps = cl.placement().replicas(g);
  EXPECT_EQ(std::find(reps.begin(), reps.end(), out->served_by),
            reps.end());
  EXPECT_EQ(router.stats().offloaded_writes, 1u);

  // A reconciliation task was emitted.
  const auto tasks = router.drain_offload_tasks();
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].group, g);
  EXPECT_GT(tasks[0].deadline, tasks[0].release);
  EXPECT_TRUE(router.drain_offload_tasks().empty());  // drained
}

TEST(Router, ForcedWakeupViaWaker) {
  Cluster cl(small_cluster());
  const ObjectId object = 13;
  const GroupId g = cl.placement().group_of(object);
  for (NodeId n : cl.placement().replicas(g))
    cl.node(n).complete_power_off(cl.node(n).begin_power_off(0));

  RequestRouter router(cl, RouterConfig{});
  int wakes = 0;
  const NodeWaker waker = [&](GroupId group, SimTime now) -> SimTime {
    EXPECT_EQ(group, g);
    ++wakes;
    // Wake the primary replica.
    const NodeId n = cl.placement().replicas(group).front();
    cl.node(n).complete_power_on(cl.node(n).begin_power_on(now) );
    return now + 120;
  };
  const auto out = router.route(make_read(1, 50, object), 50, waker);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->forced_wakeup);
  EXPECT_EQ(wakes, 1);
  EXPECT_GE(out->latency_s, 0.0);
  EXPECT_EQ(router.stats().forced_wakeups, 1u);
}

TEST(Router, StatsCountKinds) {
  Cluster cl(small_cluster());
  RequestRouter router(cl, RouterConfig{});
  router.route(make_read(1, 0, 1), 0, nullptr);
  IoRequest w = make_read(2, 0, 2);
  w.is_write = true;
  router.route(w, 0, nullptr);
  EXPECT_EQ(router.stats().requests, 2u);
  EXPECT_EQ(router.stats().reads, 1u);
  EXPECT_EQ(router.stats().writes, 1u);
  EXPECT_GT(router.stats().busy_disk_seconds, 0.0);
  EXPECT_EQ(router.latency_histogram().count(), 2u);
}

}  // namespace
}  // namespace gm::storage
