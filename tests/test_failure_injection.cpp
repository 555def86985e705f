// Failure-injection tests: node crashes, repair-task generation,
// coverage degradation and recovery, at both fidelities.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "core/power_manager.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace gm::core {
namespace {

storage::ClusterConfig tiny_cluster() {
  storage::ClusterConfig c;
  c.racks = 2;
  c.nodes_per_rack = 8;
  c.placement.group_count = 128;
  c.placement.replication = 3;
  return c;
}

ExperimentConfig failure_config() {
  ExperimentConfig config;
  config.cluster = tiny_cluster();
  config.workload = workload::WorkloadSpec::canonical(3, 7);
  config.workload.foreground.base_rate_per_s = 0.5;
  for (auto& c : config.workload.task_classes) c.mean_per_day *= 0.4;
  config.solar.horizon_days = 8;
  config.panel_area_m2 = 60.0;
  config.battery = energy::BatteryConfig::lithium_ion(kwh_to_j(10));
  config.policy.kind = PolicyKind::kGreenMatch;
  config.policy.horizon_slots = 12;
  return config;
}

// ------------------------------------------------ PowerManager level

TEST(Failures, FailNodeDropsItAndShrinksGuarantee) {
  storage::Cluster cluster(tiny_cluster());
  PowerManager pm(cluster, 0);
  pm.fail_node(3, 100);
  EXPECT_TRUE(pm.is_failed(3));
  EXPECT_FALSE(pm.active()[3]);
  EXPECT_EQ(cluster.node(3).state(), storage::NodeState::kOff);

  // apply_target never re-activates a failed node.
  pm.apply_target(1, 16, 3600);
  EXPECT_FALSE(pm.active()[3]);
  EXPECT_EQ(pm.active_count(), 15);
}

TEST(Failures, RecoveryMakesNodeActivatableAgain) {
  storage::Cluster cluster(tiny_cluster());
  PowerManager pm(cluster, 0);
  pm.fail_node(5, 0);
  pm.recover_node(5, 7200, 2);
  EXPECT_FALSE(pm.is_failed(5));
  pm.apply_target(3, 16, 10800);
  EXPECT_TRUE(pm.active()[5]);
}

TEST(Failures, FailureIsIdempotent) {
  storage::Cluster cluster(tiny_cluster());
  PowerManager pm(cluster, 0);
  pm.fail_node(2, 0);
  pm.fail_node(2, 100);  // no-op
  EXPECT_EQ(pm.active_count(), 15);
  pm.recover_node(2, 200, 0);
  pm.recover_node(2, 300, 0);  // no-op
}

TEST(Failures, ForcedWakeSkipsFailedReplicas) {
  storage::Cluster cluster(tiny_cluster());
  PowerManager pm(cluster, 0);
  // Fail every replica of group 0: force_wake reports darkness.
  for (storage::NodeId n : cluster.placement().replicas(0))
    pm.fail_node(n, 0);
  EXPECT_EQ(pm.force_wake_for_group(0, 100, 0), kSimTimeMax);
  EXPECT_EQ(pm.wake_sleeping_replica(0, 100, 0), storage::kInvalidNode);
}

TEST(Failures, MinFeasibleTracksFailures) {
  storage::Cluster cluster(tiny_cluster());
  PowerManager pm(cluster, 0);
  const int before = pm.min_feasible();
  pm.fail_node(0, 0);
  pm.fail_node(1, 0);
  // Losing nodes cannot lower the (coverable) floor by more than the
  // failed count and usually raises it.
  EXPECT_GE(pm.min_feasible(), before - 2);
  pm.recover_node(0, 100, 0);
  pm.recover_node(1, 100, 0);
  EXPECT_EQ(pm.min_feasible(), before);
}

// PowerManager keeps the coverage floor, the active count and the
// coverage verdict incrementally; Cluster::choose_active_set and the
// covered/coverable scans are the reference. A seeded walk over every
// transition kind checks them after each one, on cluster shapes that
// stress the greedy: replicas in distinct racks, more replicas than
// racks (nodes are the buckets), a single rack, and nodes that host no
// group.
struct CoverageShape {
  const char* name;
  int racks;
  int nodes_per_rack;
  std::uint32_t groups;
  int replication;
};

class CoverageOracle {
 public:
  CoverageOracle(const storage::Cluster& cluster, const PowerManager& pm)
      : cluster_(cluster), pm_(pm) {}

  int floor() const {
    return storage::Cluster::active_count(
        cluster_.choose_active_set(0, &pm_.failed()));
  }
  int healthy() const {
    return static_cast<int>(std::count(pm_.failed().begin(),
                                       pm_.failed().end(), false));
  }
  storage::ActiveSet desired(int target) const {
    return cluster_.choose_active_set(
        std::clamp(target, floor(), healthy()), &pm_.failed());
  }

  // Counters that need no settling, valid after any transition.
  void check_counts(const std::string& where) const {
    ASSERT_EQ(pm_.active_count(),
              storage::Cluster::active_count(pm_.active()))
        << where;
    const std::uint32_t covered = cluster_.covered_groups(pm_.active());
    const std::uint32_t coverable =
        cluster_.coverable_groups(pm_.failed());
    ASSERT_LE(covered, coverable) << where;
    ASSERT_EQ(pm_.dark_coverable_groups(), coverable - covered) << where;
  }

  void check_floor(const std::string& where) const {
    ASSERT_EQ(pm_.min_feasible(), floor()) << where;
  }

 private:
  const storage::Cluster& cluster_;
  const PowerManager& pm_;
};

// A group with a live replica but no active one, scanning from a random
// start; a random group when every coverable group is covered.
storage::GroupId pick_wake_group(const storage::Cluster& cluster,
                                 const PowerManager& pm, Rng& rng) {
  const std::uint32_t groups = cluster.placement().group_count();
  const auto start = static_cast<storage::GroupId>(rng.uniform_u64(groups));
  for (std::uint32_t i = 0; i < groups; ++i) {
    const storage::GroupId g = (start + i) % groups;
    const auto& replicas = cluster.placement().replicas(g);
    const auto lit = [&](storage::NodeId n) { return pm.active()[n]; };
    const auto live = [&](storage::NodeId n) { return !pm.is_failed(n); };
    if (std::none_of(replicas.begin(), replicas.end(), lit) &&
        std::any_of(replicas.begin(), replicas.end(), live))
      return g;
  }
  return start;
}

// A failed node when there is one (the next at or after a random id),
// else a random node, which makes the recovery a no-op.
storage::NodeId pick_recovery(const PowerManager& pm, Rng& rng) {
  const std::size_t n = pm.failed().size();
  const auto start = static_cast<storage::NodeId>(rng.uniform_u64(n));
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<storage::NodeId>((start + i) % n);
    if (pm.is_failed(node)) return node;
  }
  return start;
}

TEST(Failures, CoverageFloorMatchesRecomputeAfterEventBatches) {
  const CoverageShape shapes[] = {
      {"tiny", 2, 8, 128, 3},
      {"fleet", 16, 80, 1024, 3},
      {"replicas>racks", 2, 6, 64, 4},
      {"one-rack", 1, 10, 40, 3},
      {"empty-nodes", 4, 16, 6, 2},
  };
  for (const CoverageShape& shape : shapes) {
    for (const int dwell : {0, 2}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        storage::ClusterConfig config;
        config.racks = shape.racks;
        config.nodes_per_rack = shape.nodes_per_rack;
        config.placement.group_count = shape.groups;
        config.placement.replication = shape.replication;
        storage::Cluster cluster(config);
        PowerManager pm(cluster, dwell);
        const CoverageOracle oracle(cluster, pm);
        const auto nodes = cluster.node_count();
        Rng rng(seed * 977 + static_cast<std::uint64_t>(dwell));
        oracle.check_floor("initial");
        for (int step = 0; step < 160; ++step) {
          const SlotIndex slot = step / 3;
          const SimTime now = slot * 3600;
          std::ostringstream at;
          at << shape.name << " dwell " << dwell << " seed " << seed
             << " step " << step;
          const std::string where = at.str();
          switch (rng.uniform_u64(5)) {
            case 0:
            case 1: {
              // A batch of 1–6 fail/recover events before the floor is
              // read again.
              const auto events = 1 + rng.uniform_u64(6);
              for (std::uint64_t e = 0; e < events; ++e) {
                if (rng.bernoulli(0.5))
                  pm.fail_node(static_cast<storage::NodeId>(
                                   rng.uniform_u64(nodes)),
                               now);
                else
                  pm.recover_node(pick_recovery(pm, rng), now, slot);
                oracle.check_counts(where + " event " + std::to_string(e));
              }
              break;
            }
            case 2: {
              // Targets from below zero to past the healthy count.
              const int target =
                  static_cast<int>(rng.uniform_u64(nodes + 8)) - 4;
              const storage::ActiveSet want = oracle.desired(target);
              pm.apply_target(slot, target, now);
              ASSERT_EQ(pm.dark_coverable_groups(), 0u) << where;
              if (dwell == 0) {
                ASSERT_EQ(pm.active(), want) << where << " target "
                                             << target;
              } else {
                for (storage::NodeId n = 0; n < nodes; ++n)
                  ASSERT_TRUE(!want[n] || pm.active()[n])
                      << where << " node " << n;
              }
              break;
            }
            case 3:
              pm.force_wake_for_group(pick_wake_group(cluster, pm, rng),
                                      now, slot);
              break;
            default:
              pm.wake_sleeping_replica(
                  static_cast<storage::GroupId>(
                      rng.uniform_u64(cluster.placement().group_count())),
                  now, slot);
              break;
          }
          oracle.check_counts(where);
          oracle.check_floor(where);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(Cluster, ChooseActiveSetHonorsExclusions) {
  storage::Cluster cluster(tiny_cluster());
  std::vector<bool> excluded(cluster.node_count(), false);
  excluded[4] = excluded[9] = true;
  for (int target : {0, 8, 16}) {
    const auto active = cluster.choose_active_set(target, &excluded);
    EXPECT_FALSE(active[4]);
    EXPECT_FALSE(active[9]);
    EXPECT_EQ(cluster.covered_groups(active),
              cluster.coverable_groups(excluded));
  }
}

// ----------------------------------------------------- Engine level

TEST(Failures, EngineInjectsRepairTasksAndSurvives) {
  auto config = failure_config();
  const storage::NodeId victim = 2;
  config.node_failures.push_back(
      NodeFailureEvent{.fail_at = 12 * 3600,
                       .recover_at = 36 * 3600,
                       .node = victim});
  SimulationEngine engine(config);
  const std::size_t groups_on_victim =
      engine.cluster().placement().groups_on(victim).size();
  const auto artifacts = engine.run();
  const auto& r = artifacts.result;

  EXPECT_EQ(r.scheduler.nodes_failed, 1u);
  // Workload tasks + one repair per hosted group all admitted.
  EXPECT_EQ(r.qos.tasks_total,
            engine.workload().tasks.size() + groups_on_victim);
  EXPECT_EQ(r.qos.tasks_completed, r.qos.tasks_total);
  // Energy conservation still holds (ledger asserts internally).
  EXPECT_GT(r.energy.demand_j, 0.0);
}

TEST(Failures, PermanentFailureAlsoDrains) {
  auto config = failure_config();
  config.node_failures.push_back(
      NodeFailureEvent{.fail_at = 6 * 3600, .recover_at = 0, .node = 7});
  const auto artifacts = run_experiment(config);
  EXPECT_EQ(artifacts.result.scheduler.nodes_failed, 1u);
  EXPECT_EQ(artifacts.result.qos.tasks_completed,
            artifacts.result.qos.tasks_total);
}

TEST(Failures, MultipleFailuresEventLevelKeepsServing) {
  auto config = failure_config();
  config.fidelity = Fidelity::kEventLevel;
  config.node_failures.push_back(
      NodeFailureEvent{.fail_at = 10 * 3600, .recover_at = 0, .node = 1});
  config.node_failures.push_back(NodeFailureEvent{
      .fail_at = 20 * 3600, .recover_at = 50 * 3600, .node = 12});
  const auto artifacts = run_experiment(config);
  const auto& r = artifacts.result;
  EXPECT_EQ(r.scheduler.nodes_failed, 2u);
  EXPECT_GT(r.qos.foreground_requests, 0u);
  // With replication 3 and only 2 concurrent failures no group is
  // fully dark, so reads stay available.
  EXPECT_EQ(r.qos.unavailable_reads, 0u);
}

TEST(Failures, ValidationRejectsBadEvents) {
  auto config = failure_config();
  config.node_failures.push_back(
      NodeFailureEvent{.fail_at = -5, .recover_at = 0, .node = 0});
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.node_failures.clear();
  config.node_failures.push_back(
      NodeFailureEvent{.fail_at = 100, .recover_at = 50, .node = 0});
  EXPECT_THROW(config.validate(), InvalidArgument);

  // Overlapping outages on one node (regression: the run counted the
  // node failed twice, emitted a second round of repair tasks and let
  // the first recovery end the second outage), listed in either order.
  config.node_failures = {
      NodeFailureEvent{.fail_at = 7200, .recover_at = 10800, .node = 3},
      NodeFailureEvent{.fail_at = 3600, .recover_at = 360000, .node = 3}};
  EXPECT_THROW(config.validate(), InvalidArgument);
  // Two outages starting at the same instant.
  config.node_failures = {
      NodeFailureEvent{.fail_at = 3600, .recover_at = 7200, .node = 3},
      NodeFailureEvent{.fail_at = 3600, .recover_at = 9000, .node = 3}};
  EXPECT_THROW(config.validate(), InvalidArgument);
  // A permanent failure overlaps every later event on its node.
  config.node_failures = {
      NodeFailureEvent{.fail_at = 3600, .recover_at = 0, .node = 3},
      NodeFailureEvent{.fail_at = 720000, .recover_at = 800000, .node = 3}};
  EXPECT_THROW(config.validate(), InvalidArgument);

  // Back-to-back outages on one node, and overlapping outages on
  // different nodes, stay legal.
  config.node_failures = {
      NodeFailureEvent{.fail_at = 7200, .recover_at = 0, .node = 3},
      NodeFailureEvent{.fail_at = 3600, .recover_at = 7200, .node = 3},
      NodeFailureEvent{.fail_at = 3600, .recover_at = 0, .node = 4}};
  EXPECT_NO_THROW(config.validate());
}

TEST(Failures, BackToBackOutagesOnOneNodeRun) {
  auto config = failure_config();
  config.node_failures = {
      NodeFailureEvent{.fail_at = 6 * 3600, .recover_at = 12 * 3600,
                       .node = 5},
      NodeFailureEvent{.fail_at = 12 * 3600, .recover_at = 20 * 3600,
                       .node = 5}};
  const auto r = run_experiment(config).result;
  EXPECT_EQ(r.scheduler.nodes_failed, 2u);
  EXPECT_EQ(r.qos.tasks_completed, r.qos.tasks_total);
}

TEST(Failures, UnknownNodeRejectedAtRuntime) {
  auto config = failure_config();
  config.node_failures.push_back(
      NodeFailureEvent{.fail_at = 0, .recover_at = 0, .node = 999});
  EXPECT_THROW(run_experiment(config), InvalidArgument);
}

}  // namespace
}  // namespace gm::core
