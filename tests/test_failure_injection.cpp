// Failure-injection tests: node crashes, repair-task generation,
// coverage degradation and recovery, at both fidelities.

#include <gtest/gtest.h>

#include <algorithm>

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

// fail_node/recover_node only mark the coverage floor stale; the
// first read after them recomputes it. After any batch of events the
// floor must equal a from-scratch greedy recompute, and a zero target
// with no dwell must land on exactly that many active nodes.
TEST(Failures, CoverageFloorMatchesRecomputeAfterEventBatches) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    storage::Cluster cluster(tiny_cluster());
    PowerManager pm(cluster, 0);
    Rng rng(seed);
    for (SlotIndex slot = 0; slot < 40; ++slot) {
      const SimTime now = slot * 3600;
      const auto events = 1 + rng.uniform_u64(6);
      for (std::uint64_t e = 0; e < events; ++e) {
        const auto node = static_cast<storage::NodeId>(
            rng.uniform_u64(cluster.node_count()));
        if (rng.bernoulli(0.5))
          pm.fail_node(node, now);
        else
          pm.recover_node(node, now, slot);
      }
      const int floor = storage::Cluster::active_count(
          cluster.choose_active_set(0, &pm.failed()));
      ASSERT_EQ(pm.min_feasible(), floor)
          << "seed " << seed << " slot " << slot;
      pm.apply_target(slot, 0, now);
      ASSERT_EQ(pm.active_count(), floor)
          << "seed " << seed << " slot " << slot;
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
