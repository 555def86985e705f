// Data-capacity model and plan-cache tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "core/engine.hpp"
#include "storage/cluster.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace gm {
namespace {

storage::ClusterConfig tiny_cluster() {
  storage::ClusterConfig c;
  c.racks = 2;
  c.nodes_per_rack = 8;
  c.placement.group_count = 128;
  c.placement.replication = 3;
  return c;
}

TEST(DataModel, GroupBytesLognormalAroundMean) {
  storage::PlacementConfig config;
  config.group_count = 2000;
  config.mean_group_bytes = 100e9;
  config.group_bytes_sigma = 0.5;
  std::vector<storage::NodeDescriptor> nodes;
  for (storage::NodeId i = 0; i < 16; ++i) nodes.push_back({i, i % 4});
  storage::PlacementMap map(config, nodes);

  double sum = 0.0;
  for (storage::GroupId g = 0; g < config.group_count; ++g) {
    EXPECT_GT(map.group_bytes(g), 0.0);
    sum += map.group_bytes(g);
  }
  EXPECT_NEAR(sum / config.group_count, 100e9, 10e9);
}

TEST(DataModel, NodeBytesSumGroups) {
  storage::Cluster cluster(tiny_cluster());
  const auto& placement = cluster.placement();
  for (storage::NodeId n = 0; n < cluster.node_count(); ++n) {
    double expected = 0.0;
    for (storage::GroupId g : placement.groups_on(n))
      expected += placement.group_bytes(g);
    EXPECT_DOUBLE_EQ(placement.node_bytes(n), expected);
  }
}

TEST(DataModel, TotalPhysicalBytesCountsReplicas) {
  storage::Cluster cluster(tiny_cluster());
  const auto& placement = cluster.placement();
  double logical = 0.0;
  for (storage::GroupId g = 0; g < 128; ++g)
    logical += placement.group_bytes(g);
  EXPECT_NEAR(placement.total_physical_bytes(), logical * 3.0,
              logical * 3.0 * 1e-12);
}

TEST(DataModel, StorageUtilizationWithinBounds) {
  storage::Cluster cluster(tiny_cluster());
  for (storage::NodeId n = 0; n < cluster.node_count(); ++n) {
    const double u = cluster.node_storage_utilization(n);
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  EXPECT_LE(cluster.max_storage_utilization(), 1.0);
}

TEST(DataModel, OverfullClusterRejected) {
  storage::ClusterConfig config = tiny_cluster();
  config.placement.mean_group_bytes = 4e12;  // 128×3 replicas × 4 TB
  EXPECT_THROW(storage::Cluster{config}, InvalidArgument);
}

TEST(DataModel, RepairWorkProportionalToData) {
  core::ExperimentConfig config;
  config.cluster = tiny_cluster();
  config.workload = workload::WorkloadSpec::canonical(2, 3);
  config.workload.foreground.base_rate_per_s = 0.2;
  for (auto& c : config.workload.task_classes) c.mean_per_day *= 0.2;
  config.solar.horizon_days = 6;
  config.panel_area_m2 = 40.0;
  config.repair_rate_bytes_per_s = 200e6;
  config.node_failures.push_back(
      core::NodeFailureEvent{.fail_at = 3600, .recover_at = 0, .node = 1});

  core::SimulationEngine engine(config);
  const auto& placement = engine.cluster().placement();
  // Expected total repair work for node 1's groups.
  double expected_s = 0.0;
  for (storage::GroupId g : placement.groups_on(1))
    expected_s +=
        std::max(60.0, placement.group_bytes(g) / 200e6);
  const auto artifacts = engine.run();
  EXPECT_EQ(artifacts.result.scheduler.nodes_failed, 1u);
  // The repair tasks completed (tasks_total includes them).
  EXPECT_EQ(artifacts.result.qos.tasks_completed,
            artifacts.result.qos.tasks_total);
  EXPECT_GT(expected_s, placement.groups_on(1).size() * 60.0 - 1.0);
}

TEST(SolarTrace, EnginePlaysBackCsv) {
  // Write a 9-day hourly trace: 5 kW from 08:00 to 16:00, else zero.
  const std::string path = "/tmp/gm_solar_trace_test.csv";
  {
    std::ofstream out(path);
    for (int h = 0; h < 9 * 24; ++h)
      out << ((h % 24 >= 8 && h % 24 < 16) ? 5000.0 : 0.0) << "\n";
  }
  core::ExperimentConfig config;
  config.cluster = tiny_cluster();
  config.workload = workload::WorkloadSpec::canonical(2, 3);
  config.workload.foreground.base_rate_per_s = 0.2;
  for (auto& c : config.workload.task_classes) c.mean_per_day *= 0.2;
  config.solar.horizon_days = 6;
  config.solar_trace_csv = path;
  config.panel_area_m2 = 0.0;  // trace replaces the model

  core::SimulationEngine engine(config);
  // Supply follows the trace: zero at 04:00, ~5 kW at noon.
  EXPECT_DOUBLE_EQ(engine.supply().power_w(4 * 3600), 0.0);
  EXPECT_NEAR(engine.supply().power_w(12 * 3600), 5000.0, 1.0);
  const auto artifacts = engine.run();
  EXPECT_GT(artifacts.result.energy.green_supply_j, 0.0);
}

TEST(SolarTrace, MissingFileThrows) {
  core::ExperimentConfig config;
  config.cluster = tiny_cluster();
  config.workload = workload::WorkloadSpec::canonical(2, 3);
  config.solar.horizon_days = 6;
  config.solar_trace_csv = "/no/such/trace.csv";
  EXPECT_THROW(core::SimulationEngine{config}, RuntimeError);
}

// --------------------------------------------------- plan cache

TEST(PlanCache, CachedModeMatchesReplanOnBrownAndMisses) {
  auto base = [] {
    core::ExperimentConfig config;
    config.cluster = tiny_cluster();
    config.workload = workload::WorkloadSpec::canonical(3, 17);
    config.workload.foreground.base_rate_per_s = 0.3;
    for (auto& c : config.workload.task_classes) c.mean_per_day *= 0.4;
    config.solar.horizon_days = 8;
    config.panel_area_m2 = 60.0;
    config.battery = energy::BatteryConfig::lithium_ion(kwh_to_j(10));
    config.policy.kind = core::PolicyKind::kGreenMatch;
    config.policy.horizon_slots = 12;
    return config;
  };
  auto replan_config = base();
  auto cached_config = base();
  cached_config.policy.replan_every_slot = false;
  const auto replan = core::run_experiment(replan_config).result;
  const auto cached = core::run_experiment(cached_config).result;

  EXPECT_EQ(cached.qos.deadline_misses, 0u);
  EXPECT_EQ(cached.qos.tasks_completed, cached.qos.tasks_total);
  // Staleness may cost a little brown but not much.
  EXPECT_LE(cached.energy.brown_j, replan.energy.brown_j * 1.10);
  // And it must save planner work, counted rather than timed so that
  // a busy machine cannot flip it.
  EXPECT_LT(cached.scheduler.solver_solves, replan.scheduler.solver_solves);
  EXPECT_LT(cached.scheduler.solver_dijkstra_pops,
            replan.scheduler.solver_dijkstra_pops);
  EXPECT_GT(cached.scheduler.plan_cache_hits, 0u);
  EXPECT_EQ(replan.scheduler.plan_cache_hits, 0u);
}

}  // namespace
}  // namespace gm
