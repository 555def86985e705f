#include "core/config.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace gm::core {

ExperimentConfig::ExperimentConfig() {
  battery = energy::BatteryConfig::lithium_ion(0.0);
}

void ExperimentConfig::validate() const {
  cluster.validate();
  workload.validate();
  arrivals.validate();
  admission.validate();
  policy.validate();
  battery.validate();
  GM_CHECK(panel_area_m2 >= 0.0, "negative panel area");
  GM_CHECK(slot_length_s > 0, "slot length must be positive");
  GM_CHECK(min_dwell_slots >= 0, "negative dwell");
  GM_CHECK(task_migration_energy_j >= 0.0, "negative migration energy");
  GM_CHECK(max_utilization_per_node > 0.0 &&
               max_utilization_per_node <= 1.0,
           "per-node utilization cap must be in (0, 1]");
  GM_CHECK(foreground_cpu_factor >= 0.0, "negative cpu factor");
  GM_CHECK(dvfs_eco_speed > 0.0 && dvfs_eco_speed <= 1.0,
           "DVFS eco speed must be in (0, 1]");
  GM_CHECK(dvfs_alpha >= 1.0, "DVFS alpha must be >= 1");
  GM_CHECK(maid_min_spinning_disks >= 1,
           "MAID must keep at least one disk spinning");
  GM_CHECK(max_drain_slots >= 0, "negative drain allowance");
  GM_CHECK(repair_rate_bytes_per_s > 0.0,
           "repair rate must be positive");
  GM_CHECK(repair_deadline_s > 0.0, "repair deadline must be positive");
  if (noisy_forecast) forecast_noise.validate();
  scenario.validate();
  for (const auto& f : node_failures) {
    GM_CHECK(f.fail_at >= 0, "failure before simulation start");
    GM_CHECK(f.recover_at == 0 || f.recover_at > f.fail_at,
             "recovery must follow failure");
  }
  // One node's outages may not overlap: the engine would count the
  // node failed twice, emit a second round of repair tasks and let the
  // earlier recovery end the later outage. Recovering at the instant
  // of the next failure is fine; a permanent failure (recover 0)
  // overlaps everything after it.
  auto by_node = node_failures;
  std::sort(by_node.begin(), by_node.end(),
            [](const NodeFailureEvent& a, const NodeFailureEvent& b) {
              if (a.node != b.node) return a.node < b.node;
              return a.fail_at < b.fail_at;
            });
  for (std::size_t i = 1; i < by_node.size(); ++i) {
    const NodeFailureEvent& prev = by_node[i - 1];
    const NodeFailureEvent& next = by_node[i];
    GM_CHECK(prev.node != next.node ||
                 (prev.recover_at != 0 && prev.recover_at <= next.fail_at),
             "overlapping failures on node "
                 << next.node << ": " << prev.node << "@" << prev.fail_at
                 << "@" << prev.recover_at << " and " << next.node << "@"
                 << next.fail_at << "@" << next.recover_at);
  }
  const int horizon_days =
      static_cast<int>(s_to_days(static_cast<double>(
          duration() + max_drain_slots * slot_length_s))) + 1;
  GM_CHECK(solar.horizon_days >= horizon_days,
           "solar horizon (" << solar.horizon_days
                             << " d) shorter than the run ("
                             << horizon_days << " d)");
}

ExperimentConfig ExperimentConfig::canonical() {
  ExperimentConfig config;
  config.cluster.racks = 4;
  config.cluster.nodes_per_rack = 16;
  config.cluster.placement.group_count = 512;
  config.cluster.placement.replication = 3;
  config.workload = workload::WorkloadSpec::canonical();
  config.solar.horizon_days = 14;
  config.panel_area_m2 = 120.0;
  config.battery = energy::BatteryConfig::lithium_ion(0.0);
  config.policy.kind = PolicyKind::kGreenMatch;
  config.validate();
  return config;
}

}  // namespace gm::core
