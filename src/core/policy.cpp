#include "core/policy.hpp"

#include <cmath>

#include "core/policies.hpp"
#include "util/assert.hpp"

namespace gm::core {

const char* policy_kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kAsap: return "asap";
    case PolicyKind::kOpportunistic: return "opportunistic";
    case PolicyKind::kGreenMatch: return "greenmatch";
    case PolicyKind::kGreenMatchGreedy: return "greenmatch-greedy";
    case PolicyKind::kNightShift: return "night-shift";
  }
  return "?";
}

void PolicyConfig::validate() const {
  GM_CHECK(deferral_fraction >= 0.0 && deferral_fraction <= 1.0,
           "deferral fraction must be in [0, 1]");
  GM_CHECK(horizon_slots >= 1, "planning horizon must be >= 1 slot");
  GM_CHECK(window_start_h >= 0.0 && window_end_h <= 24.0 &&
               window_start_h < window_end_h,
           "invalid night-shift window");
  GM_CHECK(shards >= 1, "scheduler.shards must be >= 1");
}

int SchedulerPolicy::nodes_for_load(double total_util,
                                    int running_tasks) const {
  GM_ASSERT(facts_.total_nodes > 0);
  const double cap = facts_.max_utilization_per_node;
  const int by_util =
      static_cast<int>(std::ceil(total_util / std::max(cap, 1e-9)));
  const int by_slots =
      facts_.task_slots_per_node > 0
          ? (running_tasks + facts_.task_slots_per_node - 1) /
                facts_.task_slots_per_node
          : 0;
  int nodes = std::max(by_util, by_slots);
  nodes = std::max(nodes, facts_.min_nodes_for_coverage);
  return std::min(nodes, facts_.total_nodes);
}

std::unique_ptr<SchedulerPolicy> make_policy(const PolicyConfig& config) {
  config.validate();
  switch (config.kind) {
    case PolicyKind::kAsap:
      return std::make_unique<AsapPolicy>();
    case PolicyKind::kOpportunistic:
      return std::make_unique<OpportunisticPolicy>(
          config.deferral_fraction, config.seed);
    case PolicyKind::kGreenMatch: {
      auto policy = std::make_unique<GreenMatchPolicy>(
          config.horizon_slots, /*greedy=*/false,
          config.replan_every_slot, config.battery_aware,
          config.carbon_aware);
      policy->set_shards(config.shards);
      return policy;
    }
    case PolicyKind::kGreenMatchGreedy:
      return std::make_unique<GreenMatchPolicy>(
          config.horizon_slots, /*greedy=*/true,
          config.replan_every_slot, config.battery_aware,
          config.carbon_aware);
    case PolicyKind::kNightShift:
      return std::make_unique<NightShiftPolicy>(config.window_start_h,
                                                config.window_end_h);
  }
  GM_UNREACHABLE("unknown policy kind");
}

}  // namespace gm::core
