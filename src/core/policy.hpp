#pragma once
// Scheduler policy interface. Once per slot the engine presents the
// policy with the state it may legally observe — forecasted renewable
// supply over the horizon, battery state, foreground demand, and the
// pool of pending deferrable tasks — and the policy answers with a
// power-gear target and the set of tasks to run this slot. The engine
// (power manager) enforces feasibility: coverage, capacity, urgency.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "energy/battery.hpp"
#include "storage/types.hpp"
#include "util/time_types.hpp"
#include "util/units.hpp"

namespace gm::core {

/// A released, not-yet-finished background task as the policy sees it.
struct PendingTask {
  storage::BackgroundTask task;
  Seconds remaining_s = 0.0;
  bool running = false;            ///< ran in the previous slot
  storage::NodeId assigned_node = storage::kInvalidNode;
  /// Policy-private tag set at admission (e.g. "delayed" lottery in
  /// the opportunistic policy). Engine preserves it.
  std::uint8_t policy_tag = 0;

  Seconds slack(SimTime now) const {
    return static_cast<Seconds>(task.deadline - now) - remaining_s;
  }
  bool urgent(SimTime now, Seconds slot_len) const {
    return slack(now) < slot_len;
  }
};

/// Static facts the policy may use (set once at run start).
struct ClusterFacts {
  int total_nodes = 0;
  int min_nodes_for_coverage = 0;
  int task_slots_per_node = 0;
  Watts node_idle_floor_w = 0.0;  ///< power of an on, unloaded node
  Watts node_peak_w = 0.0;
  Seconds slot_length_s = 3600.0;
  Joules node_boot_energy_j = 0.0;
  double max_utilization_per_node = 0.95;
};

/// Per-slot observation.
struct SlotContext {
  SlotIndex slot = 0;
  SimTime start = 0;
  SimTime end = 0;
  /// Forecast average green power for this and the following slots
  /// (index 0 = current slot). Length = policy horizon.
  std::vector<Watts> green_forecast_w;
  Joules battery_stored_j = 0.0;
  Joules battery_usable_capacity_j = 0.0;
  Watts battery_max_charge_w = 0.0;
  Watts battery_max_discharge_w = 0.0;
  double battery_charge_efficiency = 1.0;
  /// Grid carbon intensity (gCO2e/kWh) per horizon slot; used by the
  /// carbon-aware matcher.
  std::vector<double> grid_carbon_g_per_kwh;
  /// Foreground demand this slot, in node-utilization units
  /// (node-seconds of work per second of wall time).
  double foreground_util = 0.0;
  /// Forecast of foreground utilization over the horizon (index 0 =
  /// current slot; the engine knows the trace, modeling the
  /// statistical demand estimate the original system would keep).
  std::vector<double> foreground_util_forecast;
  int currently_active_nodes = 0;
  /// Open-system mode only (arrivals.enabled): arrivals decided at
  /// this slot boundary and the tasks parked by the admission
  /// controller awaiting a wider headroom view. Always 0 in
  /// closed-loop runs; admitted arrivals appear in `pending` like any
  /// other task (docs/admission.md).
  std::uint64_t arrivals_new = 0;
  std::uint64_t arrivals_deferred_backlog = 0;
  /// Pending tasks, sorted by deadline (earliest first).
  std::vector<PendingTask> pending;
};

/// Per-slot decision.
struct SlotDecision {
  /// Desired number of active nodes; the engine clamps it into
  /// [feasible minimum, total].
  int target_active_nodes = 0;
  /// Ids of pending tasks to run this slot (engine enforces capacity
  /// and replica locality; urgent tasks are force-added if omitted).
  std::vector<storage::TaskId> run_tasks;
  /// true → run non-urgent tasks at the configured DVFS eco speed
  /// this slot (policies request it when no green surplus is
  /// available; the engine ignores it when DVFS is disabled).
  bool eco_speed = false;
};

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;
  virtual const char* name() const = 0;
  virtual void initialize(const ClusterFacts& facts) { facts_ = facts; }
  virtual SlotDecision decide(const SlotContext& ctx) = 0;

  /// Called when a task first enters the pending pool; lets policies
  /// tag tasks (e.g. the deferral lottery). Default: no tag.
  virtual std::uint8_t admit(const storage::BackgroundTask& task) {
    (void)task;
    return 0;
  }

 protected:
  ClusterFacts facts_;

  /// Nodes needed to host a given total utilization plus task count.
  int nodes_for_load(double total_util, int running_tasks) const;
};

/// Which policy to run, with its knobs (one struct so sweeps are easy).
enum class PolicyKind : std::uint8_t {
  kAsap = 0,        ///< energy-oblivious; with a battery = "ESD-only"
  kOpportunistic,   ///< delay-until-green with a deferral fraction
  kGreenMatch,      ///< horizon matching via min-cost flow
  kGreenMatchGreedy,///< ablation: greedy earliest-greenest-fit
  kNightShift,      ///< static solar-hours window baseline
};

const char* policy_kind_name(PolicyKind kind);

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kGreenMatch;
  /// Opportunistic: fraction of deferrable tasks entered into the
  /// delay lottery (the rest run ASAP).
  double deferral_fraction = 1.0;
  std::uint64_t seed = 2024;
  /// GreenMatch: planning horizon in slots.
  int horizon_slots = 24;
  /// GreenMatch: re-plan every slot (true) or only when the pool or
  /// forecast changed materially (false → cheaper, slightly stale).
  bool replan_every_slot = true;
  /// GreenMatch: weight grid-covered units by the slot's forecast
  /// carbon intensity instead of a flat brown penalty — minimizes
  /// gCO2e rather than grid kWh.
  bool carbon_aware = false;
  /// GreenMatch: model the battery inside the matching network (a
  /// time-expanded storage chain). Ablation shows this changes plans
  /// only marginally — the engine's passive charge-surplus /
  /// discharge-deficit loop already captures the battery's value — so
  /// the cheaper supply-only matcher is the default.
  bool battery_aware = false;
  /// NightShift: daily run window for background tasks.
  double window_start_h = 9.0;
  double window_end_h = 17.0;
  /// GreenMatch: number of placement-group scheduling shards. `1`
  /// (the default) plans the whole fleet in one flow network; `N > 1`
  /// partitions nodes, pending tasks, and forecast supply into N
  /// subproblems solved in parallel and reconciled (core/shard.hpp,
  /// docs/scheduling.md §Sharding). Config key `scheduler.shards`.
  int shards = 1;

  void validate() const;
};

std::unique_ptr<SchedulerPolicy> make_policy(const PolicyConfig& config);

}  // namespace gm::core
