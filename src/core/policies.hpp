#pragma once
// Concrete scheduler policies. See policy.hpp for the interface and
// DESIGN.md §3.4 for the GreenMatch planning algorithm.

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/mincost_flow.hpp"
#include "core/policy.hpp"
#include "util/id_set.hpp"
#include "util/rng.hpp"

namespace gm {
class ThreadPool;
}

namespace gm::core {

/// Energy-oblivious baseline: run every pending task as soon as
/// capacity allows. With a battery attached this is the lineage's
/// "ESD-only" configuration — all renewable-awareness lives in the
/// passive charge-surplus/discharge-deficit battery loop.
class AsapPolicy final : public SchedulerPolicy {
 public:
  const char* name() const override { return "asap"; }
  SlotDecision decide(const SlotContext& ctx) override;
};

/// Static time-window baseline: background tasks run only inside a
/// fixed daily window (default 9h–17h, the naive "solar hours" rule);
/// urgent tasks override the window.
class NightShiftPolicy final : public SchedulerPolicy {
 public:
  NightShiftPolicy(double window_start_h, double window_end_h);
  const char* name() const override { return "night-shift"; }
  SlotDecision decide(const SlotContext& ctx) override;

 private:
  double start_h_;
  double end_h_;
};

/// Opportunistic delay-until-green: a `deferral_fraction` lottery
/// marks tasks as delayed at admission; delayed tasks wait until the
/// current green surplus can power them (or until their slack runs
/// out), the rest behave like ASAP. Reactive: looks only at the
/// current slot's forecast.
class OpportunisticPolicy final : public SchedulerPolicy {
 public:
  OpportunisticPolicy(double deferral_fraction, std::uint64_t seed);
  const char* name() const override { return "opportunistic"; }
  std::uint8_t admit(const storage::BackgroundTask& task) override;
  SlotDecision decide(const SlotContext& ctx) override;

  static constexpr std::uint8_t kTagDelayed = 1;

 private:
  double deferral_fraction_;
  Rng rng_;
};

/// GreenMatch: plans task placement over a forecast horizon by solving
/// a min-cost flow that matches task slot-units to time slots, where
/// green-covered units are free and grid-covered units pay a brown
/// penalty. `greedy` swaps the flow solver for an
/// earliest-greenest-fit heuristic (the ablation variant).
///
/// The flow network is built over *task classes*, not tasks: pending
/// tasks with the same planner-visible signature (units needed,
/// feasible horizon, beyond-horizon capacity) are interchangeable to
/// the matcher, so one class node with multiplied capacities replaces
/// their per-task nodes and the solved class flow is dealt back to
/// members round-robin in deadline order. Network size scales with
/// the number of distinct signatures instead of the pending-pool
/// depth (see plan_flow).
class GreenMatchPolicy final : public SchedulerPolicy {
 public:
  GreenMatchPolicy(int horizon_slots, bool greedy, bool replan_every_slot,
                   bool battery_aware = false, bool carbon_aware = false);
  ~GreenMatchPolicy() override;
  const char* name() const override {
    return greedy_ ? "greenmatch-greedy" : "greenmatch";
  }
  SlotDecision decide(const SlotContext& ctx) override;

  /// Cumulative planner wall time (telemetry for the report). Under
  /// sharding this is the orchestration wall clock of plan_sharded —
  /// what the slot actually waited — not the sum of per-shard CPU
  /// (that lives in shard_stats()).
  double solve_ms_total() const { return solve_ms_total_; }
  /// Slots answered from the cached plan (replan_every_slot = false),
  /// summed over the per-shard sub-planners when sharded.
  std::uint64_t plan_cache_hits() const {
    std::uint64_t hits = plan_cache_hits_;
    for (const auto& s : shard_planners_) hits += s->plan_cache_hits_;
    return hits;
  }

  /// Splits planning into `shards` independent subproblems keyed by
  /// placement group (core/shard.hpp), solved in parallel on an
  /// internal thread pool and merged with a cross-shard green-headroom
  /// reconciliation pass. `1` (the default) is the flat planner,
  /// byte-identically. Greedy mode ignores sharding (the heuristic is
  /// already O(tasks × horizon)).
  void set_shards(int shards);
  int shards() const { return shards_; }
  /// Residual-pass re-solves triggered by the reconciliation ledger.
  std::uint64_t reconciliation_solves() const {
    return reconciliation_solves_;
  }

  /// Per-shard planner telemetry (empty when shards() == 1).
  struct ShardStats {
    int shard = 0;
    double solve_ms = 0.0;      ///< cumulative CPU inside this shard
    std::uint64_t solves = 0;   ///< flow solves this shard ran
    int last_tasks = 0;         ///< pending tasks in the last plan
    int last_classes = 0;       ///< distinct signatures in it
  };
  std::vector<ShardStats> shard_stats() const;

  /// Telemetry for the last plan_flow solve (tests, benches).
  struct PlanStats {
    long long flow = 0;        ///< slot-units placed
    long long cost = 0;        ///< objective value of the matching
    int tasks = 0;             ///< pending tasks seen by the planner
    int classes = 0;           ///< distinct task signatures
    int network_nodes = 0;     ///< nodes in the flow network
    bool warm_start = false;   ///< previous potentials were accepted
  };
  const PlanStats& last_plan_stats() const { return plan_stats_; }

  /// Equivalence-test hook: disables task-class grouping so plan_flow
  /// builds the one-node-per-task network (every task its own
  /// singleton class — edge-for-edge the pre-aggregation form), the
  /// reference tests/test_planner_equivalence.cpp holds the aggregated
  /// network to. No config key or PolicyConfig field reaches it.
  void set_aggregation(bool on) { aggregate_ = on; }

  /// Warm-start acceptance counters of the underlying solver(s) —
  /// summed over the per-shard sub-planners when sharded.
  std::uint64_t warm_accepts() const {
    std::uint64_t n = flow_.warm_accepts();
    for (const auto& s : shard_planners_) n += s->flow_.warm_accepts();
    return n;
  }
  std::uint64_t warm_rejects() const {
    std::uint64_t n = flow_.warm_rejects();
    for (const auto& s : shard_planners_) n += s->flow_.warm_rejects();
    return n;
  }

  /// Cumulative solver work across every plan_flow solve of this
  /// policy's lifetime — the run-level view of
  /// MinCostFlow::SolveStats (which is per-solve). Fed into the run
  /// report and metrics registry by the engine at finalize.
  struct SolverTotals {
    std::uint64_t solves = 0;
    std::uint64_t dijkstra_runs = 0;
    std::uint64_t dijkstra_pops = 0;
    std::uint64_t dijkstra_relaxations = 0;
    std::uint64_t augmenting_paths = 0;
    std::uint64_t zero_paths = 0;
    std::uint64_t arena_bytes_peak = 0;
  };
  /// Aggregated over the flat planner and every shard sub-planner
  /// (counter sum, arena peak max).
  SolverTotals solver_totals() const;
  /// Per-solve stats of the most recent plan_flow (classes stamped).
  const MinCostFlow::SolveStats& last_solve_stats() const {
    return flow_.last_stats();
  }

 private:
  SlotDecision plan_flow(const SlotContext& ctx);
  SlotDecision plan_greedy(const SlotContext& ctx);
  /// shards_ > 1 flow path: partition → parallel per-shard plan_flow →
  /// green-headroom reconciliation → merge (see docs/scheduling.md).
  SlotDecision plan_sharded(const SlotContext& ctx);
  /// Lazily builds the per-shard sub-planners (each with its own
  /// retained flow network and warm potentials) and the solve pool.
  void ensure_shard_planners();
  /// Power committed to foreground work + its coverage floor in
  /// horizon slot j.
  Watts committed_power_w(const SlotContext& ctx, std::size_t j) const;
  /// Green slot-units available per horizon slot after foreground and
  /// coverage-floor power are served.
  std::vector<long long> green_units(const SlotContext& ctx,
                                     Joules unit_energy_j) const;
  /// Battery trajectory under the foreground-priority program (no
  /// background tasks), per slot boundary 0..horizon.
  std::vector<Joules> project_battery(const SlotContext& ctx,
                                      std::size_t horizon) const;
  /// Grid-tier cost for slot j (carbon-scaled when carbon-aware).
  /// `carbon_mean` is the horizon mean of ctx.grid_carbon_g_per_kwh,
  /// hoisted out by the caller so a plan is O(h), not O(h²), in it.
  long long brown_cost_for_slot(const SlotContext& ctx, std::size_t j,
                                double carbon_mean) const;
  /// Mean forecast carbon intensity over the horizon (0 when the
  /// policy is not carbon-aware or no forecast is present).
  double horizon_carbon_mean(const SlotContext& ctx) const;
  /// Candidate warm-start potentials for this plan's network, derived
  /// from the previous solve's potentials shifted by the elapsed
  /// slots and clamped edge-type-by-edge-type so every reduced cost
  /// stays non-negative by construction. Returns false when no usable
  /// previous solve exists (first plan, battery mode, time moved
  /// backwards).
  bool build_warm_potentials(const SlotContext& ctx, int n_classes,
                             int h, int slot_base, int g_base,
                             int beyond, int sink);
  /// Records the solved network's potentials for the next plan's warm
  /// start.
  void store_potentials(const SlotContext& ctx, int h, int slot_base,
                        int g_base, int beyond, int sink);

  /// Serves the current slot from the cached multi-slot plan when it
  /// is still valid (no new tasks since planning, within the replan
  /// interval). Returns nullopt when a fresh solve is needed.
  std::optional<SlotDecision> cached_decision(const SlotContext& ctx);

  int horizon_;
  bool greedy_;
  bool replan_every_slot_;
  bool battery_aware_;
  bool carbon_aware_;
  bool aggregate_ = true;
  double solve_ms_total_ = 0.0;
  std::uint64_t plan_cache_hits_ = 0;
  PlanStats plan_stats_;
  SolverTotals solver_totals_;

  // --- sharding (tentpole of PR 9) -----------------------------------
  int shards_ = 1;
  /// This planner's shard id when it is a sub-planner (-1 for the
  /// flat/outer planner); stamped into provenance records.
  int shard_id_ = -1;
  /// One retained planner per shard: each keeps its own flow arena,
  /// warm potentials and plan cache across slots, so sharding composes
  /// with every between-slot reuse path the flat planner has.
  std::vector<std::unique_ptr<GreenMatchPolicy>> shard_planners_;
  std::unique_ptr<ThreadPool> pool_;
  std::uint64_t reconciliation_solves_ = 0;
  IdSet merge_run_set_;  // merge scratch

  // Per-plan supply readback (filled by plan_flow, O(horizon)):
  // unclaimed green headroom and grid draw per horizon slot, consumed
  // by the reconciliation pass of the *parent* planner.
  SlotIndex last_plan_slot_ = -1;
  Joules last_unit_energy_j_ = 0.0;
  std::vector<double> last_green_spare_w_;
  std::vector<long long> last_brown_units_;

  /// The matching network, kept across plan calls as an arena: the
  /// planner rebuilds the edges every solve, but reset() preserves the
  /// edge list, arc array and search scratch allocations, so
  /// steady-state planning is allocation-free (see mincost_flow.hpp).
  MinCostFlow flow_{1};

  /// One aggregated planner node: every member task contributes
  /// `units` source capacity and one unit of per-slot capacity for
  /// slots [0, jmax). Members are pending-pool indices in deadline
  /// order — the order class flow is dealt back out in.
  struct TaskClass {
    long long units = 0;
    std::size_t jmax = 0;
    long long beyond_cap = 0;
    int slot_edge0 = -1;  ///< edge id of class→slot_0 (ids contiguous)
    int beyond_edge = -1;  ///< edge id of class→beyond (provenance)
    std::vector<std::uint32_t> members;
  };
  std::vector<TaskClass> classes_;     // plan scratch
  std::vector<char> run_mask_;         // plan scratch (per task)
  std::vector<char> slot_taken_;       // greedy scratch (per slot)

  // Previous-solve potentials by node role (non-battery networks),
  // consumed by build_warm_potentials on the next plan.
  bool have_potentials_ = false;
  SlotIndex potentials_slot_ = -1;
  long long prev_class_pot_ = 0;
  long long prev_beyond_pot_ = 0;
  long long prev_sink_pot_ = 0;
  std::vector<long long> prev_slot_pot_;
  std::vector<long long> prev_g_pot_;
  std::vector<long long> warm_scratch_;

  // Cached plan state (replan_every_slot_ == false).
  SlotIndex plan_base_ = -1;
  std::unordered_map<storage::TaskId, std::vector<int>> plan_offsets_;
};

}  // namespace gm::core
