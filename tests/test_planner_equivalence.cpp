// Randomized equivalence suite for the task-class-aggregated
// GreenMatch planner. The aggregated network must be *decision
// equivalent* to the historical one-node-per-task network: identical
// matching objective (flow and cost) on every instance, and — because
// a pending pool whose signatures are all distinct degenerates to the
// per-task network edge for edge — identical decisions there. Warm
// starts must never change the objective either: a warm-started
// replan sequence is compared against cold single-shot solves.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/policies.hpp"
#include "core/shard.hpp"
#include "storage/placement.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace gm::core {
namespace {

constexpr Seconds kSlot = 3600.0;

ClusterFacts test_facts(int total_nodes) {
  ClusterFacts f;
  f.total_nodes = total_nodes;
  f.min_nodes_for_coverage = std::max(2, total_nodes / 4);
  f.task_slots_per_node = 4;
  f.node_idle_floor_w = 120.0;
  f.node_peak_w = 240.0;
  f.slot_length_s = kSlot;
  f.node_boot_energy_j = 18000.0;
  f.max_utilization_per_node = 0.95;
  return f;
}

PendingTask make_task(storage::TaskId id, SimTime deadline,
                      Seconds remaining, double util) {
  PendingTask p;
  p.task.id = id;
  p.task.release = 0;
  p.task.deadline = deadline;
  p.task.work_s = remaining;
  p.task.utilization = util;
  p.task.group = static_cast<storage::GroupId>(id % 16);
  p.remaining_s = remaining;
  return p;
}

/// A random planning instance. `duplicates` skews deadlines/work onto
/// a small set of values so multi-member classes dominate.
SlotContext random_ctx(Rng& rng, int horizon, bool duplicates,
                       bool battery) {
  SlotContext ctx;
  ctx.slot = static_cast<SlotIndex>(rng.uniform_u64(200));
  ctx.start = static_cast<SimTime>(ctx.slot) * kSlot;
  ctx.end = ctx.start + kSlot;
  ctx.green_forecast_w.resize(static_cast<std::size_t>(horizon));
  ctx.foreground_util_forecast.resize(static_cast<std::size_t>(horizon));
  for (int j = 0; j < horizon; ++j) {
    ctx.green_forecast_w[static_cast<std::size_t>(j)] =
        static_cast<Watts>(rng.uniform_u64(4000));
    ctx.foreground_util_forecast[static_cast<std::size_t>(j)] =
        static_cast<double>(rng.uniform_u64(100)) / 50.0;
  }
  ctx.foreground_util = ctx.foreground_util_forecast[0];
  if (rng.uniform_u64(2) == 0) {
    ctx.grid_carbon_g_per_kwh.resize(static_cast<std::size_t>(horizon));
    for (auto& g : ctx.grid_carbon_g_per_kwh)
      g = 100.0 + static_cast<double>(rng.uniform_u64(600));
  }
  if (battery) {
    ctx.battery_usable_capacity_j = 400.0e6;
    ctx.battery_stored_j =
        static_cast<double>(rng.uniform_u64(400)) * 1.0e6;
    ctx.battery_max_charge_w = 20000.0;
    ctx.battery_max_discharge_w = 20000.0;
    ctx.battery_charge_efficiency = 0.9;
  }
  ctx.currently_active_nodes = 4;

  const auto n_tasks = rng.uniform_u64(60);
  for (std::uint64_t i = 0; i < n_tasks; ++i) {
    SimTime deadline;
    Seconds remaining;
    if (duplicates && i > 0 && rng.uniform_u64(3) != 0) {
      // Clone a previous task's planner signature; id and utilization
      // still differ, which the flow network cannot see.
      const auto& prev =
          ctx.pending[rng.uniform_u64(ctx.pending.size())];
      deadline = prev.task.deadline;
      remaining = prev.remaining_s;
    } else {
      deadline = ctx.start +
                 static_cast<SimTime>(rng.uniform_u64(
                     static_cast<std::uint64_t>(3 * horizon) * 3600));
      remaining = 0.25 * kSlot +
                  static_cast<double>(rng.uniform_u64(8 * 3600));
    }
    const double util =
        0.05 + static_cast<double>(rng.uniform_u64(90)) / 100.0;
    ctx.pending.push_back(make_task(static_cast<storage::TaskId>(i),
                                    deadline, remaining, util));
  }
  std::sort(ctx.pending.begin(), ctx.pending.end(),
            [](const PendingTask& a, const PendingTask& b) {
              return a.task.deadline != b.task.deadline
                         ? a.task.deadline < b.task.deadline
                         : a.task.id < b.task.id;
            });
  return ctx;
}

/// One single-shot plan with aggregation on or off; returns the
/// decision, with the solve telemetry in `stats`.
SlotDecision plan_once(const SlotContext& ctx, const ClusterFacts& facts,
                       bool aggregate, bool battery, bool carbon,
                       GreenMatchPolicy::PlanStats* stats) {
  GreenMatchPolicy policy(24, /*greedy=*/false,
                          /*replan_every_slot=*/true, battery, carbon);
  policy.set_aggregation(aggregate);
  policy.initialize(facts);
  const auto decision = policy.decide(ctx);
  *stats = policy.last_plan_stats();
  return decision;
}

void expect_valid_run_set(const SlotContext& ctx,
                          const SlotDecision& decision) {
  std::set<storage::TaskId> pending_ids;
  for (const auto& p : ctx.pending) pending_ids.insert(p.task.id);
  std::set<storage::TaskId> seen;
  for (const auto id : decision.run_tasks) {
    EXPECT_TRUE(pending_ids.count(id)) << "ran a non-pending task";
    EXPECT_TRUE(seen.insert(id).second) << "task ran twice";
  }
}

/// Param: battery network.
class PlannerEquivalence : public ::testing::TestWithParam<bool> {};

// ≥200 random pending sets (125 seeds × duplicate-heavy and
// spread-out variants): the aggregated and per-task networks must
// place the same number of slot-units at the same objective value.
TEST_P(PlannerEquivalence, SameObjectiveAsPerTaskNetwork) {
  const bool battery = GetParam();
  for (std::uint64_t seed = 1; seed <= 125; ++seed) {
    for (const bool duplicates : {false, true}) {
      Rng rng(seed * 7919 + (duplicates ? 1 : 0));
      const int horizon = 4 + static_cast<int>(rng.uniform_u64(21));
      const auto facts =
          test_facts(8 + static_cast<int>(rng.uniform_u64(24)));
      const bool carbon = rng.uniform_u64(2) == 0;
      const auto ctx = random_ctx(rng, horizon, duplicates, battery);

      GreenMatchPolicy::PlanStats agg_stats, ref_stats;
      const auto agg = plan_once(ctx, facts, /*aggregate=*/true,
                                 battery, carbon, &agg_stats);
      const auto ref = plan_once(ctx, facts, /*aggregate=*/false,
                                 battery, carbon, &ref_stats);

      ASSERT_EQ(agg_stats.flow, ref_stats.flow)
          << "seed " << seed << " duplicates " << duplicates;
      ASSERT_EQ(agg_stats.cost, ref_stats.cost)
          << "seed " << seed << " duplicates " << duplicates;
      EXPECT_EQ(agg_stats.tasks, ref_stats.tasks);
      EXPECT_EQ(ref_stats.classes, ref_stats.tasks)
          << "reference must be one class per task";
      EXPECT_LE(agg_stats.classes, agg_stats.tasks);
      EXPECT_LE(agg_stats.network_nodes, ref_stats.network_nodes);
      expect_valid_run_set(ctx, agg);
      expect_valid_run_set(ctx, ref);
      EXPECT_EQ(agg.eco_speed, ref.eco_speed);

      // All-distinct signatures degenerate to the per-task network
      // edge for edge: the decisions must be identical, not merely
      // cost-tied (the solver is deterministic).
      if (agg_stats.classes == agg_stats.tasks) {
        EXPECT_EQ(agg.run_tasks, ref.run_tasks)
            << "seed " << seed << " duplicates " << duplicates;
        EXPECT_EQ(agg.target_active_nodes, ref.target_active_nodes);
      }
    }
  }
}

// Duplicate-heavy pools must actually collapse (otherwise this suite
// exercises nothing).
TEST_P(PlannerEquivalence, DuplicateSignaturesCollapse) {
  const bool battery = GetParam();
  int collapsed = 0, instances = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const auto facts = test_facts(16);
    const auto ctx = random_ctx(rng, 12, /*duplicates=*/true, battery);
    if (ctx.pending.size() < 10) continue;
    GreenMatchPolicy::PlanStats stats;
    plan_once(ctx, facts, /*aggregate=*/true, battery, false, &stats);
    ++instances;
    if (stats.classes < stats.tasks) ++collapsed;
  }
  ASSERT_GT(instances, 5);
  EXPECT_EQ(collapsed, instances);
}

INSTANTIATE_TEST_SUITE_P(SupplyOnlyAndBattery, PlannerEquivalence,
                         ::testing::Bool());

/// Advances a context by one slot: shift forecasts, drift remaining
/// work, occasionally drop a task.
void advance_one_slot(SlotContext& ctx, Rng& rng) {
  ctx.slot += 1;
  ctx.start += kSlot;
  ctx.end += kSlot;
  std::rotate(ctx.green_forecast_w.begin(),
              ctx.green_forecast_w.begin() + 1,
              ctx.green_forecast_w.end());
  for (auto& p : ctx.pending)
    p.remaining_s = std::max(0.25 * kSlot, p.remaining_s - 600.0);
  if (!ctx.pending.empty() && rng.uniform_u64(2) == 0)
    ctx.pending.erase(ctx.pending.begin());
}

/// One decide() of a replanning `policy` must reach the objective of a
/// cold single-shot solve of the same instance.
void expect_matches_cold(GreenMatchPolicy& policy, const SlotContext& ctx,
                         const ClusterFacts& facts, const char* where) {
  const auto decision = policy.decide(ctx);
  const auto stats = policy.last_plan_stats();
  GreenMatchPolicy::PlanStats cold_stats;
  plan_once(ctx, facts, true, false, false, &cold_stats);
  ASSERT_EQ(stats.flow, cold_stats.flow) << where;
  ASSERT_EQ(stats.cost, cold_stats.cost) << where;
  expect_valid_run_set(ctx, decision);
}

// A warm-started replanning sequence must reach the same objective as
// a cold solve of every slot's instance: potentials only steer the
// search, never the optimum.
TEST(PlannerWarmStart, SequenceMatchesColdSolves) {
  const auto facts = test_facts(16);
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Rng rng(seed * 101);
    GreenMatchPolicy warm_policy(24, false, true, false, false);
    warm_policy.initialize(facts);
    SlotContext ctx = random_ctx(rng, 24, /*duplicates=*/true,
                                 /*battery=*/false);
    for (int step = 0; step < 6; ++step) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " step " << step);
      expect_matches_cold(warm_policy, ctx, facts, "sequence");
      if (HasFatalFailure()) return;
      if (step > 0) {
        EXPECT_TRUE(warm_policy.last_plan_stats().warm_start);
      }
      advance_one_slot(ctx, rng);
    }
    EXPECT_GT(warm_policy.warm_accepts(), 0u) << "seed " << seed;
  }
}

// A whole task class vanishing between slots (every member finished
// or was cancelled) removes its class node and shifts the indices of
// the classes behind it. The next plan must still warm-start — the
// shifted seed is clamped per edge type, so it is valid by
// construction — and reach the cold objective.
TEST(PlannerWarmStart, ClassDisappearsBetweenSlots) {
  const auto facts = test_facts(16);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 313);
    SlotContext ctx = random_ctx(rng, 12, /*duplicates=*/true,
                                 /*battery=*/false);
    if (ctx.pending.size() < 8) continue;
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    GreenMatchPolicy policy(24, false, true, false, false);
    policy.initialize(facts);
    expect_matches_cold(policy, ctx, facts, "before removal");
    if (HasFatalFailure()) return;

    // Erase every task sharing the last task's planner signature —
    // with a duplicate-heavy pool that is usually a whole class.
    const SimTime gone_deadline = ctx.pending.back().task.deadline;
    const Seconds gone_remaining = ctx.pending.back().remaining_s;
    std::erase_if(ctx.pending, [&](const PendingTask& p) {
      return p.task.deadline == gone_deadline &&
             p.remaining_s == gone_remaining;
    });
    expect_matches_cold(policy, ctx, facts, "after removal");
    if (HasFatalFailure()) return;
    EXPECT_TRUE(policy.last_plan_stats().warm_start);
  }
}

// All green supply vanishing between slots zeroes the green arcs'
// capacities without touching the network's shape: the next plan must
// warm-start from the previous potentials and reach the cold objective.
TEST(PlannerWarmStart, SupplyEdgeFlipsToZero) {
  const auto facts = test_facts(16);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 517);
    SlotContext ctx = random_ctx(rng, 12, /*duplicates=*/true,
                                 /*battery=*/false);
    if (ctx.pending.empty()) continue;
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    GreenMatchPolicy policy(24, false, true, false, false);
    policy.initialize(facts);
    expect_matches_cold(policy, ctx, facts, "with supply");
    if (HasFatalFailure()) return;

    std::fill(ctx.green_forecast_w.begin(),
              ctx.green_forecast_w.end(), 0.0);
    expect_matches_cold(policy, ctx, facts, "without supply");
    if (HasFatalFailure()) return;
    EXPECT_TRUE(policy.last_plan_stats().warm_start);
  }
}

// ---- sharded planning (PR 9) ----------------------------------------

/// Flat reference plan of `ctx` (aggregated, supply-only) for the
/// sharding comparisons below.
SlotDecision plan_flat(const SlotContext& ctx, const ClusterFacts& facts,
                       GreenMatchPolicy::PlanStats* stats) {
  return plan_once(ctx, facts, /*aggregate=*/true, /*battery=*/false,
                   /*carbon=*/false, stats);
}

// scheduler.shards = 1 must be the flat planner *byte for byte*: the
// dispatch takes the untouched plan_flow path, so every decision and
// every stat of a replanning sequence matches a never-sharded twin.
TEST(PlannerSharding, SingleShardMatchesFlatExactly) {
  const auto facts = test_facts(16);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 977);
    GreenMatchPolicy flat(24, false, true, false, false);
    GreenMatchPolicy sharded(24, false, true, false, false);
    sharded.set_shards(1);
    flat.initialize(facts);
    sharded.initialize(facts);
    SlotContext ctx = random_ctx(rng, 24, /*duplicates=*/true,
                                 /*battery=*/false);
    for (int step = 0; step < 5; ++step) {
      const auto a = flat.decide(ctx);
      const auto b = sharded.decide(ctx);
      ASSERT_EQ(a.run_tasks, b.run_tasks) << "seed " << seed;
      ASSERT_EQ(a.target_active_nodes, b.target_active_nodes);
      ASSERT_EQ(a.eco_speed, b.eco_speed);
      const auto& sa = flat.last_plan_stats();
      const auto& sb = sharded.last_plan_stats();
      ASSERT_EQ(sa.flow, sb.flow);
      ASSERT_EQ(sa.cost, sb.cost);
      ASSERT_EQ(sa.classes, sb.classes);
      ASSERT_EQ(sa.network_nodes, sb.network_nodes);
      advance_one_slot(ctx, rng);
    }
    EXPECT_EQ(sharded.reconciliation_solves(), 0u);
    EXPECT_TRUE(sharded.shard_stats().empty());
  }
}

// partition() is a deterministic disjoint cover: every pending task
// lands in exactly the shard its placement group hashes to (order
// preserved), node counts sum to the fleet, and the scaled supply sums
// back to the original.
TEST(PlannerSharding, PartitionIsDeterministicDisjointCover) {
  const auto facts = test_facts(19);  // deliberately not divisible
  for (const int shards : {2, 3, 8}) {
    Rng rng(41u * static_cast<std::uint64_t>(shards));
    const auto ctx = random_ctx(rng, 12, /*duplicates=*/false,
                                /*battery=*/true);
    const auto problems = shard::partition(ctx, facts, shards);
    ASSERT_EQ(problems.size(), static_cast<std::size_t>(shards));

    int node_sum = 0;
    std::size_t task_sum = 0;
    double green0_sum = 0.0;
    for (const auto& p : problems) {
      node_sum += p.node_count;
      task_sum += p.ctx.pending.size();
      green0_sum += p.ctx.green_forecast_w.empty()
                        ? 0.0
                        : p.ctx.green_forecast_w[0];
      // Membership is the pure group hash, order preserved.
      SimTime prev_deadline = -1;
      for (const auto& t : p.ctx.pending) {
        EXPECT_EQ(storage::shard_of_group(
                      t.task.group,
                      static_cast<std::uint32_t>(shards)),
                  static_cast<std::uint32_t>(p.shard));
        EXPECT_GE(t.task.deadline, prev_deadline);
        prev_deadline = t.task.deadline;
      }
    }
    EXPECT_EQ(node_sum, facts.total_nodes);
    EXPECT_EQ(task_sum, ctx.pending.size());
    if (!ctx.green_forecast_w.empty()) {
      EXPECT_NEAR(green0_sum, ctx.green_forecast_w[0],
                  1e-6 * (1.0 + ctx.green_forecast_w[0]));
    }

    // Deterministic: a second partition is identical.
    const auto again = shard::partition(ctx, facts, shards);
    for (int s = 0; s < shards; ++s) {
      ASSERT_EQ(problems[static_cast<std::size_t>(s)].ctx.pending.size(),
                again[static_cast<std::size_t>(s)].ctx.pending.size());
      ASSERT_EQ(problems[static_cast<std::size_t>(s)].node_count,
                again[static_cast<std::size_t>(s)].node_count);
    }
  }
}

// In decomposable regimes — per-task placement independent because
// supply is never contended (no green anywhere, or green far beyond
// any shard's demand) and capacity is non-binding — the sharded
// objective must equal the flat objective exactly, for any shard
// count: splitting an additively separable problem changes nothing.
TEST(PlannerSharding, DecomposableRegimesMatchFlatObjective) {
  const auto facts = test_facts(64);
  for (const bool abundant : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
      Rng rng(seed * 1481 + (abundant ? 7 : 0));
      SlotContext ctx = random_ctx(rng, 16, /*duplicates=*/true,
                                   /*battery=*/false);
      ctx.grid_carbon_g_per_kwh.clear();
      ctx.foreground_util = 0.0;
      std::fill(ctx.foreground_util_forecast.begin(),
                ctx.foreground_util_forecast.end(), 0.0);
      std::fill(ctx.green_forecast_w.begin(), ctx.green_forecast_w.end(),
                abundant ? 50.0e6 : 0.0);
      if (ctx.pending.empty()) continue;

      GreenMatchPolicy::PlanStats flat_stats;
      const auto flat = plan_flat(ctx, facts, &flat_stats);

      for (const int shards : {2, 4, 8}) {
        GreenMatchPolicy policy(24, false, true, false, false);
        policy.set_shards(shards);
        policy.initialize(facts);
        const auto decision = policy.decide(ctx);
        const auto& merged = policy.last_plan_stats();
        ASSERT_EQ(merged.flow, flat_stats.flow)
            << "seed " << seed << " shards " << shards << " abundant "
            << abundant;
        ASSERT_EQ(merged.cost, flat_stats.cost)
            << "seed " << seed << " shards " << shards << " abundant "
            << abundant;
        EXPECT_EQ(merged.tasks, flat_stats.tasks);
        EXPECT_EQ(decision.eco_speed, flat.eco_speed);
        expect_valid_run_set(ctx, decision);
        EXPECT_EQ(policy.shard_stats().size(),
                  static_cast<std::size_t>(shards));
      }
    }
  }
}

// The reconciliation pass must actually move green across shards: all
// demand hashed into one shard, fleet green sized so the loaded
// shard's proportional share covers well under half of it but the
// whole fleet covers it entirely. Without reconciliation ≥ 1 unit
// goes to the grid (cost ≥ kBrownUnitCost); with it, everything runs
// green and the objective is pure earliness offsets.
TEST(PlannerSharding, ReconciliationReclaimsCrossShardGreen) {
  ClusterFacts facts = test_facts(16);
  facts.min_nodes_for_coverage = 0;  // no committed idle floor
  constexpr int kShards = 4;

  // A group that hashes to shard 0 of 4.
  storage::GroupId group = 0;
  while (storage::shard_of_group(group, kShards) != 0) ++group;

  SlotContext ctx;
  ctx.slot = 3;
  ctx.start = 3 * static_cast<SimTime>(kSlot);
  ctx.end = ctx.start + static_cast<SimTime>(kSlot);
  ctx.green_forecast_w.assign(24, 2400.0);
  ctx.foreground_util_forecast.assign(24, 0.0);
  ctx.foreground_util = 0.0;
  ctx.currently_active_nodes = 16;
  // 8 tasks × 2 slot-units at util 0.5 (unit power 90 W) due in two
  // slots: 720 W of green needed per slot, against a 600 W per-shard
  // proportional share — but 2400 W fleet-wide. Only a cross-shard
  // claim can cover the last ~2 units of each slot.
  for (storage::TaskId id = 0; id < 8; ++id) {
    auto p = make_task(id, ctx.start + 2 * static_cast<SimTime>(kSlot),
                       2.0 * kSlot, 0.5);
    p.task.group = group;
    ctx.pending.push_back(p);
  }

  GreenMatchPolicy policy(24, false, true, false, false);
  policy.set_shards(kShards);
  policy.initialize(facts);
  const auto decision = policy.decide(ctx);
  expect_valid_run_set(ctx, decision);
  EXPECT_GE(policy.reconciliation_solves(), 1u);
  const auto& merged = policy.last_plan_stats();
  EXPECT_EQ(merged.flow, 16);
  // Any grid (1'000'000) or beyond-horizon (400'000) unit would clear
  // this bar; a fully green plan pays only earliness offsets.
  EXPECT_LT(merged.cost, 400'000)
      << "a grid/beyond unit survived reconciliation";
}

// General (contended) instances: sharding is approximate there, but a
// replanning sequence must stay well-formed — valid disjoint run sets,
// all tasks accounted to exactly one shard, and live per-shard
// telemetry.
TEST(PlannerSharding, ContendedSequenceStaysValid) {
  const auto facts = test_facts(24);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 2203);
    GreenMatchPolicy policy(24, false, true, false, false);
    policy.set_shards(4);
    policy.initialize(facts);
    SlotContext ctx = random_ctx(rng, 24, /*duplicates=*/true,
                                 /*battery=*/false);
    for (int step = 0; step < 4; ++step) {
      const auto decision = policy.decide(ctx);
      expect_valid_run_set(ctx, decision);
      advance_one_slot(ctx, rng);
    }
    const auto stats = policy.shard_stats();
    ASSERT_EQ(stats.size(), 4u);
    std::uint64_t solves = 0;
    for (const auto& st : stats) solves += st.solves;
    EXPECT_GT(solves, 0u) << "no shard ever solved";
  }
}

}  // namespace
}  // namespace gm::core
