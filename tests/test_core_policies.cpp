// Scheduler policy unit tests: each policy is driven with synthetic
// SlotContexts so its decision logic is checked in isolation from the
// engine.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/policies.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace gm::core {
namespace {

ClusterFacts test_facts() {
  ClusterFacts f;
  f.total_nodes = 16;
  f.min_nodes_for_coverage = 6;
  f.task_slots_per_node = 4;
  f.node_idle_floor_w = 120.0;
  f.node_peak_w = 240.0;
  f.slot_length_s = 3600.0;
  f.node_boot_energy_j = 18000.0;
  f.max_utilization_per_node = 0.95;
  return f;
}

PendingTask make_task(storage::TaskId id, SimTime release,
                      SimTime deadline, Seconds work,
                      double util = 0.3, std::uint8_t tag = 0) {
  PendingTask p;
  p.task.id = id;
  p.task.release = release;
  p.task.deadline = deadline;
  p.task.work_s = work;
  p.task.utilization = util;
  p.task.group = static_cast<storage::GroupId>(id % 64);
  p.remaining_s = work;
  p.policy_tag = tag;
  return p;
}

SlotContext base_ctx(SimTime start = 0, int horizon = 8) {
  SlotContext ctx;
  ctx.slot = start / 3600;
  ctx.start = start;
  ctx.end = start + 3600;
  ctx.green_forecast_w.assign(horizon, 0.0);
  ctx.foreground_util_forecast.assign(horizon, 0.0);
  ctx.foreground_util = 0.0;
  ctx.currently_active_nodes = 6;
  return ctx;
}

TEST(PolicyFactory, CreatesEveryKind) {
  for (PolicyKind kind :
       {PolicyKind::kAsap, PolicyKind::kOpportunistic,
        PolicyKind::kGreenMatch, PolicyKind::kGreenMatchGreedy,
        PolicyKind::kNightShift}) {
    PolicyConfig config;
    config.kind = kind;
    const auto policy = make_policy(config);
    ASSERT_NE(policy, nullptr);
    EXPECT_STREQ(policy->name(), policy_kind_name(kind));
  }
}

TEST(PolicyConfig, Validation) {
  PolicyConfig c;
  c.deferral_fraction = 1.5;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = PolicyConfig{};
  c.horizon_slots = 0;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = PolicyConfig{};
  c.window_start_h = 20.0;
  c.window_end_h = 10.0;
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(AsapPolicy, RunsEverythingPending) {
  AsapPolicy policy;
  policy.initialize(test_facts());
  SlotContext ctx = base_ctx();
  for (int i = 0; i < 5; ++i)
    ctx.pending.push_back(
        make_task(i, 0, 12 * 3600, 2 * 3600.0));
  const auto d = policy.decide(ctx);
  EXPECT_EQ(d.run_tasks.size(), 5u);
  EXPECT_GE(d.target_active_nodes, 6);  // coverage floor
}

TEST(AsapPolicy, CapsAtClusterCapacity) {
  AsapPolicy policy;
  policy.initialize(test_facts());
  SlotContext ctx = base_ctx();
  // 200 tasks exceed 16 nodes × 4 slots = 64.
  for (int i = 0; i < 200; ++i)
    ctx.pending.push_back(make_task(i, 0, 48 * 3600, 3600.0, 0.1));
  const auto d = policy.decide(ctx);
  EXPECT_LE(d.run_tasks.size(), 64u);
  EXPECT_LE(d.target_active_nodes, 16);
}

TEST(NightShift, RunsOnlyInWindow) {
  NightShiftPolicy policy(9.0, 17.0);
  policy.initialize(test_facts());

  SlotContext night = base_ctx(2 * 3600);  // 02:00
  night.pending.push_back(make_task(1, 0, 48 * 3600, 3600.0));
  EXPECT_TRUE(policy.decide(night).run_tasks.empty());

  SlotContext day = base_ctx(12 * 3600);  // 12:00
  day.pending.push_back(make_task(1, 0, 48 * 3600, 3600.0));
  EXPECT_EQ(policy.decide(day).run_tasks.size(), 1u);
}

TEST(NightShift, UrgentOverridesWindow) {
  NightShiftPolicy policy(9.0, 17.0);
  policy.initialize(test_facts());
  SlotContext night = base_ctx(2 * 3600);
  // Deadline in one hour with one hour of work: zero slack.
  night.pending.push_back(
      make_task(1, 0, night.start + 3600, 3600.0));
  EXPECT_EQ(policy.decide(night).run_tasks.size(), 1u);
}

TEST(Opportunistic, ZeroDeferralActsLikeAsap) {
  OpportunisticPolicy policy(0.0, 1);
  policy.initialize(test_facts());
  SlotContext ctx = base_ctx();
  for (int i = 0; i < 4; ++i) {
    auto t = make_task(i, 0, 24 * 3600, 3600.0);
    t.policy_tag = policy.admit(t.task);  // fraction 0 → never delayed
    ctx.pending.push_back(t);
  }
  EXPECT_EQ(policy.decide(ctx).run_tasks.size(), 4u);
}

TEST(Opportunistic, DelayedTasksWaitForGreen) {
  OpportunisticPolicy policy(1.0, 1);
  policy.initialize(test_facts());
  SlotContext dark = base_ctx();
  dark.green_forecast_w.assign(8, 0.0);
  for (int i = 0; i < 4; ++i)
    dark.pending.push_back(make_task(i, 0, 24 * 3600, 3600.0, 0.3,
                                     OpportunisticPolicy::kTagDelayed));
  EXPECT_TRUE(policy.decide(dark).run_tasks.empty());

  SlotContext sunny = dark;
  sunny.green_forecast_w.assign(8, 50'000.0);  // plenty of green
  EXPECT_EQ(policy.decide(sunny).run_tasks.size(), 4u);
}

TEST(Opportunistic, GreenBudgetLimitsAdmission) {
  OpportunisticPolicy policy(1.0, 1);
  policy.initialize(test_facts());
  SlotContext ctx = base_ctx();
  // Enough green for the idle floor of 6 nodes plus a little dynamic
  // power: only some tasks should join.
  ctx.green_forecast_w.assign(8, 6 * 120.0 + 100.0);
  for (int i = 0; i < 10; ++i)
    ctx.pending.push_back(make_task(i, 0, 24 * 3600, 3600.0, 0.3,
                                    OpportunisticPolicy::kTagDelayed));
  const auto d = policy.decide(ctx);
  EXPECT_LT(d.run_tasks.size(), 10u);
}

TEST(Opportunistic, UrgentDelayedTaskRunsAnyway) {
  OpportunisticPolicy policy(1.0, 1);
  policy.initialize(test_facts());
  SlotContext dark = base_ctx(10 * 3600);
  dark.pending.push_back(make_task(1, 0, 11 * 3600, 3600.0, 0.3,
                                   OpportunisticPolicy::kTagDelayed));
  EXPECT_EQ(policy.decide(dark).run_tasks.size(), 1u);
}

TEST(Opportunistic, AdmitLotteryMatchesFraction) {
  OpportunisticPolicy policy(0.3, 42);
  policy.initialize(test_facts());
  int delayed = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    storage::BackgroundTask t;
    t.id = i;
    delayed += policy.admit(t) == OpportunisticPolicy::kTagDelayed;
  }
  EXPECT_NEAR(static_cast<double>(delayed) / n, 0.3, 0.03);
}

// ------------------------------------------------------- GreenMatch

class GreenMatchBothVariants : public ::testing::TestWithParam<bool> {
 protected:
  GreenMatchPolicy make() const {
    return GreenMatchPolicy(8, GetParam(), true);
  }
};

TEST_P(GreenMatchBothVariants, DefersToGreenerSlot) {
  GreenMatchPolicy policy = make();
  policy.initialize(test_facts());
  SlotContext ctx = base_ctx();
  // Dark now, sunny in 3 slots; task has lots of slack and 1 h work.
  ctx.green_forecast_w = {0.0, 0.0, 0.0, 30'000.0, 30'000.0,
                          0.0, 0.0, 0.0};
  ctx.pending.push_back(make_task(1, 0, 24 * 3600, 3600.0));
  const auto d = policy.decide(ctx);
  EXPECT_TRUE(d.run_tasks.empty());  // waits for the sun
}

TEST_P(GreenMatchBothVariants, RunsNowWhenGreenNow) {
  GreenMatchPolicy policy = make();
  policy.initialize(test_facts());
  SlotContext ctx = base_ctx();
  ctx.green_forecast_w.assign(8, 30'000.0);
  ctx.pending.push_back(make_task(1, 0, 24 * 3600, 3600.0));
  const auto d = policy.decide(ctx);
  EXPECT_EQ(d.run_tasks.size(), 1u);
}

TEST_P(GreenMatchBothVariants, DeadlineForcesBrownRun) {
  GreenMatchPolicy policy = make();
  policy.initialize(test_facts());
  SlotContext ctx = base_ctx();
  ctx.green_forecast_w.assign(8, 0.0);  // never green
  // 2 h of work, deadline in 2 h: must start now despite darkness.
  ctx.pending.push_back(make_task(1, 0, 2 * 3600, 2 * 3600.0));
  const auto d = policy.decide(ctx);
  EXPECT_EQ(d.run_tasks.size(), 1u);
}

TEST_P(GreenMatchBothVariants, SpreadsWorkAcrossGreenCapacity) {
  GreenMatchPolicy policy = make();
  policy.initialize(test_facts());
  SlotContext ctx = base_ctx();
  // Moderate green now: room for only a few concurrent tasks.
  ctx.green_forecast_w.assign(8, 2'000.0);
  for (int i = 0; i < 30; ++i)
    ctx.pending.push_back(make_task(i, 0, 24 * 3600, 3600.0));
  const auto d = policy.decide(ctx);
  EXPECT_LT(d.run_tasks.size(), 30u);
}

TEST_P(GreenMatchBothVariants, OverdueTaskRunsImmediately) {
  GreenMatchPolicy policy = make();
  policy.initialize(test_facts());
  SlotContext ctx = base_ctx(10 * 3600);
  ctx.green_forecast_w.assign(8, 0.0);
  auto t = make_task(1, 0, 9 * 3600, 3600.0);  // already overdue
  ctx.pending.push_back(t);
  EXPECT_EQ(policy.decide(ctx).run_tasks.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(FlowAndGreedy, GreenMatchBothVariants,
                         ::testing::Values(false, true),
                         [](const auto& param_info) {
                           return param_info.param ? "greedy" : "flow";
                         });

TEST(GreenMatch, FlowBeatsOrMatchesGreedyOnBrownCost) {
  // On a scattered forecast the optimal matcher should never choose a
  // worse green placement than the heuristic. We proxy "brown cost"
  // by how many of the chosen-now tasks exceed the current green
  // budget when the current slot is dark but later slots are green.
  GreenMatchPolicy flow(8, false, true), greedy(8, true, true);
  flow.initialize(test_facts());
  greedy.initialize(test_facts());
  SlotContext ctx = base_ctx();
  ctx.green_forecast_w = {500.0, 4'000.0, 500.0, 8'000.0,
                          500.0, 0.0,     0.0,   0.0};
  for (int i = 0; i < 12; ++i)
    ctx.pending.push_back(make_task(i, 0, 8 * 3600, 2 * 3600.0));
  const auto df = flow.decide(ctx);
  const auto dg = greedy.decide(ctx);
  EXPECT_LE(df.run_tasks.size(), dg.run_tasks.size() + 2);
  EXPECT_GT(flow.solve_ms_total(), 0.0);
}

TEST(SchedulerPolicy, NodesForLoadHonorsAllFloors) {
  AsapPolicy policy;
  policy.initialize(test_facts());
  SlotContext ctx = base_ctx();
  ctx.foreground_util = 14.0;  // needs ceil(14/0.95) = 15 nodes
  const auto d = policy.decide(ctx);
  EXPECT_GE(d.target_active_nodes, 15);
  EXPECT_LE(d.target_active_nodes, 16);
}

}  // namespace
}  // namespace gm::core
