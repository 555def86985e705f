// gm::scenario tests: deterministic stochastic-event generation
// (failure processes, grid spikes, curtailment windows), their energy-
// layer carriers (GridEvent multipliers, ModulatedSource), engine
// integration (a generated failure week passes every audit check), and
// the step/observe/act interface's bit-identity with the legacy slot
// loop and its set semantics for the policy's run ids.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "core/engine.hpp"
#include "core/policy.hpp"
#include "energy/grid.hpp"
#include "energy/supply.hpp"
#include "scenario/scenario.hpp"
#include "util/assert.hpp"

namespace gm {
namespace {

using scenario::CurtailmentConfig;
using scenario::FailureProcess;
using scenario::FailureProcessConfig;
using scenario::GridSpikeConfig;
using scenario::NodeOutage;

constexpr SimTime kWeek = 7 * 24 * 3600;

TEST(FailureProcessGen, DeterministicAndSorted) {
  FailureProcessConfig config;
  config.process = FailureProcess::kPoisson;
  config.mtbf_hours = 48.0;
  config.mttr_hours = 6.0;
  const auto a = scenario::generate_node_outages(config, 32, kWeek);
  const auto b = scenario::generate_node_outages(config, 32, kWeek);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fail_at, b[i].fail_at);
    EXPECT_EQ(a[i].recover_at, b[i].recover_at);
    EXPECT_EQ(a[i].node, b[i].node);
    if (i > 0) { EXPECT_GE(a[i].fail_at, a[i - 1].fail_at); }
  }
}

TEST(FailureProcessGen, PoissonRateMatchesMtbf) {
  FailureProcessConfig config;
  config.process = FailureProcess::kPoisson;
  config.mtbf_hours = 120.0;
  config.mttr_hours = 8.0;
  const int nodes = 200;
  const SimTime horizon = 60 * 24 * 3600;  // 60 days
  const auto outages =
      scenario::generate_node_outages(config, nodes, horizon);
  // Renewal process with mean cycle = MTBF + MTTR.
  const double expected =
      nodes * (static_cast<double>(horizon) / 3600.0) /
      (config.mtbf_hours + config.mttr_hours);
  EXPECT_GT(outages.size(), expected * 0.85);
  EXPECT_LT(outages.size(), expected * 1.15);
}

TEST(FailureProcessGen, WeibullShapeOneMatchesPoissonRate) {
  FailureProcessConfig poisson;
  poisson.process = FailureProcess::kPoisson;
  poisson.mtbf_hours = 72.0;
  FailureProcessConfig weibull = poisson;
  weibull.process = FailureProcess::kWeibull;
  weibull.weibull_shape = 1.0;
  const SimTime horizon = 90 * 24 * 3600;
  const auto np =
      scenario::generate_node_outages(poisson, 100, horizon).size();
  const auto nw =
      scenario::generate_node_outages(weibull, 100, horizon).size();
  // Shape 1 degenerates to the exponential: same mean rate (the draws
  // differ, the statistics agree).
  EXPECT_NEAR(static_cast<double>(nw), static_cast<double>(np),
              0.15 * static_cast<double>(np));
}

TEST(FailureProcessGen, BurstyShapeClustersFailures) {
  FailureProcessConfig config;
  config.process = FailureProcess::kWeibull;
  config.mtbf_hours = 100.0;
  config.weibull_shape = 0.5;
  config.mttr_hours = 2.0;
  const SimTime horizon = 120 * 24 * 3600;
  const auto outages =
      scenario::generate_node_outages(config, 50, horizon);
  ASSERT_GT(outages.size(), 100u);
  // Coefficient of variation of inter-failure gaps (per node) must
  // exceed 1 — the exponential's CV — for a bursty shape < 1.
  double sum = 0.0, sq = 0.0;
  std::size_t n = 0;
  std::vector<SimTime> last(50, -1);
  for (const auto& o : outages) {
    // Gaps measured per node, from recovery to the next failure.
    if (last[o.node] >= 0) {
      const double gap = static_cast<double>(o.fail_at - last[o.node]);
      sum += gap;
      sq += gap * gap;
      ++n;
    }
    last[o.node] = o.recover_at;
  }
  ASSERT_GT(n, 50u);
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_GT(std::sqrt(var) / mean, 1.2);
}

TEST(FailureProcessGen, OutagesWellFormedPerNode) {
  FailureProcessConfig config;
  config.process = FailureProcess::kWeibull;
  config.mtbf_hours = 24.0;
  config.weibull_shape = 0.7;
  config.mttr_hours = 12.0;
  const auto outages =
      scenario::generate_node_outages(config, 16, kWeek);
  std::vector<SimTime> last_recover(16, 0);
  for (const auto& o : outages) {
    EXPECT_LT(o.fail_at, kWeek);
    EXPECT_GT(o.recover_at, o.fail_at);
    // A node cannot fail while already down.
    EXPECT_GE(o.fail_at, last_recover[o.node]);
    last_recover[o.node] = o.recover_at;
  }
}

TEST(FailureProcessGen, FleetGrowthKeepsExistingStreams) {
  FailureProcessConfig config;
  config.process = FailureProcess::kPoisson;
  config.mtbf_hours = 36.0;
  const auto small = scenario::generate_node_outages(config, 8, kWeek);
  const auto large = scenario::generate_node_outages(config, 16, kWeek);
  // Every outage of nodes 0-7 reappears verbatim in the larger fleet.
  std::size_t matched = 0;
  for (const auto& s : small)
    for (const auto& l : large)
      if (l.node == s.node && l.fail_at == s.fail_at &&
          l.recover_at == s.recover_at)
        ++matched;
  EXPECT_EQ(matched, small.size());
}

TEST(FailureProcessGen, NoneAndZeroInputsYieldNothing) {
  FailureProcessConfig config;
  EXPECT_TRUE(
      scenario::generate_node_outages(config, 100, kWeek).empty());
  config.process = FailureProcess::kPoisson;
  EXPECT_TRUE(scenario::generate_node_outages(config, 0, kWeek).empty());
  EXPECT_TRUE(scenario::generate_node_outages(config, 100, 0).empty());
}

TEST(FailureProcessGen, ValidatesConfig) {
  FailureProcessConfig config;
  config.process = FailureProcess::kPoisson;
  config.mtbf_hours = 0.0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.mtbf_hours = 24.0;
  config.weibull_shape = -1.0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  // kNone skips the checks entirely (inert defaults stay valid).
  config.process = FailureProcess::kNone;
  EXPECT_NO_THROW(config.validate());
}

TEST(GridSpikeGen, DeterministicNonOverlappingWindows) {
  GridSpikeConfig config;
  config.rate_per_day = 2.0;
  config.duration_h = 3.0;
  config.carbon_multiplier = 4.0;
  config.price_multiplier = 2.0;
  const auto a = scenario::generate_grid_spikes(config, kWeek);
  const auto b = scenario::generate_grid_spikes(config, kWeek);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_LT(a[i].start, a[i].end);
    EXPECT_DOUBLE_EQ(a[i].carbon_multiplier, 4.0);
    EXPECT_DOUBLE_EQ(a[i].price_multiplier, 2.0);
    if (i > 0) { EXPECT_GE(a[i].start, a[i - 1].end); }
  }
  // ~2 per day over a week, exponential gaps: loose Poisson bounds.
  EXPECT_GT(a.size(), 4u);
  EXPECT_LT(a.size(), 40u);
}

TEST(GridSpikeGen, EventMultiplierAppliesInsideWindowOnly) {
  energy::GridConfig grid = energy::GridConfig::flat(300.0);
  grid.events.push_back({1000, 2000, 4.0, 2.0});
  EXPECT_DOUBLE_EQ(grid.carbon_g_per_kwh_at(500), 300.0);
  EXPECT_DOUBLE_EQ(grid.carbon_g_per_kwh_at(1500), 1200.0);
  EXPECT_DOUBLE_EQ(grid.carbon_g_per_kwh_at(2000), 300.0);  // end exclusive
  EXPECT_DOUBLE_EQ(grid.price_usd_per_kwh_at(1500), 0.24);
  // Overlapping events compound.
  grid.events.push_back({1500, 1800, 3.0, 1.0});
  EXPECT_DOUBLE_EQ(grid.carbon_g_per_kwh_at(1600), 3600.0);
}

TEST(GridSpikeGen, MeterChargesSpikedRates) {
  energy::GridConfig grid = energy::GridConfig::flat(100.0);
  grid.events.push_back({0, 3600, 5.0, 3.0});
  energy::GridMeter meter(grid);
  meter.draw(1800, kwh_to_j(1.0));   // inside the spike
  meter.draw(7200, kwh_to_j(1.0));   // after it
  EXPECT_NEAR(meter.total_carbon_g(), 500.0 + 100.0, 1e-9);
  EXPECT_NEAR(meter.total_cost_usd(), 0.36 + 0.12, 1e-9);
}

TEST(CurtailmentGen, WindowsCarryTheSupplyFraction) {
  CurtailmentConfig config;
  config.rate_per_day = 1.0;
  config.duration_h = 4.0;
  config.supply_fraction = 0.25;
  const auto windows =
      scenario::generate_curtailment_windows(config, kWeek);
  ASSERT_FALSE(windows.empty());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_LT(windows[i].start, windows[i].end);
    EXPECT_DOUBLE_EQ(windows[i].factor, 0.25);
    if (i > 0) { EXPECT_GE(windows[i].start, windows[i - 1].end); }
  }
}

TEST(CurtailmentGen, ModulatedSourceDeratesExactly) {
  auto base = std::make_shared<energy::ConstantSource>(1000.0);
  energy::ModulatedSource source(
      base, {{100, 200, 0.2}, {150, 300, 0.5}});
  EXPECT_DOUBLE_EQ(source.power_w(50), 1000.0);
  EXPECT_DOUBLE_EQ(source.power_w(120), 200.0);
  EXPECT_DOUBLE_EQ(source.power_w(180), 100.0);  // overlap compounds
  EXPECT_DOUBLE_EQ(source.power_w(250), 500.0);
  EXPECT_DOUBLE_EQ(source.power_w(300), 1000.0);
  // energy_j splits at window boundaries: the edges are exact, not
  // smeared by trapezoid steps.
  const double expected = 100 * 1000.0   // [0,100) full
                          + 50 * 200.0   // [100,150) x0.2
                          + 50 * 100.0   // [150,200) x0.1
                          + 100 * 500.0  // [200,300) x0.5
                          + 100 * 1000.0;  // [300,400) full
  EXPECT_NEAR(source.energy_j(0, 400), expected, 1e-6);
}

TEST(ScenarioConfigCheck, AnyReflectsActiveProcesses) {
  scenario::ScenarioConfig config;
  EXPECT_FALSE(config.any());
  config.grid_spikes.rate_per_day = 1.0;
  EXPECT_TRUE(config.any());
  config.grid_spikes.rate_per_day = 0.0;
  config.failures.process = FailureProcess::kWeibull;
  EXPECT_TRUE(config.any());
}

// ------------------------------------------------- engine integration

core::ExperimentConfig scenario_config() {
  core::ExperimentConfig config = core::ExperimentConfig::canonical();
  config.workload.duration_days = 2;
  config.battery = energy::BatteryConfig::lithium_ion(kwh_to_j(40));
  config.battery.initial_soc_fraction = 0.5;
  config.scenario.failures.process = FailureProcess::kPoisson;
  config.scenario.failures.mtbf_hours = 100.0;
  config.scenario.failures.mttr_hours = 6.0;
  config.scenario.grid_spikes.rate_per_day = 2.0;
  config.scenario.curtailment.rate_per_day = 1.0;
  config.scenario.curtailment.supply_fraction = 0.3;
  return config;
}

TEST(ScenarioEngine, GeneratedFailureWeekPassesEveryAuditCheck) {
  const core::ExperimentConfig config = scenario_config();
  core::SimulationEngine engine(config);
  const core::RunArtifacts artifacts = engine.run();
  // The storm actually happened...
  EXPECT_GT(artifacts.result.scheduler.nodes_failed, 0u);
  // ...and all conservation books still close.
  const audit::AuditReport report = audit::audit_run(engine, artifacts);
  EXPECT_GE(report.checks.size(), 18u);
  for (const auto& check : report.checks)
    EXPECT_TRUE(check.passed) << check.name << ": " << check.detail;
  const auto round_trip = audit::config_roundtrip(config);
  EXPECT_TRUE(round_trip.fixed_point);
}

TEST(ScenarioEngine, CurtailmentReducesDeliveredSupply) {
  core::ExperimentConfig config = core::ExperimentConfig::canonical();
  config.workload.duration_days = 2;
  core::SimulationEngine plain(config);
  config.scenario.curtailment.rate_per_day = 3.0;
  config.scenario.curtailment.duration_h = 5.0;
  config.scenario.curtailment.supply_fraction = 0.1;
  core::SimulationEngine curtailed(config);
  const auto a = plain.run();
  const auto b = curtailed.run();
  EXPECT_LT(b.result.energy.green_supply_j,
            a.result.energy.green_supply_j * 0.95);
}

// The step/observe/act decomposition must reproduce run() exactly: an
// external agent holding its own policy instance (initialized with the
// engine's facts) and driving observe -> decide -> act produces a
// bit-identical ledger, completion record, and audit result.
TEST(ScenarioEngine, ObserveActMatchesRunBitExactly) {
  core::ExperimentConfig config = scenario_config();
  config.noisy_forecast = true;  // exercise the forecast path too
  config.forecast_noise.ar1_rho = 0.6;

  core::SimulationEngine legacy(config);
  const core::RunArtifacts want = legacy.run();

  core::SimulationEngine stepped(config);
  auto agent = core::make_policy(config.policy);
  agent->initialize(stepped.facts());
  const SlotIndex n = stepped.total_slots();
  for (SlotIndex slot = 0; slot < n; ++slot) {
    const core::SlotContext& ctx = stepped.observe(slot);
    stepped.act(slot, agent->decide(ctx));
  }
  const core::RunArtifacts got = stepped.finalize();

  const auto& ws = want.ledger.slots();
  const auto& gs = got.ledger.slots();
  ASSERT_EQ(ws.size(), gs.size());
  for (std::size_t i = 0; i < ws.size(); ++i) {
    EXPECT_EQ(ws[i].demand_j, gs[i].demand_j) << "slot " << i;
    EXPECT_EQ(ws[i].green_supply_j, gs[i].green_supply_j) << "slot " << i;
    EXPECT_EQ(ws[i].green_direct_j, gs[i].green_direct_j) << "slot " << i;
    EXPECT_EQ(ws[i].brown_j, gs[i].brown_j) << "slot " << i;
    EXPECT_EQ(ws[i].curtailed_j, gs[i].curtailed_j) << "slot " << i;
    EXPECT_EQ(ws[i].battery_stored_end_j, gs[i].battery_stored_end_j)
        << "slot " << i;
    EXPECT_EQ(want.active_nodes_per_slot[i], got.active_nodes_per_slot[i])
        << "slot " << i;
  }
  EXPECT_EQ(want.result.qos.tasks_completed, got.result.qos.tasks_completed);
  EXPECT_EQ(want.result.qos.deadline_misses, got.result.qos.deadline_misses);
  EXPECT_EQ(want.result.scheduler.nodes_failed,
            got.result.scheduler.nodes_failed);
  EXPECT_EQ(want.result.grid_carbon_g, got.result.grid_carbon_g);
}

// act() treats the policy's run_tasks as a set: reversing it, listing
// every id twice or adding ids no pending task has changes nothing.
// The week has failures (repair tasks from 2e9) and arrivals (from 3e9),
// so the set holds ids from every range the engine mints.
TEST(ScenarioEngine, ActTreatsRunTasksAsASet) {
  core::ExperimentConfig config = scenario_config();
  config.arrivals.enabled = true;
  config.arrivals.rate_per_h = 40.0;
  using Edit = void (*)(std::vector<storage::TaskId>&);
  const auto run_with = [&](Edit edit) {
    core::SimulationEngine engine(config);
    auto agent = core::make_policy(config.policy);
    agent->initialize(engine.facts());
    for (SlotIndex slot = 0; slot < engine.total_slots(); ++slot) {
      core::SlotDecision decision = agent->decide(engine.observe(slot));
      edit(decision.run_tasks);
      engine.act(slot, decision);
    }
    return engine.finalize();
  };
  const core::RunArtifacts want =
      run_with([](std::vector<storage::TaskId>&) {});
  ASSERT_GT(want.result.scheduler.nodes_failed, 0u);
  ASSERT_GT(want.result.qos.arrivals_admitted, 0u);

  const Edit edits[] = {
      [](std::vector<storage::TaskId>& ids) {
        std::reverse(ids.begin(), ids.end());
      },
      [](std::vector<storage::TaskId>& ids) {
        const std::size_t n = ids.size();
        for (std::size_t i = n; i-- > 0;) ids.push_back(ids[i]);
      },
      [](std::vector<storage::TaskId>& ids) {
        ids.insert(ids.begin(), 999'999'999'999ULL);
        ids.push_back(~std::uint64_t{0} - 1);
      },
  };
  for (std::size_t e = 0; e < std::size(edits); ++e) {
    SCOPED_TRACE("edit " + std::to_string(e));
    const core::RunArtifacts got = run_with(edits[e]);
    const auto& ws = want.ledger.slots();
    const auto& gs = got.ledger.slots();
    ASSERT_EQ(ws.size(), gs.size());
    for (std::size_t i = 0; i < ws.size(); ++i) {
      ASSERT_EQ(ws[i].demand_j, gs[i].demand_j) << "slot " << i;
      ASSERT_EQ(ws[i].brown_j, gs[i].brown_j) << "slot " << i;
      ASSERT_EQ(ws[i].battery_stored_end_j, gs[i].battery_stored_end_j)
          << "slot " << i;
    }
    EXPECT_EQ(want.active_nodes_per_slot, got.active_nodes_per_slot);
    const auto& w = want.result.scheduler;
    const auto& g = got.result.scheduler;
    EXPECT_EQ(w.task_migrations, g.task_migrations);
    EXPECT_EQ(w.forced_urgent_runs, g.forced_urgent_runs);
    EXPECT_EQ(w.assignment_failures, g.assignment_failures);
    EXPECT_EQ(w.node_power_ons, g.node_power_ons);
    EXPECT_EQ(w.node_power_offs, g.node_power_offs);
    EXPECT_EQ(w.forced_wakeups, g.forced_wakeups);
    EXPECT_EQ(want.result.qos.tasks_completed, got.result.qos.tasks_completed);
    EXPECT_EQ(want.result.qos.deadline_misses, got.result.qos.deadline_misses);
    EXPECT_EQ(want.result.qos.arrivals_admitted,
              got.result.qos.arrivals_admitted);
  }
}

TEST(ScenarioEngine, ObserveActGuardsMisuse) {
  core::ExperimentConfig config = core::ExperimentConfig::canonical();
  config.workload.duration_days = 1;
  core::SimulationEngine engine(config);
  core::SlotDecision decision;
  EXPECT_THROW(engine.act(0, decision), InvalidArgument);  // no observe
  engine.observe(0);
  EXPECT_THROW(engine.observe(0), InvalidArgument);  // double observe
  engine.act(0, decision);
  EXPECT_THROW(engine.act(0, decision), InvalidArgument);  // stale act
}

}  // namespace
}  // namespace gm
