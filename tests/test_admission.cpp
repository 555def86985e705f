// Open-system admission fast path: the streaming arrival source (one
// continuous thinning process, invariant under window slicing), the
// cached green-headroom ledger (admit/defer/reject, O(horizon) scans,
// battery reserve credit, forecast patches), and the engine wiring
// (arrival accounting identity, zero solver work on the arrival path,
// manifest replayability). docs/admission.md states the contracts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "audit/audit.hpp"
#include "core/admission.hpp"
#include "core/config_io.hpp"
#include "core/engine.hpp"
#include "obs/recorder.hpp"
#include "util/config_kv.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workload/arrival_stream.hpp"

namespace gm::core {
namespace {

using storage::BackgroundTask;
using workload::ArrivalSpec;
using workload::ArrivalStream;

ArrivalSpec test_spec() {
  ArrivalSpec spec;
  spec.enabled = true;
  spec.rate_per_h = 120.0;
  spec.seed = 99;
  return spec;
}

std::vector<BackgroundTask> pull_all(ArrivalStream& stream,
                                     const std::vector<SimTime>& cuts) {
  std::vector<BackgroundTask> out;
  SimTime t = 0;
  for (SimTime cut : cuts) {
    stream.pull(t, cut, out);
    t = cut;
  }
  return out;
}

void expect_same_tasks(const std::vector<BackgroundTask>& a,
                       const std::vector<BackgroundTask>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].release, b[i].release);
    EXPECT_EQ(a[i].deadline, b[i].deadline);
    EXPECT_EQ(a[i].group, b[i].group);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_DOUBLE_EQ(a[i].work_s, b[i].work_s);
  }
}

TEST(ArrivalStream, SlicingInvariance) {
  const SimTime horizon = 2 * 86400;
  ArrivalStream whole(test_spec(), 64);
  std::vector<BackgroundTask> batch;
  whole.pull(0, horizon, batch);
  ASSERT_GT(batch.size(), 1000u);

  // Hourly slots — the engine's actual access pattern.
  ArrivalStream hourly(test_spec(), 64);
  std::vector<SimTime> cuts;
  for (SimTime t = 3600; t <= horizon; t += 3600) cuts.push_back(t);
  expect_same_tasks(batch, pull_all(hourly, cuts));

  // Ragged windows, including empty ones.
  ArrivalStream ragged(test_spec(), 64);
  expect_same_tasks(
      batch, pull_all(ragged, {1, 1, 7200, 7201, 50000, 86400, horizon}));
}

TEST(ArrivalStream, MatchesBatchNhppThinning) {
  // The stream *is* sample_nhpp run incrementally: identical jumps and
  // acceptance draws against the same forked RNG reproduce the exact
  // arrival instants of one batch call over the full horizon.
  const ArrivalSpec spec = test_spec();
  const SimTime horizon = 86400;
  ArrivalStream stream(spec, 64);
  std::vector<BackgroundTask> tasks;
  stream.pull(0, horizon, tasks);

  Rng batch_rng = Rng(spec.seed).fork(0x51);
  const auto times = sample_nhpp(
      batch_rng, 0.0, static_cast<double>(horizon), stream.rate_max(),
      [&](double t) { return stream.rate_at(t); });
  ASSERT_EQ(tasks.size(), times.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    EXPECT_EQ(tasks[i].release, static_cast<SimTime>(times[i]));
}

TEST(ArrivalStream, SeedDeterminismAndDivergence) {
  ArrivalStream a(test_spec(), 64), b(test_spec(), 64);
  std::vector<BackgroundTask> ta, tb;
  a.pull(0, 86400, ta);
  b.pull(0, 86400, tb);
  expect_same_tasks(ta, tb);

  ArrivalSpec other = test_spec();
  other.seed = 100;
  ArrivalStream c(other, 64);
  std::vector<BackgroundTask> tc;
  c.pull(0, 86400, tc);
  bool differs = tc.size() != ta.size();
  for (std::size_t i = 0; !differs && i < ta.size(); ++i)
    differs = ta[i].release != tc[i].release;
  EXPECT_TRUE(differs);
}

TEST(ArrivalStream, HomogeneousRateMatchesMean) {
  ArrivalSpec spec = test_spec();
  spec.diurnal = false;
  spec.rate_per_h = 60.0;
  ArrivalStream stream(spec, 8);
  std::vector<BackgroundTask> tasks;
  stream.pull(0, 7 * 86400, tasks);
  const double expected = 60.0 * 24 * 7;
  EXPECT_NEAR(static_cast<double>(tasks.size()), expected,
              4.0 * std::sqrt(expected));
  for (const auto& t : tasks) {
    EXPECT_GE(t.id, ArrivalStream::kFirstTaskId);
    EXPECT_GE(t.work_s, 60.0);
    EXPECT_LT(t.group, 8u);
    EXPECT_GT(t.deadline, t.release);
  }
}

// --- controller unit tests -------------------------------------------

AdmissionController::Facts test_facts() {
  AdmissionController::Facts f;
  f.slot_length_s = 3600.0;
  f.node_peak_w = 300.0;
  f.node_idle_floor_w = 100.0;
  f.battery_usable_j = 0.0;
  return f;
}

BackgroundTask arrival(Seconds work_s, SimTime release,
                       Seconds slack_s) {
  BackgroundTask t;
  t.id = ArrivalStream::kFirstTaskId;
  t.release = release;
  t.work_s = work_s;
  t.deadline = release + static_cast<SimTime>(work_s + slack_s);
  t.utilization = 0.5;
  return t;
}

TEST(AdmissionController, AdmitDeferRejectVocabulary) {
  // decide() times itself only while a recorder is installed.
  obs::Recorder recorder{obs::RecorderConfig{}};
  obs::ScopedRecorder install(&recorder);
  AdmissionConfig cfg;
  cfg.horizon_slots = 4;
  cfg.overflow = AdmissionOverflow::kReject;
  // 400 kJ of surplus in slots 0 and 1, nothing after; no baseline.
  AdmissionController ctrl(
      cfg, test_facts(),
      [](SlotIndex s) { return s < 2 ? 4.0e5 : 0.0; },
      [](SlotIndex) { return 0.0; });
  ctrl.begin_slot(0, 0.0);

  // 0.5 util * 200 W spread * 3600 s = 360 kJ: fits slot 0's surplus.
  const auto admit = ctrl.decide(arrival(3600.0, 0, 3600.0), 0);
  EXPECT_EQ(admit.action, AdmissionAction::kAdmit);
  EXPECT_FALSE(admit.overflow);
  EXPECT_EQ(admit.chosen_offset, 0);
  EXPECT_STREQ(admit.reason, "green-headroom");

  // 2 h of work needs 720 kJ; only 440 kJ remain and the deadline
  // (slot 3) is fully visible -> reject under the reject policy.
  const auto reject = ctrl.decide(arrival(2 * 3600.0, 0, 3600.0), 0);
  EXPECT_EQ(reject.action, AdmissionAction::kReject);
  EXPECT_STREQ(reject.reason, "no-headroom");

  // Same shortfall but a deadline past the ledger horizon -> defer
  // (wider future supply may still cover it).
  const auto defer =
      ctrl.decide(arrival(2 * 3600.0, 0, 40 * 3600.0), 0);
  EXPECT_EQ(defer.action, AdmissionAction::kDefer);
  EXPECT_STREQ(defer.reason, "beyond-horizon");

  EXPECT_EQ(ctrl.stats().decisions, 3u);
  EXPECT_EQ(ctrl.stats().admitted, 1u);
  EXPECT_EQ(ctrl.stats().rejected, 1u);
  EXPECT_EQ(ctrl.stats().deferred, 1u);
  EXPECT_EQ(ctrl.latency_us().count(), 3u);
}

TEST(AdmissionController, GridOverflowAdmits) {
  AdmissionConfig cfg;
  cfg.horizon_slots = 4;
  cfg.overflow = AdmissionOverflow::kGrid;
  AdmissionController ctrl(
      cfg, test_facts(), [](SlotIndex) { return 0.0; },
      [](SlotIndex) { return 0.0; });
  ctrl.begin_slot(0, 0.0);
  const auto d = ctrl.decide(arrival(3600.0, 0, 0.0), 0);
  EXPECT_EQ(d.action, AdmissionAction::kAdmit);
  EXPECT_TRUE(d.overflow);
  EXPECT_STREQ(d.reason, "grid-overflow");
  EXPECT_EQ(ctrl.stats().overflow_admits, 1u);
}

TEST(AdmissionController, HeadroomIsConsumedAndLedgerAdvances) {
  AdmissionConfig cfg;
  cfg.horizon_slots = 3;
  cfg.overflow = AdmissionOverflow::kReject;
  AdmissionController ctrl(
      cfg, test_facts(), [](SlotIndex s) { return s == 5 ? 8.0e5 : 4.0e5; },
      [](SlotIndex) { return 1.0e5; });
  ctrl.begin_slot(0, 0.0);
  EXPECT_DOUBLE_EQ(ctrl.headroom_j(0), 3.0e5);
  EXPECT_DOUBLE_EQ(ctrl.headroom_j(3), 0.0);  // outside the ledger

  // 360 kJ spans slot 0 (300 kJ) and part of slot 1.
  const auto d = ctrl.decide(arrival(3600.0, 0, 2 * 3600.0), 0);
  EXPECT_EQ(d.action, AdmissionAction::kAdmit);
  EXPECT_DOUBLE_EQ(ctrl.headroom_j(0), 0.0);
  EXPECT_NEAR(ctrl.headroom_j(1), 3.0e5 - 6.0e4, 1.0);

  // Advancing to slot 4 exposes slot 5's larger supply and drops the
  // consumed history.
  ctrl.begin_slot(4, 0.0);
  EXPECT_EQ(ctrl.base_slot(), 4);
  EXPECT_DOUBLE_EQ(ctrl.headroom_j(4), 3.0e5);
  EXPECT_DOUBLE_EQ(ctrl.headroom_j(5), 7.0e5);

  // A forecast revision patches one slot in O(1).
  ctrl.revise_supply(5, 1.0e5);
  EXPECT_DOUBLE_EQ(ctrl.headroom_j(5), 0.0);
}

TEST(AdmissionController, BatteryReserveCredit) {
  AdmissionConfig cfg;
  cfg.horizon_slots = 2;
  cfg.battery_reserve_soc = 0.5;
  cfg.overflow = AdmissionOverflow::kReject;
  auto facts = test_facts();
  facts.battery_usable_j = 1.0e6;
  AdmissionController ctrl(
      cfg, facts, [](SlotIndex) { return 0.0; },
      [](SlotIndex) { return 0.0; });
  // Stored 0.9 MJ, reserve 0.5 MJ -> 0.4 MJ of credit.
  ctrl.begin_slot(0, 9.0e5);
  EXPECT_DOUBLE_EQ(ctrl.battery_credit_j(), 4.0e5);

  // 360 kJ has no slot headroom but fits the credit.
  const auto d = ctrl.decide(arrival(3600.0, 0, 0.0), 0);
  EXPECT_EQ(d.action, AdmissionAction::kAdmit);
  EXPECT_NEAR(ctrl.battery_credit_j(), 4.0e4, 1.0);

  // The next identical task exceeds the remaining credit -> reject.
  EXPECT_EQ(ctrl.decide(arrival(3600.0, 0, 0.0), 0).action,
            AdmissionAction::kReject);

  // Below-reserve charge never funds admission.
  ctrl.begin_slot(1, 4.0e5);
  EXPECT_DOUBLE_EQ(ctrl.battery_credit_j(), 0.0);
}

TEST(AdmissionController, RebuildCommitmentsReservesForPendingWork) {
  AdmissionConfig cfg;
  cfg.horizon_slots = 2;
  cfg.overflow = AdmissionOverflow::kReject;
  AdmissionController ctrl(
      cfg, test_facts(), [](SlotIndex) { return 5.0e5; },
      [](SlotIndex) { return 0.0; });
  ctrl.begin_slot(0, 0.0);

  // A pending task with 3600 s remaining across both visible slots
  // reserves 180 kJ in each.
  PendingTask p;
  p.task = arrival(3600.0, 0, 3600.0);
  p.remaining_s = 3600.0;
  ctrl.rebuild_commitments({p}, 0);
  EXPECT_NEAR(ctrl.headroom_j(0), 5.0e5 - 1.8e5, 1.0);
  EXPECT_NEAR(ctrl.headroom_j(1), 5.0e5 - 1.8e5, 1.0);

  // Rebuild is idempotent — reconciling twice must not double-book.
  ctrl.rebuild_commitments({p}, 0);
  EXPECT_NEAR(ctrl.headroom_j(0), 5.0e5 - 1.8e5, 1.0);
}

// The ring loop rebuild_commitments ran before it accumulated
// base-relative: each task's share added slot by slot straight into
// the ring (absolute slot modulo horizon). The oracle for its ledger.
std::vector<Joules> reference_commitments(
    const AdmissionController& ctrl, const std::vector<PendingTask>& pending,
    Seconds slot_length_s) {
  const int horizon = ctrl.horizon_slots();
  const SlotIndex base = ctrl.base_slot();
  std::vector<Joules> ring(static_cast<std::size_t>(horizon), 0.0);
  const SlotIndex last_visible = base + horizon - 1;
  for (const PendingTask& p : pending) {
    const Joules need = ctrl.task_energy_j(p.task.utilization, p.remaining_s);
    if (need <= 0.0) continue;
    SlotIndex last = static_cast<SlotIndex>(
        p.task.deadline / static_cast<SimTime>(slot_length_s));
    last = std::min(std::max(last, base), last_visible);
    const SlotIndex width = last - base + 1;
    const Joules share = need / static_cast<double>(width);
    for (SlotIndex s = base; s <= last; ++s)
      ring[static_cast<std::size_t>(s % horizon)] += share;
  }
  return ring;
}

// Seeded pools of overdue, in-window, beyond-horizon and zero-work
// tasks, rebuilt on base slots that wrap the ring, with admissions in
// between that the next rebuild must overwrite: `committed` and
// `headroom_j` equal the ring loop's bit for bit.
TEST(AdmissionController, RebuildCommitmentsMatchesRingLoop) {
  const auto supply = [](SlotIndex s) {
    return 1.0e5 + 3.7e4 * static_cast<double>((s * 7919) % 13);
  };
  const auto baseline = [](SlotIndex s) {
    return 2.0e4 * static_cast<double>((s * 104729) % 5);
  };
  const AdmissionController::Facts facts = test_facts();
  for (const int horizon : {1, 5, 24}) {
    AdmissionConfig cfg;
    cfg.horizon_slots = horizon;
    AdmissionController ctrl(cfg, facts, supply, baseline);
    Rng rng(static_cast<std::uint64_t>(horizon) * 31 + 3);
    for (const SlotIndex base : {SlotIndex{0}, SlotIndex{3}, SlotIndex{7},
                                 SlotIndex{26}, SlotIndex{61}}) {
      ctrl.begin_slot(base, 0.0);
      const auto base_t = static_cast<SimTime>(base) * 3600;
      std::vector<PendingTask> pool(200);
      for (std::size_t i = 0; i < pool.size(); ++i) {
        PendingTask& p = pool[i];
        p.task.id = ArrivalStream::kFirstTaskId + i;
        p.task.utilization = 0.05 + 0.9 * rng.uniform();
        // Deadlines from 30 h overdue to 40 h past the base.
        p.task.deadline =
            std::max<SimTime>(0, base_t - 30 * 3600 +
                                     static_cast<SimTime>(
                                         rng.uniform() * 70 * 3600));
        switch (i % 5) {
          case 0: p.remaining_s = 0.0; break;  // finished work
          case 1: p.task.utilization = 0.0; [[fallthrough]];
          default: p.remaining_s = 60.0 + rng.uniform() * 20000.0;
        }
      }
      ctrl.rebuild_commitments(pool, base_t);
      // Admissions book energy on top of the rebuilt ledger...
      for (int k = 0; k < 3; ++k)
        ctrl.decide(arrival(1800.0, base_t, 4.0 * 3600.0), base_t);
      // ...and the next reconciliation replaces it all.
      ctrl.rebuild_commitments(pool, base_t);
      const auto ring = reference_commitments(ctrl, pool, 3600.0);
      for (SlotIndex s = base; s < base + horizon; ++s) {
        const Joules committed = ring[static_cast<std::size_t>(s % horizon)];
        ASSERT_EQ(ctrl.committed_j(s), committed)
            << "horizon " << horizon << " base " << base << " slot " << s;
        const Joules headroom = std::max(
            0.0, std::max(0.0, supply(s) - baseline(s)) - committed);
        ASSERT_EQ(ctrl.headroom_j(s), headroom)
            << "horizon " << horizon << " base " << base << " slot " << s;
      }
      EXPECT_EQ(ctrl.committed_j(base - 1), 0.0);
      EXPECT_EQ(ctrl.committed_j(base + horizon), 0.0);
    }
  }
}

// --- engine-level tests ----------------------------------------------

ExperimentConfig open_config(double rate_per_h = 60.0) {
  ExperimentConfig config;
  config.cluster.racks = 2;
  config.cluster.nodes_per_rack = 8;
  config.cluster.placement.group_count = 64;
  config.workload = workload::WorkloadSpec::canonical(2, 777);
  config.solar.horizon_days = 8;
  config.battery = energy::BatteryConfig::lithium_ion(kwh_to_j(20));
  config.battery.initial_soc_fraction = 0.5;
  config.arrivals.enabled = true;
  config.arrivals.rate_per_h = rate_per_h;
  config.arrivals.seed = 4242;
  return config;
}

TEST(OpenSystemEngine, ArrivalAccountingIdentityAndAudit) {
  // Scarce supply + reject overflow: the stream offers far more work
  // than the green headroom can fund, so rejections must be booked.
  ExperimentConfig config = open_config(200.0);
  config.panel_area_m2 = 20.0;
  config.admission.overflow = AdmissionOverflow::kReject;
  config.admission.battery_reserve_soc = 0.9;
  SimulationEngine engine(config);
  const auto artifacts = engine.run();
  const auto& q = artifacts.result.qos;

  EXPECT_GT(q.arrivals_generated, 1000u);
  EXPECT_EQ(q.arrivals_generated, engine.arrivals_generated());
  EXPECT_EQ(q.arrivals_generated,
            q.arrivals_admitted + q.arrivals_rejected);
  EXPECT_GT(q.arrivals_rejected, 0u);  // tight reserve forces rejects
  // Admitted arrivals are the only background tasks in open mode, so
  // task accounting covers exactly them.
  EXPECT_EQ(q.tasks_total, q.arrivals_admitted);
  EXPECT_EQ(q.tasks_total, q.tasks_completed + q.tasks_unfinished);

  const auto report = audit::audit_run(engine, artifacts);
  std::ostringstream table;
  report.print(table);
  EXPECT_TRUE(report.passed()) << table.str();
}

TEST(OpenSystemEngine, DeferredArrivalsAreReofferedAndSettled) {
  ExperimentConfig config = open_config();
  // No green supply or battery credit, and slack far past the ledger
  // horizon: every first offer lacks headroom with the deadline still
  // out of sight, so it parks, is re-offered each slot, and settles
  // (grid-overflow admit) once the deadline scrolls into view.
  config.panel_area_m2 = 0.0;
  config.battery = energy::BatteryConfig::lithium_ion(0.0);
  config.arrivals.deadline_slack_s = 30.0 * 3600.0;
  config.admission.horizon_slots = 12;
  SimulationEngine engine(config);
  const auto artifacts = engine.run();
  const auto& q = artifacts.result.qos;
  EXPECT_GT(q.admission_deferrals, 0u);
  EXPECT_GT(q.admission_decisions, q.arrivals_generated);
  EXPECT_EQ(q.arrivals_generated,
            q.arrivals_admitted + q.arrivals_rejected);
}

TEST(OpenSystemEngine, ZeroSolverInvocationsOnArrivalPath) {
  // With a non-planning policy there is no solver at all: thousands
  // of admission decisions happen with SolveStats at exactly zero.
  ExperimentConfig config = open_config(200.0);
  config.policy.kind = PolicyKind::kAsap;
  SimulationEngine engine(config);
  const auto artifacts = engine.run();
  EXPECT_GT(artifacts.result.qos.admission_decisions, 2000u);
  EXPECT_EQ(artifacts.result.scheduler.solver_solves, 0u);

  // With GreenMatch the solver runs once per slot replan — the count
  // must not scale with the arrival rate (40x the arrivals, same
  // number of solves), proving arrivals never trigger a solve.
  auto solves_at = [](double rate) {
    ExperimentConfig c = open_config(rate);
    c.policy.kind = PolicyKind::kGreenMatch;
    SimulationEngine e(c);
    return e.run().result.scheduler.solver_solves;
  };
  const auto low = solves_at(5.0);
  const auto high = solves_at(200.0);
  EXPECT_GT(low, 0u);
  EXPECT_EQ(low, high);
}

TEST(OpenSystemEngine, DecisionLatencyTelemetryIsRecorded) {
  ExperimentConfig config = open_config(200.0);
  SimulationEngine engine(
      config, std::make_shared<obs::Recorder>(obs::RecorderConfig{}));
  const auto artifacts = engine.run();
  ASSERT_NE(engine.admission(), nullptr);
  const auto& s = artifacts.result.scheduler;
  EXPECT_EQ(engine.admission()->latency_us().count(),
            artifacts.result.qos.admission_decisions);
  EXPECT_GT(s.admission_decision_p99_us, 0.0);
  EXPECT_GE(s.admission_decision_p99_us, s.admission_decision_p50_us);
  // The fast-path contract: p99 well under 50 us per decision.
  EXPECT_LT(s.admission_decision_p99_us, 50.0);
}

// Without a recorder decide() reads no clock: the decisions and the
// ledger are the same as with one, and the latency histogram and the
// wall total stay empty.
TEST(OpenSystemEngine, DecisionTelemetryNeedsARecorder) {
  const ExperimentConfig config = open_config(200.0);
  SimulationEngine plain(config);
  SimulationEngine timed(
      config, std::make_shared<obs::Recorder>(obs::RecorderConfig{}));
  const auto a = plain.run();
  const auto b = timed.run();

  const auto& qa = a.result.qos;
  const auto& qb = b.result.qos;
  ASSERT_GT(qa.admission_decisions, 1000u);
  EXPECT_EQ(qa.admission_decisions, qb.admission_decisions);
  EXPECT_EQ(qa.arrivals_admitted, qb.arrivals_admitted);
  EXPECT_EQ(qa.arrivals_rejected, qb.arrivals_rejected);
  EXPECT_EQ(qa.admission_deferrals, qb.admission_deferrals);
  EXPECT_EQ(qa.arrivals_overflow_admits, qb.arrivals_overflow_admits);
  EXPECT_EQ(qa.tasks_completed, qb.tasks_completed);
  EXPECT_EQ(a.result.energy.brown_j, b.result.energy.brown_j);
  const auto& sa = a.ledger.slots();
  const auto& sb = b.ledger.slots();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i)
    ASSERT_EQ(sa[i].demand_j, sb[i].demand_j) << "slot " << i;

  EXPECT_EQ(plain.admission()->latency_us().count(), 0u);
  EXPECT_EQ(plain.admission()->stats().decision_wall_ms, 0.0);
  EXPECT_EQ(a.result.scheduler.admission_decision_wall_ms, 0.0);
  EXPECT_EQ(a.result.scheduler.admission_decision_p99_us, 0.0);
  EXPECT_EQ(timed.admission()->latency_us().count(), qb.admission_decisions);
  EXPECT_GT(b.result.scheduler.admission_decision_wall_ms, 0.0);
}

TEST(OpenSystemEngine, RunsAreDeterministicAndSeedSensitive) {
  const auto run_once = [](std::uint64_t seed) {
    ExperimentConfig config = open_config();
    config.arrivals.seed = seed;
    return run_experiment(config).result;
  };
  const auto a = run_once(4242);
  const auto b = run_once(4242);
  EXPECT_EQ(a.qos.arrivals_generated, b.qos.arrivals_generated);
  EXPECT_EQ(a.qos.arrivals_admitted, b.qos.arrivals_admitted);
  EXPECT_EQ(a.qos.arrivals_rejected, b.qos.arrivals_rejected);
  EXPECT_DOUBLE_EQ(a.energy.brown_j, b.energy.brown_j);

  const auto c = run_once(1);
  EXPECT_NE(a.qos.arrivals_generated, c.qos.arrivals_generated);
}

TEST(OpenSystemEngine, ManifestEchoReplaysIdentically) {
  // The echoed key space carries the whole open-system setup: applying
  // the echo onto canonical defaults reproduces the run exactly, which
  // is what makes arrival streams manifest-replayable.
  ExperimentConfig config = ExperimentConfig::canonical();
  config.workload = workload::WorkloadSpec::canonical(2, 1234);
  config.arrivals.enabled = true;
  config.arrivals.rate_per_h = 90.0;
  config.arrivals.seed = 555;
  config.admission.overflow = AdmissionOverflow::kReject;

  KeyValueConfig kv;
  for (const auto& [key, value] : config_echo(config))
    kv.set(key, value);
  ExperimentConfig replay = ExperimentConfig::canonical();
  apply_config(replay, kv);

  const auto a = run_experiment(config).result;
  const auto b = run_experiment(replay).result;
  EXPECT_EQ(a.qos.arrivals_generated, b.qos.arrivals_generated);
  EXPECT_EQ(a.qos.arrivals_admitted, b.qos.arrivals_admitted);
  EXPECT_EQ(a.qos.tasks_completed, b.qos.tasks_completed);
  EXPECT_DOUBLE_EQ(a.energy.brown_j, b.energy.brown_j);
  EXPECT_DOUBLE_EQ(a.energy.demand_j, b.energy.demand_j);
}

TEST(OpenSystemEngine, ClosedLoopStaysUntouched) {
  ExperimentConfig config = open_config();
  config.arrivals.enabled = false;
  SimulationEngine engine(config);
  const auto artifacts = engine.run();
  EXPECT_EQ(engine.admission(), nullptr);
  const auto& q = artifacts.result.qos;
  EXPECT_EQ(q.arrivals_generated, 0u);
  EXPECT_EQ(q.admission_decisions, 0u);
  EXPECT_GT(q.tasks_total, 0u);  // the pregenerated pool is back
}

}  // namespace
}  // namespace gm::core
