// Micro-benchmarks (google-benchmark) for the hot components:
// min-cost-flow planner, placement construction, coverage queries,
// power management under churn, battery stepping and the solar model.
//
// `--json=<path>` (stripped before benchmark::Initialize sees argv)
// appends one BenchRecord per benchmark — real time plus every user
// counter — for gm_bench_merge / BENCH_*.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench_support.hpp"
#include "core/engine.hpp"
#include "core/power_manager.hpp"
#include "workload/arrival_stream.hpp"
#include "workload/generator.hpp"
#include "json_report.hpp"
#include "core/mincost_flow.hpp"
#include "energy/battery.hpp"
#include "energy/solar.hpp"
#include "obs/recorder.hpp"
#include "storage/cluster.hpp"
#include "storage/placement_scan.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace gm;

void BM_MinCostFlowAssignment(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  const int slots = 24;
  Rng rng(7);
  for (auto _ : state) {
    core::MinCostFlow f(tasks + slots + 2);
    const int sink = tasks + slots + 1;
    for (int i = 0; i < tasks; ++i) f.add_edge(0, 1 + i, 4, 0);
    for (int i = 0; i < tasks; ++i)
      for (int s = 0; s < slots; ++s)
        f.add_edge(1 + i, 1 + tasks + s, 1,
                   static_cast<long long>(rng.uniform_u64(1000)));
    for (int s = 0; s < slots; ++s)
      f.add_edge(1 + tasks + s, sink, tasks, 0);
    const auto r = f.solve(0, sink);
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_MinCostFlowAssignment)->Arg(32)->Arg(128);

void BM_ChooseActiveSet(benchmark::State& state) {
  storage::ClusterConfig config;
  config.racks = 4;
  config.nodes_per_rack = 16;
  config.placement.group_count = 512;
  config.placement.replication = 3;
  storage::Cluster cluster(config);
  int target = 0;
  for (auto _ : state) {
    target = (target + 7) % 64;
    benchmark::DoNotOptimize(cluster.choose_active_set(target));
  }
}
BENCHMARK(BM_ChooseActiveSet);

void BM_BatteryStep(benchmark::State& state) {
  energy::Battery battery(
      energy::BatteryConfig::lithium_ion(kwh_to_j(40)));
  bool charge = true;
  for (auto _ : state) {
    if (charge)
      benchmark::DoNotOptimize(battery.charge(kwh_to_j(1), 3600.0));
    else
      benchmark::DoNotOptimize(battery.discharge(kwh_to_j(1), 3600.0));
    battery.apply_self_discharge(3600.0);
    charge = !charge;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BatteryStep);

// One short GreenMatch run per iteration; surfaces the planner's CPU
// time (SchedulerReport::plan_solve_ms_total) as a per-run counter so
// regressions in the flow planner show up here, not just in R-Tab-2.
void BM_GreenMatchPlanDay(benchmark::State& state) {
  auto config = core::ExperimentConfig::canonical();
  config.workload.duration_days = 1;
  config.policy.kind = core::PolicyKind::kGreenMatch;
  config.policy.deferral_fraction = 1.0;
  double plan_ms = 0.0;
  double pops = 0.0, augments = 0.0, warm = 0.0;
  for (auto _ : state) {
    const auto r = core::run_experiment(config).result;
    plan_ms += r.scheduler.plan_solve_ms_total;
    pops += static_cast<double>(r.scheduler.solver_dijkstra_pops);
    augments +=
        static_cast<double>(r.scheduler.solver_augmenting_paths);
    warm += static_cast<double>(r.scheduler.warm_accepts);
    benchmark::DoNotOptimize(r.scheduler.plan_solve_ms_total);
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["plan_ms_per_run"] =
      benchmark::Counter(plan_ms / iters);
  // Solver work per run (SolveStats totals): a perf regression that
  // holds wall-time but does more Dijkstra work still shows up here.
  state.counters["dijkstra_pops_per_run"] =
      benchmark::Counter(pops / iters);
  state.counters["augmenting_paths_per_run"] =
      benchmark::Counter(augments / iters);
  state.counters["warm_accepts_per_run"] =
      benchmark::Counter(warm / iters);
}
BENCHMARK(BM_GreenMatchPlanDay)->Unit(benchmark::kMillisecond);

// The massive-fleet scale tier (configs/massive_fleet_week.conf at
// scale 8, configs/colossal_fleet_week.conf at scale 80): `scale`
// multiplies racks, groups, supply, storage and the pending-queue
// depth together, so every tier sits in the same insufficient-solar
// regime while the planner's pool deepens with the fleet. Arg(1) is
// the 1,280-node smoke tier the ctest suite runs; Arg(8) is the
// 10,240-node week the PR5 acceptance numbers quote; Arg(80) is the
// 102,400-node colossal week.
core::ExperimentConfig massive_fleet_config(int scale) {
  auto config = core::ExperimentConfig::canonical();
  config.cluster.racks = 16 * scale;
  config.cluster.nodes_per_rack = 80;
  config.cluster.placement.group_count = 1024 * scale;
  config.workload = workload::WorkloadSpec::canonical(7, 1234);
  config.workload.task_scale = static_cast<double>(scale);
  config.panel_area_m2 = 150.0 * 16.0 * scale;
  config.battery = energy::BatteryConfig::lithium_ion(
      kwh_to_j(50.0 * 16.0 * scale));
  config.policy.kind = core::PolicyKind::kGreenMatch;
  config.policy.deferral_fraction = 1.0;
  return config;
}

// Cluster set-up (rendezvous placement of every group) at the fleet
// tiers: 1,280 nodes / 1,024 groups at Arg(1), 10,240 / 8,192 at
// Arg(8), 102,400 / 81,920 at Arg(80). One build per iteration. The
// label names the scan kernel variant that ran (placement_scan.hpp).
void BM_PlacementBuild(benchmark::State& state) {
  const auto config =
      massive_fleet_config(static_cast<int>(state.range(0))).cluster;
  state.SetLabel(storage::scan_kernel().name);
  for (auto _ : state) {
    storage::Cluster cluster(config);
    benchmark::DoNotOptimize(cluster.node_count());
  }
}
BENCHMARK(BM_PlacementBuild)
    ->Arg(1)
    ->Arg(8)
    ->Arg(80)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// One churn_week slot of power management at the fleet tiers: 34
// fail/recover events (churn_week has ≈7,000 over 204 slots), a read
// of the coverage floor, and apply_target to a seeded target between
// the floor and a quarter of the fleet above it. Recoveries pick a
// random failed node and take over once 1/64 of the fleet is down
// (160 nodes at Arg(8); churn_week averages ≈170 down at once). 204
// iterations replay one week; the cluster is built outside the timed
// loop.
void BM_PowerChurnSlot(benchmark::State& state) {
  const auto config =
      massive_fleet_config(static_cast<int>(state.range(0))).cluster;
  storage::Cluster cluster(config);
  core::PowerManager power(cluster, 1);
  const auto nodes = cluster.node_count();
  Rng rng(42);
  std::vector<storage::NodeId> down;
  SlotIndex slot = 0;
  for (auto _ : state) {
    const SimTime now = slot * 3600;
    for (int e = 0; e < 34; ++e) {
      if (!down.empty() &&
          (down.size() >= nodes / 64 || rng.bernoulli(0.5))) {
        const auto i = rng.uniform_u64(down.size());
        power.recover_node(down[i], now, slot);
        down[i] = down.back();
        down.pop_back();
      } else {
        const auto n = static_cast<storage::NodeId>(rng.uniform_u64(nodes));
        if (power.is_failed(n)) continue;
        power.fail_node(n, now);
        down.push_back(n);
      }
    }
    const int target = power.min_feasible() +
                       static_cast<int>(rng.uniform_u64(nodes / 4));
    benchmark::DoNotOptimize(power.apply_target(slot, target, now));
    ++slot;
  }
}
BENCHMARK(BM_PowerChurnSlot)
    ->Arg(1)
    ->Arg(8)
    ->Iterations(204)
    ->Unit(benchmark::kMicrosecond);

// Workload generation for the canonical week (≈1.93 M foreground
// requests, seed 1234 as in perfbench) over the 8,192 groups of the
// Arg(8) tier. One generation per iteration; the Zipf table is built
// once per process and shared after the first.
void BM_GenerateWorkload(benchmark::State& state) {
  const auto spec = workload::WorkloadSpec::canonical(7, 1234);
  for (auto _ : state) {
    const auto w = workload::generate_workload(spec, 8192);
    benchmark::DoNotOptimize(w.requests.data());
  }
}
BENCHMARK(BM_GenerateWorkload)->Unit(benchmark::kMillisecond);

// One full week per iteration against a trace generated once outside
// the timing loop; plan_ms_per_run isolates the planner from the rest
// of the engine. Iterations are pinned to 1 (a run is seconds long);
// use --benchmark_repetitions for medians.
void BM_GreenMatchPlanWeek(benchmark::State& state) {
  auto config = massive_fleet_config(static_cast<int>(state.range(0)));
  gm::bench::use_shared_workload(config);
  double plan_ms = 0.0;
  for (auto _ : state) {
    const auto r = core::run_experiment(config).result;
    plan_ms += r.scheduler.plan_solve_ms_total;
    benchmark::DoNotOptimize(r.scheduler.plan_solve_ms_total);
  }
  state.counters["plan_ms_per_run"] = benchmark::Counter(
      plan_ms / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_GreenMatchPlanWeek)
    ->Arg(1)
    ->Arg(8)
    ->Arg(80)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The scale ladder through the sharded planner (scheduler.shards = 8,
// the PR9 tentpole): eight per-shard flow networks per slot plus the
// green-headroom reconciliation pass, instead of one fleet-wide
// network. plan_ms_per_run is directly comparable against
// BM_GreenMatchPlanWeek at the same Arg — the sharding win is the
// superlinear term of the flat solve, so it grows with the tier;
// reconciliation_solves_per_run shows how often the residual pass had
// cross-shard headroom worth a re-solve.
void BM_GreenMatchPlanWeekSharded(benchmark::State& state) {
  auto config = massive_fleet_config(static_cast<int>(state.range(0)));
  config.policy.shards = 8;
  gm::bench::use_shared_workload(config);
  double plan_ms = 0.0;
  double reconciliations = 0.0;
  for (auto _ : state) {
    const auto artifacts = core::run_experiment(config);
    const auto& r = artifacts.result;
    plan_ms += r.scheduler.plan_solve_ms_total;
    reconciliations +=
        static_cast<double>(r.scheduler.reconciliation_solves);
    benchmark::DoNotOptimize(r.scheduler.plan_solve_ms_total);
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["plan_ms_per_run"] =
      benchmark::Counter(plan_ms / iters);
  state.counters["reconciliation_solves_per_run"] =
      benchmark::Counter(reconciliations / iters);
}
BENCHMARK(BM_GreenMatchPlanWeekSharded)
    ->Arg(1)
    ->Arg(8)
    ->Arg(80)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The streaming admission fast path (PR10): a massive-fleet week in
// open-system mode, arrivals pouring in at ~150*scale tasks/hour,
// every admit/defer/reject taken by the cached-headroom ledger with
// zero solver work. admission_tasks_per_s is sustained decision
// throughput over the hot-path CPU alone (the slot replans around it
// are the same work the closed-loop engine does and are timed by
// BM_GreenMatchPlanWeek); the latency counters are the per-decision
// wall quantiles. decide() times itself only while a recorder is
// installed, so each run gets a default one (no trace, no profile).
// Compare against BM_AdmissionThroughputNaive at the same Arg for the
// A/B in BENCH_PR10.json.
void BM_AdmissionThroughput(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  auto config = massive_fleet_config(scale);
  gm::bench::use_shared_workload(config);
  config.arrivals.enabled = true;
  config.arrivals.rate_per_h = 150.0 * scale;
  config.arrivals.seed = 9090;
  double decisions = 0.0, wall_ms = 0.0, p50 = 0.0, p99 = 0.0;
  for (auto _ : state) {
    const auto r =
        core::run_experiment(config, std::make_shared<obs::Recorder>(
                                         obs::RecorderConfig{}))
            .result;
    decisions += static_cast<double>(r.qos.admission_decisions);
    wall_ms += r.scheduler.admission_decision_wall_ms;
    p50 = r.scheduler.admission_decision_p50_us;
    p99 = r.scheduler.admission_decision_p99_us;
    benchmark::DoNotOptimize(r.qos.admission_decisions);
  }
  state.counters["admission_tasks_per_s"] =
      benchmark::Counter(wall_ms > 0.0 ? decisions / (wall_ms / 1000.0)
                                       : 0.0);
  state.counters["decision_p50_us"] = benchmark::Counter(p50);
  state.counters["decision_p99_us"] = benchmark::Counter(p99);
}
BENCHMARK(BM_AdmissionThroughput)
    ->Arg(1)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The replan-per-arrival strawman the fast path replaces: every
// arrival re-runs the policy's full slot decision (a MinCostFlow
// solve for GreenMatch) on the live context with the newcomer
// appended. A couple dozen arrivals is plenty to price it — the
// counters carry per-decision wall and the same tasks/sec metric.
void BM_AdmissionThroughputNaive(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  auto config = massive_fleet_config(scale);
  gm::bench::use_shared_workload(config);
  constexpr int kWarmSlots = 24;
  constexpr std::size_t kArrivals = 24;

  workload::ArrivalSpec spec;
  spec.enabled = true;
  spec.rate_per_h = 150.0 * scale;
  spec.seed = 9090;
  std::vector<double> decision_us;
  double wall_ms_total = 0.0;
  for (auto _ : state) {
    core::SimulationEngine engine(config);
    for (SlotIndex s = 0; s < kWarmSlots; ++s) engine.run_slot(s);
    core::SlotContext ctx = engine.observe(kWarmSlots);

    workload::ArrivalStream stream(
        spec, config.cluster.placement.group_count);
    std::vector<storage::BackgroundTask> arrivals;
    stream.pull(0, 7 * 86400, arrivals);
    arrivals.resize(std::min(arrivals.size(), kArrivals));

    auto policy = core::make_policy(config.policy);
    policy->initialize(engine.facts());
    for (const auto& task : arrivals) {
      core::PendingTask p;
      p.task = task;
      p.task.release = ctx.start;
      p.task.deadline = ctx.start + static_cast<SimTime>(
          task.work_s + spec.deadline_slack_s);
      p.remaining_s = task.work_s;
      ctx.pending.push_back(p);
      const auto t0 = std::chrono::steady_clock::now();
      const auto decision = policy->decide(ctx);
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(decision.run_tasks.size());
      const double us =
          std::chrono::duration<double, std::micro>(t1 - t0).count();
      decision_us.push_back(us);
      wall_ms_total += us / 1000.0;
    }
  }
  std::sort(decision_us.begin(), decision_us.end());
  const auto quant = [&](double q) {
    if (decision_us.empty()) return 0.0;
    const auto i = static_cast<std::size_t>(
        q * static_cast<double>(decision_us.size() - 1));
    return decision_us[i];
  };
  state.counters["admission_tasks_per_s"] = benchmark::Counter(
      wall_ms_total > 0.0
          ? static_cast<double>(decision_us.size()) /
                (wall_ms_total / 1000.0)
          : 0.0);
  state.counters["decision_p50_us"] = benchmark::Counter(quant(0.5));
  state.counters["decision_p99_us"] = benchmark::Counter(quant(0.99));
}
BENCHMARK(BM_AdmissionThroughputNaive)
    ->Arg(1)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Cost of GM_OBS_SCOPE when no recorder is installed: one
// thread-local read and a branch. Guards the <2% overhead budget.
void BM_ObsScopeDisabled(benchmark::State& state) {
  for (auto _ : state) {
    GM_OBS_SCOPE("bench.disabled");
    benchmark::DoNotOptimize(obs::current_recorder());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopeDisabled);

// Cost of GM_OBS_SCOPE when a profiling recorder *is* installed.
// Guards the heterogeneous-lookup fast path in PhaseProfiler::record:
// a steady-state hit must not construct a std::string per call.
void BM_ObsScopeProfiled(benchmark::State& state) {
  obs::RecorderConfig config;
  config.profile = true;
  obs::Recorder recorder(config);
  obs::ScopedRecorder install(&recorder);
  for (auto _ : state) {
    GM_OBS_SCOPE("bench.profiled");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopeProfiled);

// Incremental cost of decision provenance: the same one-day GreenMatch
// run with a tracing recorder attached, provenance off vs on. The
// delta between the pair is what --provenance costs end to end
// (per-task decision demux in plan_flow plus JSONL serialization);
// the trace itself goes to /dev/null so disk speed stays out of the
// measurement.
void provenance_run(benchmark::State& state, bool provenance) {
  auto config = core::ExperimentConfig::canonical();
  config.workload.duration_days = 1;
  config.policy.kind = core::PolicyKind::kGreenMatch;
  config.policy.deferral_fraction = 1.0;
  std::uint64_t decisions = 0;
  for (auto _ : state) {
    obs::RecorderConfig rc;
    rc.trace_path = "/dev/null";
    rc.provenance = provenance;
    auto recorder = std::make_shared<obs::Recorder>(rc);
    const auto artifacts = core::run_experiment(config, recorder);
    recorder->finish();
    for (const char* a : {"run", "defer", "beyond", "drop"})
      decisions +=
          recorder->metrics().counter(std::string("decisions.") + a);
    benchmark::DoNotOptimize(artifacts.result.energy.brown_j);
  }
  state.counters["decisions_per_run"] = benchmark::Counter(
      static_cast<double>(decisions) /
      static_cast<double>(state.iterations()));
}

void BM_ProvenanceDisabled(benchmark::State& state) {
  provenance_run(state, false);
}
BENCHMARK(BM_ProvenanceDisabled)->Unit(benchmark::kMillisecond);

void BM_ProvenanceEnabled(benchmark::State& state) {
  provenance_run(state, true);
}
BENCHMARK(BM_ProvenanceEnabled)->Unit(benchmark::kMillisecond);

void BM_SolarPower(benchmark::State& state) {
  energy::SolarConfig config;
  config.horizon_days = 14;
  energy::SolarIrradianceModel model(config);
  SimTime t = 0;
  for (auto _ : state) {
    t = (t + 937) % (14 * 86400);
    benchmark::DoNotOptimize(model.power_w(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolarPower);

// Console output as usual, plus one record per finished benchmark
// (real time and every user counter) appended to the --json report.
class JsonAppendReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonAppendReporter(gm::bench::BenchReportWriter* writer)
      : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    if (!writer_) return;
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const double wall_ms = elapsed_ms();
      const std::string name = run.benchmark_name();
      // The cv aggregate is a dimensionless ratio (stddev/mean);
      // GetAdjustedRealTime would scale it by the time-unit
      // multiplier, recording e.g. 0.004 as ~4 million "ns".
      const bool ratio =
          run.run_type == Run::RT_Aggregate &&
          run.aggregate_unit == benchmark::kPercentage;
      writer_->append({name, "real_time",
                       ratio ? run.real_accumulated_time
                             : run.GetAdjustedRealTime(),
                       ratio ? ""
                             : benchmark::GetTimeUnitString(
                                   run.time_unit),
                       wall_ms, gm::bench::current_git_sha()});
      for (const auto& [counter_name, counter] : run.counters)
        writer_->append({name, counter_name,
                         static_cast<double>(counter.value), "",
                         wall_ms, gm::bench::current_git_sha()});
    }
  }

 private:
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  gm::bench::BenchReportWriter* writer_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

}  // namespace

int main(int argc, char** argv) {
  auto writer = gm::bench::writer_from_args(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonAppendReporter reporter(writer.get());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
