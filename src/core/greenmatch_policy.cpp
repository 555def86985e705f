#include <algorithm>
#include <bit>
#include <chrono>
#include <climits>
#include <cmath>
#include <unordered_map>

#include "core/mincost_flow.hpp"
#include "core/policies.hpp"
#include "core/shard.hpp"
#include "obs/recorder.hpp"
#include "util/assert.hpp"
#include "util/math_utils.hpp"
#include "util/thread_pool.hpp"

namespace gm::core {
namespace {

/// Cost of covering one task slot-unit from the grid inside the
/// horizon, and of deferring it past the horizon (unknown greenness:
/// cheaper than certain brown, dearer than certain green). The |j|
/// earliness tiebreak rides on top, so tiers must dominate it.
constexpr long long kBrownUnitCost = 1'000'000;
constexpr long long kBeyondHorizonCost = 400'000;
/// Tiny per-boundary cost on stored energy: prefers direct green over
/// battery round-trips of equal conversion cost, and earlier
/// discharge over hoarding.
constexpr long long kCarryCost = 1;

/// Marginal energy of one task running for one slot: its dynamic power
/// plus an amortized share of the idle floor of the node hosting it.
Joules unit_energy_for(const ClusterFacts& facts,
                       const std::vector<PendingTask>& pending) {
  double mean_util = 0.30;
  if (!pending.empty()) {
    double sum = 0.0;
    for (const auto& p : pending) sum += p.task.utilization;
    mean_util = sum / static_cast<double>(pending.size());
  }
  const Watts spread = facts.node_peak_w - facts.node_idle_floor_w;
  const double amortized_idle =
      facts.task_slots_per_node > 0
          ? facts.node_idle_floor_w /
                static_cast<double>(facts.task_slots_per_node)
          : 0.0;
  return (spread * mean_util + amortized_idle) * facts.slot_length_s;
}

/// Slot-units a task still needs.
long long units_needed(const PendingTask& p, Seconds slot_len) {
  return std::max<long long>(
      1, static_cast<long long>(std::ceil(p.remaining_s / slot_len)));
}

/// Latest horizon slot (exclusive) a task may still use. One slot of
/// safety margin is reserved so that replica-locality or capacity
/// conflicts in the final slot (which the planner's global capacity
/// view cannot see) do not turn directly into deadline misses.
std::size_t feasible_horizon(const PendingTask& p, SimTime start,
                             Seconds slot_len, std::size_t horizon) {
  if (p.task.deadline <= start) return 1;  // overdue: run immediately
  const auto slots_left = static_cast<std::size_t>(std::ceil(
      static_cast<double>(p.task.deadline - start) / slot_len));
  const std::size_t margin = slots_left > 2 ? slots_left - 1 : slots_left;
  return std::min(horizon, std::max<std::size_t>(1, margin));
}

/// Class-signature components small enough to pack into one 64-bit
/// lookup key (24 + 24 + 16 bits). A pathological task outside these
/// ranges simply becomes its own singleton class — grouping is an
/// optimization, never a requirement.
constexpr long long kMaxPackedCap = 1ll << 24;
constexpr std::size_t kMaxPackedHorizon = 1ull << 16;

unsigned long long pack_signature(long long units, std::size_t jmax,
                                  long long beyond_cap) {
  return (static_cast<unsigned long long>(units) << 40) |
         (static_cast<unsigned long long>(beyond_cap) << 16) |
         static_cast<unsigned long long>(jmax);
}

}  // namespace

GreenMatchPolicy::GreenMatchPolicy(int horizon_slots, bool greedy,
                                   bool replan_every_slot,
                                   bool battery_aware, bool carbon_aware)
    : horizon_(horizon_slots),
      greedy_(greedy),
      replan_every_slot_(replan_every_slot),
      battery_aware_(battery_aware),
      carbon_aware_(carbon_aware) {
  GM_CHECK(horizon_slots >= 1, "horizon must be >= 1");
}

// Out of line for the forward-declared ThreadPool member.
GreenMatchPolicy::~GreenMatchPolicy() = default;

void GreenMatchPolicy::set_solver(MinCostFlow::SolverKind kind) {
  flow_.set_solver(kind);
  // Johnson warm potentials belong to the SSP path; drop any retained
  // ones so a later switch back starts from a clean cold solve.
  have_potentials_ = false;
  // Sub-planners inherit the solver at creation; a later switch must
  // rebuild them (their retained solver state is now the wrong kind).
  shard_planners_.clear();
}

void GreenMatchPolicy::set_shards(int shards) {
  GM_CHECK(shards >= 1, "scheduler.shards must be >= 1");
  shards_ = shards;
  shard_planners_.clear();
  pool_.reset();
}

void GreenMatchPolicy::ensure_shard_planners() {
  if (static_cast<int>(shard_planners_.size()) != shards_) {
    shard_planners_.clear();
    shard_planners_.reserve(static_cast<std::size_t>(shards_));
    for (int s = 0; s < shards_; ++s) {
      auto sub = std::make_unique<GreenMatchPolicy>(
          horizon_, /*greedy=*/false, replan_every_slot_, battery_aware_,
          carbon_aware_);
      sub->aggregate_ = aggregate_;
      sub->shard_id_ = s;
      if (flow_.solver() == MinCostFlow::SolverKind::kCostScaling)
        sub->flow_.set_solver(MinCostFlow::SolverKind::kCostScaling);
      shard_planners_.push_back(std::move(sub));
    }
  }
  if (!pool_)
    pool_ = std::make_unique<ThreadPool>(
        std::min<std::size_t>(static_cast<std::size_t>(shards_),
                              std::max(1u, std::thread::hardware_concurrency())));
}

GreenMatchPolicy::SolverTotals GreenMatchPolicy::solver_totals() const {
  SolverTotals t = solver_totals_;
  for (const auto& sub : shard_planners_) {
    const SolverTotals& s = sub->solver_totals_;
    t.solves += s.solves;
    t.dijkstra_runs += s.dijkstra_runs;
    t.dijkstra_pops += s.dijkstra_pops;
    t.dijkstra_relaxations += s.dijkstra_relaxations;
    t.augmenting_paths += s.augmenting_paths;
    t.zero_paths += s.zero_paths;
    t.arena_bytes_peak = std::max(t.arena_bytes_peak, s.arena_bytes_peak);
    t.cs_phases += s.cs_phases;
    t.cs_pushes += s.cs_pushes;
    t.cs_relabels += s.cs_relabels;
    t.cs_price_refinements += s.cs_price_refinements;
    t.cs_global_updates += s.cs_global_updates;
    t.incremental_accepts += s.incremental_accepts;
    t.incremental_rebuilds += s.incremental_rebuilds;
  }
  return t;
}

std::vector<GreenMatchPolicy::ShardStats> GreenMatchPolicy::shard_stats()
    const {
  std::vector<ShardStats> out;
  out.reserve(shard_planners_.size());
  for (std::size_t s = 0; s < shard_planners_.size(); ++s) {
    const GreenMatchPolicy& sub = *shard_planners_[s];
    ShardStats st;
    st.shard = static_cast<int>(s);
    st.solve_ms = sub.solve_ms_total_;
    st.solves = sub.solver_totals_.solves;
    st.last_tasks = sub.plan_stats_.tasks;
    st.last_classes = sub.plan_stats_.classes;
    out.push_back(st);
  }
  return out;
}

double GreenMatchPolicy::horizon_carbon_mean(const SlotContext& ctx) const {
  if (!carbon_aware_ || ctx.grid_carbon_g_per_kwh.empty()) return 0.0;
  double sum = 0.0;
  for (double g : ctx.grid_carbon_g_per_kwh) sum += g;
  return sum / static_cast<double>(ctx.grid_carbon_g_per_kwh.size());
}

long long GreenMatchPolicy::brown_cost_for_slot(const SlotContext& ctx,
                                                std::size_t j,
                                                double carbon_mean) const {
  if (!carbon_aware_ || ctx.grid_carbon_g_per_kwh.empty())
    return kBrownUnitCost;
  // Scale the brown penalty by this slot's carbon intensity relative
  // to the horizon mean, so clean-grid hours become relatively cheap.
  const double g = j < ctx.grid_carbon_g_per_kwh.size()
                       ? ctx.grid_carbon_g_per_kwh[j]
                       : carbon_mean;
  if (carbon_mean <= 0.0) return kBrownUnitCost;
  return static_cast<long long>(
      std::llround(kBrownUnitCost * clamp(g / carbon_mean, 0.2, 5.0)));
}

Watts GreenMatchPolicy::committed_power_w(const SlotContext& ctx,
                                          std::size_t j) const {
  const Watts spread = facts_.node_peak_w - facts_.node_idle_floor_w;
  const double fg =
      j < ctx.foreground_util_forecast.size()
          ? ctx.foreground_util_forecast[j]
          : (ctx.foreground_util_forecast.empty()
                 ? 0.0
                 : ctx.foreground_util_forecast.back());
  const int fg_nodes = nodes_for_load(fg, 0);
  return fg_nodes * facts_.node_idle_floor_w + spread * fg;
}

std::vector<long long> GreenMatchPolicy::green_units(
    const SlotContext& ctx, Joules unit_energy_j) const {
  const auto horizon = static_cast<std::size_t>(
      std::min<std::size_t>(horizon_, ctx.green_forecast_w.size()));
  std::vector<long long> units(horizon, 0);
  for (std::size_t j = 0; j < horizon; ++j) {
    const Joules surplus_j_energy =
        std::max(0.0, (ctx.green_forecast_w[j] - committed_power_w(ctx, j))) *
        facts_.slot_length_s;
    units[j] = static_cast<long long>(surplus_j_energy / unit_energy_j);
  }
  return units;
}

std::vector<Joules> GreenMatchPolicy::project_battery(
    const SlotContext& ctx, std::size_t horizon) const {
  // Battery trajectory if only the committed (foreground + coverage
  // floor) load ran: foreground has priority on stored energy, so the
  // planner may only count on what this projection leaves behind.
  std::vector<Joules> proj(horizon + 1, 0.0);
  proj[0] = ctx.battery_stored_j;
  const double slot_len = facts_.slot_length_s;
  const double sigma = clamp(ctx.battery_charge_efficiency, 0.05, 1.0);
  for (std::size_t j = 0; j < horizon; ++j) {
    const Joules green_e = ctx.green_forecast_w[j] * slot_len;
    const Joules committed_e = committed_power_w(ctx, j) * slot_len;
    Joules stored = proj[j];
    if (green_e >= committed_e) {
      const Joules drawn = std::min(
          {green_e - committed_e, ctx.battery_max_charge_w * slot_len,
           (ctx.battery_usable_capacity_j - stored) / sigma});
      stored += std::max(0.0, drawn) * sigma;
    } else {
      const Joules need = committed_e - green_e;
      stored -= std::min(
          {need, ctx.battery_max_discharge_w * slot_len, stored});
    }
    proj[j + 1] = stored;
  }
  return proj;
}

bool GreenMatchPolicy::build_warm_potentials(const SlotContext& ctx,
                                             int n_classes, int h,
                                             int slot_base, int g_base,
                                             int beyond, int sink) {
  if (!have_potentials_ || h == 0 || prev_slot_pot_.empty()) return false;
  const SlotIndex delta = ctx.slot - potentials_slot_;
  if (delta < 0) return false;  // time moved backwards: state is stale
  const int prev_h = static_cast<int>(prev_slot_pot_.size());

  // The previous solve's potentials, shifted by the elapsed slots
  // (new slot j was old slot j+delta) and clamped per edge type so
  // the non-negative reduced-cost invariant holds by construction:
  //   source → class (cost 0):   π[src] = π[class] = P
  //   class → slot_j (cost j):   π[slot_j] ≤ P + j
  //   slot_j → G_j (cost 0):     π[G_j] ≤ π[slot_j]
  //   class → beyond (cost B):   π[beyond] ≤ P + B
  //   {G_j, beyond, slot_j+brown_j} → sink: π[sink] ≤ all of them
  // The solver re-validates in O(E) and falls back to the cold start
  // if this construction and the real network ever disagree.
  warm_scratch_.assign(static_cast<std::size_t>(sink) + 1, 0);
  const long long P = prev_class_pot_;
  warm_scratch_[0] = P;
  for (int c = 0; c < n_classes; ++c) warm_scratch_[c + 1] = P;
  long long min_g = LLONG_MAX / 4;
  for (int j = 0; j < h; ++j) {
    const int idx =
        std::min(j + static_cast<int>(delta), prev_h - 1);
    const long long ps =
        std::min(prev_slot_pot_[idx], P + static_cast<long long>(j));
    const long long pg = std::min(prev_g_pot_[idx], ps);
    warm_scratch_[static_cast<std::size_t>(slot_base) + j] = ps;
    warm_scratch_[static_cast<std::size_t>(g_base) + j] = pg;
    min_g = std::min(min_g, pg);
  }
  const long long pb =
      std::min(prev_beyond_pot_, P + kBeyondHorizonCost);
  warm_scratch_[static_cast<std::size_t>(beyond)] = pb;
  warm_scratch_[static_cast<std::size_t>(sink)] =
      std::min({prev_sink_pot_, pb, min_g});
  return true;
}

void GreenMatchPolicy::store_potentials(const SlotContext& ctx, int h,
                                        int slot_base, int g_base,
                                        int beyond, int sink) {
  const auto& pot = flow_.potentials();
  if (static_cast<int>(pot.size()) != sink + 1 || h == 0) {
    have_potentials_ = false;
    return;
  }
  prev_slot_pot_.assign(pot.begin() + slot_base,
                        pot.begin() + slot_base + h);
  prev_g_pot_.assign(pot.begin() + g_base, pot.begin() + g_base + h);
  prev_beyond_pot_ = pot[static_cast<std::size_t>(beyond)];
  prev_sink_pot_ = pot[static_cast<std::size_t>(sink)];
  // One shared class-side potential: the min over source and class
  // nodes is the largest value that keeps every source→class reduced
  // cost non-negative next plan (class membership will have changed).
  long long pc = LLONG_MAX / 4;
  for (int v = 0; v < slot_base; ++v)
    pc = std::min(pc, pot[static_cast<std::size_t>(v)]);
  prev_class_pot_ = pc;
  potentials_slot_ = ctx.slot;
  have_potentials_ = true;
}

// The matching network (battery-aware form). Flow goes class → slot →
// supply, where a *class* is the set of pending tasks sharing one
// planner signature (units needed, feasible horizon, beyond-horizon
// capacity) — such tasks are interchangeable to the matcher, so a
// class node with m members carries their combined capacity and the
// solved flow is dealt back to members afterwards (round-robin in
// deadline order; per-slot class flow ≤ m, so members never repeat a
// slot and loads differ by at most one unit). With aggregation
// disabled every task is its own singleton class, which reproduces
// the historical one-node-per-task network edge for edge.
//
// The battery is a time-expanded chain of boundary nodes so a unit
// consumed in slot j can be green that was produced (and stored) in
// any earlier slot k, paying the storage conversion penalty once:
//
//   S → class_c                (members × units slot-units)
//   class_c → slot_j           (cap m_c, cost j: earliness tiebreak)
//   class_c → beyond           (deadline past horizon: deferral,
//                               cap m_c × per-member beyond slots)
//   slot_j → G_j               (direct green use at j)
//   slot_j → B_j               (battery discharge at j, rate-capped)
//   B_j → B_{j-1}              (carry stored energy back to its origin;
//                               cap = usable capacity, tiny cost)
//   B_{k+1} → G_k              (green of slot k charged in, rate-capped,
//                               cost = conversion-loss penalty)
//   B_0 → sink                 (initial state of charge)
//   G_j → sink                 (green production of slot j)
//   slot_j → sink              (grid, cost kBrownUnitCost)
SlotDecision GreenMatchPolicy::plan_flow(const SlotContext& ctx) {
  GM_OBS_SCOPE("policy.plan_flow");
  const auto t0 = std::chrono::steady_clock::now();
  const auto horizon = static_cast<std::size_t>(
      std::min<std::size_t>(horizon_, ctx.green_forecast_w.size()));
  const auto n_tasks = ctx.pending.size();
  const int h = static_cast<int>(horizon);

  const Joules unit_energy = unit_energy_for(facts_, ctx.pending);
  const auto green = green_units(ctx, unit_energy);
  const double carbon_mean = horizon_carbon_mean(ctx);

  const bool battery = battery_aware_ &&
                       ctx.battery_usable_capacity_j > unit_energy;

  const SimTime horizon_end =
      ctx.start + static_cast<SimTime>(horizon * facts_.slot_length_s);

  // Group the pending pool (deadline-sorted) into classes; first
  // occurrence fixes class order, so singleton classes reproduce the
  // per-task build exactly.
  classes_.clear();
  std::unordered_map<unsigned long long, int> lookup;
  if (aggregate_) lookup.reserve(n_tasks * 2);
  long long total_units = 0;
  for (std::size_t i = 0; i < n_tasks; ++i) {
    const auto& p = ctx.pending[i];
    const long long units = units_needed(p, facts_.slot_length_s);
    total_units += units;
    const std::size_t jmax =
        feasible_horizon(p, ctx.start, facts_.slot_length_s, horizon);
    long long beyond_cap = 0;
    if (p.task.deadline > horizon_end) {
      const auto beyond_slots = static_cast<long long>(
          std::floor(static_cast<double>(p.task.deadline - horizon_end) /
                     facts_.slot_length_s));
      if (beyond_slots > 0) beyond_cap = std::min(units, beyond_slots);
    }
    int cls;
    if (aggregate_ && units < kMaxPackedCap &&
        beyond_cap < kMaxPackedCap && jmax < kMaxPackedHorizon) {
      const auto [it, inserted] = lookup.try_emplace(
          pack_signature(units, jmax, beyond_cap),
          static_cast<int>(classes_.size()));
      if (inserted)
        classes_.push_back(TaskClass{units, jmax, beyond_cap, -1, -1, {}});
      cls = it->second;
    } else {
      cls = static_cast<int>(classes_.size());
      classes_.push_back(TaskClass{units, jmax, beyond_cap, -1, -1, {}});
    }
    classes_[static_cast<std::size_t>(cls)].members.push_back(
        static_cast<std::uint32_t>(i));
  }
  const int n_classes = static_cast<int>(classes_.size());
  const bool cost_scaling =
      flow_.solver() == MinCostFlow::SolverKind::kCostScaling;

  // Node layout. Under the cost-scaling solver the class range is
  // padded to a stable bucket (min 64, then powers of two): the
  // slot/green/battery/sink node indices then survive the slot-to-slot
  // jitter in the number of distinct signatures, which is what lets
  // the solver's incremental patch match arcs by endpoint instead of
  // rebuilding cold every slot. Padded nodes carry no arcs, and the
  // default SSP network is byte-identical to previous releases.
  const int class_space =
      cost_scaling
          ? static_cast<int>(std::bit_ceil(
                std::max<unsigned>(64u, static_cast<unsigned>(n_classes))))
          : n_classes;
  const int source = 0;
  const int slot_base = class_space + 1;
  const int g_base = slot_base + h;
  const int b_base = g_base + h;            // B_0 .. B_h (h+1 nodes)
  const int beyond = b_base + (battery ? h + 1 : 0);
  const int sink = beyond + 1;
  flow_.reset(sink + 1);
  MinCostFlow& flow = flow_;

  const long long cap_per_slot =
      static_cast<long long>(facts_.total_nodes) *
      facts_.task_slots_per_node;

  for (int c = 0; c < n_classes; ++c) {
    auto& tc = classes_[static_cast<std::size_t>(c)];
    const auto m = static_cast<long long>(tc.members.size());
    flow.add_edge(source, c + 1, m * tc.units, 0);
    for (std::size_t j = 0; j < tc.jmax; ++j) {
      const int edge =
          flow.add_edge(c + 1, slot_base + static_cast<int>(j), m,
                        static_cast<long long>(j));
      if (j == 0) tc.slot_edge0 = edge;  // ids contiguous per class
    }
    if (tc.beyond_cap > 0)
      tc.beyond_edge = flow.add_edge(c + 1, beyond, m * tc.beyond_cap,
                                     kBeyondHorizonCost);
  }

  // Supply edges come in threes per slot (direct-green, green-supply,
  // grid); the first id anchors provenance lookups of per-slot green
  // flow (slot_j → G_j edge = supply_edge0 + 3j).
  int supply_edge0 = -1;
  for (int j = 0; j < h; ++j) {
    // Direct green at j, then grid.
    const int e =
        flow.add_edge(slot_base + j, g_base + j, cap_per_slot, 0);
    if (j == 0) supply_edge0 = e;
    flow.add_edge(g_base + j, sink, std::min(green[j], cap_per_slot), 0);
    flow.add_edge(slot_base + j, sink, cap_per_slot,
                  brown_cost_for_slot(ctx, static_cast<std::size_t>(j),
                                      carbon_mean));
  }

  if (battery) {
    const double slot_len = facts_.slot_length_s;
    const auto to_units = [&](Joules e) {
      return static_cast<long long>(e / unit_energy);
    };
    const long long discharge_units =
        to_units(ctx.battery_max_discharge_w * slot_len);
    const long long charge_units =
        to_units(ctx.battery_max_charge_w * slot_len);
    const auto projected = project_battery(ctx, horizon);
    // slack[j]: stored energy at boundary j that the fg-priority
    // program never consumes afterwards — safe for tasks to take.
    std::vector<Joules> slack(projected.size());
    Joules running_min = projected.back();
    for (std::size_t j = projected.size(); j-- > 0;) {
      running_min = std::min(running_min, projected[j]);
      slack[j] = running_min;
    }
    const long long initial_units = to_units(slack[0]);
    const double sigma = clamp(ctx.battery_charge_efficiency, 0.05, 1.0);
    const auto store_penalty = static_cast<long long>(
        std::llround((1.0 / sigma - 1.0) * kBrownUnitCost));

    for (int j = 0; j < h; ++j) {
      if (discharge_units > 0)
        flow.add_edge(slot_base + j, b_base + j,
                      std::min(discharge_units, cap_per_slot), 0);
      if (charge_units > 0)
        flow.add_edge(b_base + j + 1, g_base + j, charge_units,
                      store_penalty);
    }
    // Carry capacity across a boundary: room the fg program leaves for
    // task-purpose charge (headroom) plus stored energy the fg program
    // never touches again (slack).
    for (int j = h; j >= 1; --j) {
      const auto idx = static_cast<std::size_t>(j);
      const Joules headroom = std::max(
          0.0, ctx.battery_usable_capacity_j - projected[idx]);
      flow.add_edge(b_base + j, b_base + j - 1,
                    to_units(headroom + slack[idx]), kCarryCost);
    }
    if (initial_units > 0)
      flow.add_edge(b_base + 0, sink, initial_units, 0);
  }

  flow.add_edge(beyond, sink, total_units, 0);

  // The battery chain's capacities depend on the projected state of
  // charge, which the shifted-potential construction cannot bound, so
  // warm starts are limited to the (default) supply-only network. The
  // cost-scaling solver replaces warm potentials wholesale with
  // incremental re-optimization (it retains prices *and* flow inside
  // the solver), so the Johnson-potential path is skipped entirely.
  MinCostFlow::Result solved;
  bool warm = false;
  if (!battery && !cost_scaling &&
      build_warm_potentials(ctx, n_classes, h, slot_base, g_base,
                            beyond, sink)) {
    const auto accepts_before = flow.warm_accepts();
    solved = flow.solve(source, sink, total_units, warm_scratch_);
    warm = flow.warm_accepts() > accepts_before;
  } else {
    solved = flow.solve(source, sink, total_units);
  }
  if (battery || cost_scaling)
    have_potentials_ = false;
  else
    store_potentials(ctx, h, slot_base, g_base, beyond, sink);

  // Solver telemetry: stamp what the solver cannot know, accumulate
  // lifetime totals for the run report.
  {
    MinCostFlow::SolveStats& st = flow_.mutable_last_stats();
    st.classes = static_cast<std::uint64_t>(n_classes);
    ++solver_totals_.solves;
    solver_totals_.dijkstra_runs += st.dijkstra_runs;
    solver_totals_.dijkstra_pops += st.dijkstra_pops;
    solver_totals_.dijkstra_relaxations += st.dijkstra_relaxations;
    solver_totals_.augmenting_paths += st.augmenting_paths;
    solver_totals_.zero_paths += st.zero_paths;
    solver_totals_.cs_phases += st.cs_phases;
    solver_totals_.cs_pushes += st.cs_pushes;
    solver_totals_.cs_relabels += st.cs_relabels;
    solver_totals_.cs_price_refinements += st.cs_price_refinements;
    solver_totals_.cs_global_updates += st.cs_global_updates;
    solver_totals_.incremental_accepts += st.incremental_accepts;
    solver_totals_.incremental_rebuilds += st.incremental_rebuilds;
    solver_totals_.arena_bytes_peak =
        std::max(solver_totals_.arena_bytes_peak, st.arena_bytes);
  }

  // Deal each class's slot-0 flow to its first members in deadline
  // order, then emit the run set in pending order.
  SlotDecision decision;
  run_mask_.assign(n_tasks, 0);
  for (const auto& tc : classes_) {
    if (tc.slot_edge0 < 0) continue;
    const long long f0 = flow.flow_on(tc.slot_edge0);
    for (long long t = 0; t < f0; ++t)
      run_mask_[tc.members[static_cast<std::size_t>(t)]] = 1;
  }
  double util = ctx.foreground_util;
  int count = 0;
  for (std::size_t i = 0; i < n_tasks; ++i) {
    if (run_mask_[i]) {
      decision.run_tasks.push_back(ctx.pending[i].task.id);
      util += ctx.pending[i].task.utilization;
      ++count;
    }
  }
  decision.target_active_nodes = nodes_for_load(util, count);
  decision.eco_speed = green.empty() || green[0] <= 0;

  if (!replan_every_slot_) {
    plan_base_ = ctx.slot;
    plan_offsets_.clear();
    // Full-plan demux: deal each slot's class flow round-robin over
    // the members, starting where the previous slot stopped. Per-slot
    // flow ≤ m keeps the dealt members distinct, and consecutive
    // dealing bounds any member's load by ⌈flow/m⌉ ≤ units. Slot 0
    // starts at member 0, matching the run set above.
    for (const auto& tc : classes_) {
      if (tc.slot_edge0 < 0) continue;
      const std::size_t m = tc.members.size();
      std::size_t rotate = 0;
      for (std::size_t j = 0; j < tc.jmax; ++j) {
        const long long f =
            flow.flow_on(tc.slot_edge0 + static_cast<int>(j));
        for (long long t = 0; t < f; ++t) {
          const auto member =
              tc.members[(rotate + static_cast<std::size_t>(t)) % m];
          plan_offsets_[ctx.pending[member].task.id].push_back(
              static_cast<int>(j));
        }
        rotate = (rotate + static_cast<std::size_t>(f)) % m;
      }
    }
    // Tasks with no in-horizon assignment still belong to the plan
    // (deferred beyond the horizon): record them with no offsets.
    for (const auto& p : ctx.pending)
      plan_offsets_.try_emplace(p.task.id);
  }

  plan_stats_ = PlanStats{solved.flow,
                          solved.cost,
                          static_cast<int>(n_tasks),
                          n_classes,
                          sink + 1,
                          warm,
                          flow_.last_stats().incremental_accepts > 0};

  // Supply readback for the parent planner's cross-shard
  // reconciliation pass: per-slot green headroom the solve left on the
  // table (offered minus taken on the G_j → sink edge, which counts
  // battery-charge draw too) and the grid units it fell back to.
  last_plan_slot_ = ctx.slot;
  last_unit_energy_j_ = unit_energy;
  last_green_spare_w_.assign(horizon, 0.0);
  last_brown_units_.assign(horizon, 0);
  for (int j = 0; j < h; ++j) {
    const auto idx = static_cast<std::size_t>(j);
    const long long offered = std::min(green[idx], cap_per_slot);
    const long long used = flow.flow_on(supply_edge0 + 3 * j + 1);
    last_green_spare_w_[idx] =
        static_cast<double>(std::max<long long>(0, offered - used)) *
        unit_energy / facts_.slot_length_s;
    last_brown_units_[idx] = flow.flow_on(supply_edge0 + 3 * j + 2);
  }

  // Decision provenance: one record per pending task, attributing its
  // fate to the solved network. Opt-in (--provenance) because this
  // re-deals every class's flow; the demux math mirrors the
  // plan_offsets_ block above, but records only each member's *first*
  // assignment and its deal rank.
  if (obs::Recorder* rec = obs::current_recorder();
      rec && rec->provenance()) {
    std::vector<int> first_offset;
    std::vector<int> first_rank;
    for (std::size_t ci = 0; ci < classes_.size(); ++ci) {
      const auto& tc = classes_[ci];
      const std::size_t m = tc.members.size();
      first_offset.assign(m, -1);
      first_rank.assign(m, -1);
      if (tc.slot_edge0 >= 0) {
        std::size_t rotate = 0;
        for (std::size_t j = 0; j < tc.jmax; ++j) {
          const long long f =
              flow.flow_on(tc.slot_edge0 + static_cast<int>(j));
          for (long long t = 0; t < f; ++t) {
            const std::size_t mi =
                (rotate + static_cast<std::size_t>(t)) % m;
            if (first_offset[mi] < 0) {
              first_offset[mi] = static_cast<int>(j);
              first_rank[mi] = static_cast<int>(t);
            }
          }
          rotate = (rotate + static_cast<std::size_t>(f)) % m;
        }
      }
      const long long beyond_flow =
          tc.beyond_edge >= 0 ? flow.flow_on(tc.beyond_edge) : 0;
      for (std::size_t mi = 0; mi < m; ++mi) {
        const PendingTask& p = ctx.pending[tc.members[mi]];
        obs::DecisionSample d;
        d.slot = ctx.slot;
        d.t = ctx.start;
        d.policy = name();
        d.shard = shard_id_;  // -1 (flat planner) is not emitted
        d.task = p.task.id;
        d.class_id = static_cast<std::int64_t>(ci) + 1;  // node id
        d.class_size = static_cast<std::int64_t>(m);
        d.warm_solve = warm;
        d.deadline_slack = static_cast<std::int64_t>(
            std::floor(p.slack(ctx.start) / facts_.slot_length_s));
        const int j = first_offset[mi];
        if (j == 0) {
          d.action = "run";
          d.reason = (!green.empty() && green[0] > 0)
                         ? "green-at-offset"
                         : "brown-at-offset";
        } else if (j > 0) {
          d.action = "defer";
          d.reason = "capacity-or-cost";
        } else if (beyond_flow > 0) {
          d.action = "beyond";
          d.reason = "deferred-beyond-horizon";
          d.brown_cost = static_cast<double>(kBeyondHorizonCost);
        } else {
          d.action = "defer";
          d.reason = "no-feasible-slot";
        }
        if (j >= 0) {
          d.chosen_offset = j;
          d.demux_rank = first_rank[mi];
          // Marginal cost of the assigning path vs the grid
          // alternative at the same slot: class→slot_j costs j either
          // way; the green continuation is free, the grid tier pays
          // the (possibly carbon-scaled) brown penalty.
          d.green_cost = static_cast<double>(j);
          d.brown_cost =
              static_cast<double>(j) +
              static_cast<double>(brown_cost_for_slot(
                  ctx, static_cast<std::size_t>(j), carbon_mean));
          if (supply_edge0 >= 0)
            d.slot_green_flow = static_cast<double>(
                flow.flow_on(supply_edge0 + 3 * j));
        }
        rec->record_decision(d);
      }
    }
  }

  const auto t1 = std::chrono::steady_clock::now();
  solve_ms_total_ +=
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return decision;
}

SlotDecision GreenMatchPolicy::plan_greedy(const SlotContext& ctx) {
  GM_OBS_SCOPE("policy.plan_greedy");
  const auto t0 = std::chrono::steady_clock::now();
  const auto horizon = static_cast<std::size_t>(
      std::min<std::size_t>(horizon_, ctx.green_forecast_w.size()));

  const Joules unit_energy = unit_energy_for(facts_, ctx.pending);
  auto green_left = green_units(ctx, unit_energy);
  // green_left is consumed below; slot 0's original surplus decides
  // eco speed at the end.
  const long long green0 = green_left.empty() ? 0 : green_left[0];
  const long long cap_per_slot =
      static_cast<long long>(facts_.total_nodes) *
      facts_.task_slots_per_node;
  std::vector<long long> cap_left(horizon, cap_per_slot);

  SlotDecision decision;
  double util = ctx.foreground_util;
  int count = 0;

  // Deadline order (pending is pre-sorted). Each task places its
  // required units: green slots first (earliest), then deferral beyond
  // the horizon if the deadline allows, then earliest brown slots.
  // slot_taken_ is the task's chosen-slot bitmap (O(1) membership
  // instead of scanning a chosen list).
  obs::Recorder* rec = obs::current_recorder();
  const bool provenance = rec && rec->provenance();

  for (const auto& p : ctx.pending) {
    long long units = units_needed(p, facts_.slot_length_s);
    const std::size_t jmax =
        feasible_horizon(p, ctx.start, facts_.slot_length_s, horizon);

    slot_taken_.assign(horizon, 0);
    int first_offset = -1;       // provenance: earliest placed slot
    bool first_green = false;    // ... and whether pass 1 placed it
    long long beyond_units = 0;  // provenance: units deferred past h
    // Pass 1: earliest green slots.
    for (std::size_t j = 0; j < jmax && units > 0; ++j) {
      if (green_left[j] > 0 && cap_left[j] > 0) {
        slot_taken_[j] = 1;
        --green_left[j];
        --cap_left[j];
        --units;
        if (first_offset < 0) {
          first_offset = static_cast<int>(j);
          first_green = true;
        }
      }
    }
    // Pass 2: defer beyond horizon when the deadline allows.
    const SimTime horizon_end =
        ctx.start +
        static_cast<SimTime>(horizon * facts_.slot_length_s);
    if (units > 0 && p.task.deadline > horizon_end) {
      const auto beyond_slots = static_cast<long long>(
          std::floor(static_cast<double>(p.task.deadline - horizon_end) /
                     facts_.slot_length_s));
      beyond_units = std::min(units, beyond_slots);
      units -= beyond_units;
    }
    // Pass 3: earliest remaining (brown) slots.
    for (std::size_t j = 0; j < jmax && units > 0; ++j) {
      if (cap_left[j] > 0 && !slot_taken_[j]) {
        slot_taken_[j] = 1;
        --cap_left[j];
        --units;
        if (first_offset < 0) first_offset = static_cast<int>(j);
      }
    }
    if (!slot_taken_.empty() && slot_taken_[0]) {
      decision.run_tasks.push_back(p.task.id);
      util += p.task.utilization;
      ++count;
    }
    if (provenance) {
      obs::DecisionSample d;
      d.slot = ctx.slot;
      d.t = ctx.start;
      d.policy = name();
      d.task = p.task.id;
      d.deadline_slack = static_cast<std::int64_t>(
          std::floor(p.slack(ctx.start) / facts_.slot_length_s));
      if (first_offset == 0) {
        d.action = "run";
        d.reason = first_green ? "green-at-offset" : "brown-at-offset";
      } else if (first_offset > 0) {
        d.action = "defer";
        d.reason = first_green ? "green-at-offset" : "capacity-or-cost";
      } else if (beyond_units > 0) {
        d.action = "beyond";
        d.reason = "deferred-beyond-horizon";
      } else {
        d.action = "defer";
        d.reason = "no-feasible-slot";
      }
      if (first_offset >= 0) d.chosen_offset = first_offset;
      rec->record_decision(d);
    }
  }

  decision.target_active_nodes = nodes_for_load(util, count);
  decision.eco_speed = green_left.empty() || green0 <= 0;
  const auto t1 = std::chrono::steady_clock::now();
  solve_ms_total_ +=
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return decision;
}

std::optional<SlotDecision> GreenMatchPolicy::cached_decision(
    const SlotContext& ctx) {
  if (replan_every_slot_ || greedy_ || plan_base_ < 0) return std::nullopt;
  const SlotIndex offset = ctx.slot - plan_base_;
  const SlotIndex replan_interval = std::max(1, horizon_ / 2);
  if (offset <= 0 || offset >= replan_interval) return std::nullopt;
  // Any task the plan has not seen invalidates the cache.
  for (const auto& p : ctx.pending)
    if (!plan_offsets_.count(p.task.id)) return std::nullopt;

  SlotDecision decision;
  double util = ctx.foreground_util;
  int count = 0;
  for (const auto& p : ctx.pending) {
    const auto& offsets = plan_offsets_.at(p.task.id);
    if (std::find(offsets.begin(), offsets.end(),
                  static_cast<int>(offset)) != offsets.end()) {
      decision.run_tasks.push_back(p.task.id);
      util += p.task.utilization;
      ++count;
    }
  }
  decision.target_active_nodes = nodes_for_load(util, count);
  decision.eco_speed =
      !ctx.green_forecast_w.empty() &&
      ctx.green_forecast_w[0] <= facts_.node_idle_floor_w * 0.01;
  ++plan_cache_hits_;
  return decision;
}

SlotDecision GreenMatchPolicy::plan_sharded(const SlotContext& ctx) {
  GM_OBS_SCOPE("policy.plan_sharded");
  const auto t0 = std::chrono::steady_clock::now();
  ensure_shard_planners();

  auto problems = shard::partition(ctx, facts_, shards_);
  const auto n = problems.size();
  std::vector<SlotDecision> decisions(n);
  const auto solve_one = [&](std::size_t s) {
    GreenMatchPolicy& sub = *shard_planners_[s];
    sub.initialize(problems[s].facts);
    decisions[s] = sub.decide(problems[s].ctx);
  };
  // The obs Recorder is installed thread-locally and is not
  // thread-safe: when one is active (tracing / provenance runs) the
  // shards solve serially on this thread, so every sample lands in
  // the trace and the recorded stream is deterministic. Otherwise the
  // shards fan out on the pool.
  if (obs::current_recorder() != nullptr) {
    for (std::size_t s = 0; s < n; ++s) solve_one(s);
  } else {
    parallel_for(*pool_, n, solve_one);
  }

  // Cross-shard reconciliation: pool the green headroom the per-shard
  // solves left unclaimed this slot and re-offer it, in shard order,
  // to shards that fell back to grid power; each taker re-solves once
  // against its boosted forecast. Claims are capped by the pool and by
  // the taker's own grid draw, so total green never exceeds supply.
  // Shards that answered from their cached plan (no fresh readback
  // this slot) sit the pass out.
  const double slot_len = facts_.slot_length_s;
  std::vector<double> pool_w;
  for (std::size_t s = 0; s < n; ++s) {
    const GreenMatchPolicy& sub = *shard_planners_[s];
    if (sub.last_plan_slot_ != ctx.slot) continue;
    if (sub.last_green_spare_w_.size() > pool_w.size())
      pool_w.resize(sub.last_green_spare_w_.size(), 0.0);
    for (std::size_t j = 0; j < sub.last_green_spare_w_.size(); ++j)
      pool_w[j] += sub.last_green_spare_w_[j];
  }
  for (std::size_t s = 0; s < n; ++s) {
    GreenMatchPolicy& sub = *shard_planners_[s];
    if (sub.last_plan_slot_ != ctx.slot) continue;
    auto& forecast = problems[s].ctx.green_forecast_w;
    bool boosted = false;
    const std::size_t limit =
        std::min({sub.last_brown_units_.size(), forecast.size(),
                  pool_w.size()});
    for (std::size_t j = 0; j < limit; ++j) {
      if (sub.last_brown_units_[j] <= 0 || pool_w[j] <= 0.0) continue;
      const double want_w =
          static_cast<double>(sub.last_brown_units_[j]) *
          sub.last_unit_energy_j_ / slot_len;
      const double claim_w = std::min(pool_w[j], want_w);
      if (claim_w <= 0.0) continue;
      forecast[j] += claim_w;
      pool_w[j] -= claim_w;
      boosted = true;
    }
    if (boosted) {
      ++reconciliation_solves_;
      decisions[s] = sub.plan_flow(problems[s].ctx);
    }
  }

  // Merge. Shard run sets are disjoint by construction (each task
  // lives in exactly one shard); emit them in the global pending
  // order, recompute the node target on the fleet-level facts, and
  // only eco-speed when every shard wants to.
  SlotDecision decision;
  std::size_t shard_runs = 0;
  for (const auto& d : decisions) shard_runs += d.run_tasks.size();
  merge_run_set_.reset(shard_runs);
  for (const auto& d : decisions)
    for (const auto id : d.run_tasks) merge_run_set_.insert(id);
  double util = ctx.foreground_util;
  int count = 0;
  for (const auto& p : ctx.pending) {
    if (merge_run_set_.contains(p.task.id)) {
      decision.run_tasks.push_back(p.task.id);
      util += p.task.utilization;
      ++count;
    }
  }
  decision.target_active_nodes = nodes_for_load(util, count);
  decision.eco_speed = true;
  for (const auto& d : decisions)
    decision.eco_speed = decision.eco_speed && d.eco_speed;

  // Fleet-level view of the last plan: field sums over the shards'
  // most recent solves (warm/incremental if any shard was).
  PlanStats merged;
  for (const auto& sub : shard_planners_) {
    const PlanStats& ps = sub->plan_stats_;
    merged.flow += ps.flow;
    merged.cost += ps.cost;
    merged.tasks += ps.tasks;
    merged.classes += ps.classes;
    merged.network_nodes += ps.network_nodes;
    merged.warm_start = merged.warm_start || ps.warm_start;
    merged.incremental = merged.incremental || ps.incremental;
  }
  plan_stats_ = merged;

  // Wall clock of the whole orchestration — what the slot actually
  // waited. Per-shard CPU accumulates in the sub-planners
  // (shard_stats()), so it is deliberately not added here.
  const auto t1 = std::chrono::steady_clock::now();
  solve_ms_total_ +=
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return decision;
}

SlotDecision GreenMatchPolicy::decide(const SlotContext& ctx) {
  if (shards_ > 1 && !greedy_) return plan_sharded(ctx);
  if (auto cached = cached_decision(ctx)) return *cached;
  return greedy_ ? plan_greedy(ctx) : plan_flow(ctx);
}

}  // namespace gm::core
