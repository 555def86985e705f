#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>

#include "core/config_io.hpp"
#include "core/policies.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace gm::core {

namespace {

/// Horizon the scenario processes must cover: the workload window plus
/// the drain tail (events in the drain still hit the engine).
SimTime scenario_horizon(const ExperimentConfig& config) {
  return config.duration() +
         static_cast<SimTime>(config.max_drain_slots) *
             config.slot_length_s;
}

std::shared_ptr<const energy::PowerSource> build_supply(
    const ExperimentConfig& config) {
  auto composite = std::make_shared<energy::CompositeSource>();
  bool any = false;
  if (!config.solar_trace_csv.empty()) {
    composite->add(std::make_shared<energy::TraceSource>(
        energy::TraceSource::from_csv(config.solar_trace_csv, 3600)));
    any = true;
  } else if (config.panel_area_m2 > 0.0) {
    composite->add(energy::make_pv_array(config.solar,
                                         config.panel_area_m2));
    any = true;
  }
  if (config.use_wind) {
    composite->add(std::make_shared<energy::WindModel>(config.wind));
    any = true;
  }
  if (!any) return std::make_shared<energy::NullSource>();
  // Demand-response curtailment windows derate the whole site feed;
  // wrapping here means the truth source, the forecasters and the
  // precomputed slot energies all see the curtailed supply.
  auto windows = scenario::generate_curtailment_windows(
      config.scenario.curtailment, scenario_horizon(config));
  if (windows.empty()) return composite;
  return std::make_shared<energy::ModulatedSource>(std::move(composite),
                                                   std::move(windows));
}

std::unique_ptr<energy::ForecastProvider> build_forecast(
    const ExperimentConfig& config,
    std::shared_ptr<const energy::PowerSource> supply) {
  if (config.noisy_forecast)
    return std::make_unique<energy::NoisyForecast>(
        std::move(supply), config.forecast_noise, config.slot_length_s);
  return std::make_unique<energy::PerfectForecast>(std::move(supply));
}

/// config.grid with scenario-generated spike events appended. Both the
/// meter and the planner's carbon forecast read the result, so a
/// carbon-aware policy sees the same spike it will be charged for.
energy::GridConfig build_effective_grid(const ExperimentConfig& config) {
  energy::GridConfig grid = config.grid;
  auto spikes = scenario::generate_grid_spikes(
      config.scenario.grid_spikes, scenario_horizon(config));
  grid.events.insert(grid.events.end(), spikes.begin(), spikes.end());
  return grid;
}

}  // namespace

SimulationEngine::SimulationEngine(const ExperimentConfig& config,
                                   std::shared_ptr<obs::Recorder> recorder)
    : config_(config),
      recorder_(std::move(recorder)),
      cluster_(config.cluster),
      workload_(config.preset_workload
                    ? config.preset_workload
                    : std::make_shared<const workload::Workload>(
                          workload::generate_workload(
                              config.workload,
                              config.cluster.placement.group_count))),
      supply_(build_supply(config)),
      forecast_(build_forecast(config, supply_)),
      battery_(config.battery),
      effective_grid_(build_effective_grid(config)),
      grid_(effective_grid_),
      policy_(make_policy(config.policy)),
      power_(cluster_, config.min_dwell_slots),
      router_(cluster_, storage::RouterConfig{}),
      slots_(config.slot_length_s) {
  config_.validate();

  facts_.total_nodes = static_cast<int>(cluster_.node_count());
  facts_.min_nodes_for_coverage = power_.min_feasible();
  facts_.task_slots_per_node = config_.cluster.node.task_slots;
  facts_.node_idle_floor_w = config_.cluster.node.idle_floor_w();
  facts_.node_peak_w = config_.cluster.node.peak_w();
  facts_.slot_length_s = static_cast<Seconds>(config_.slot_length_s);
  facts_.node_boot_energy_j = config_.cluster.node.boot_energy_j();
  facts_.max_utilization_per_node = config_.max_utilization_per_node;
  policy_->initialize(facts_);

  std::sort(config_.node_failures.begin(), config_.node_failures.end(),
            [](const NodeFailureEvent& a, const NodeFailureEvent& b) {
              return a.fail_at < b.fail_at;
            });
  // Merge the explicit failure list with the scenario-generated outage
  // stream; process_failures consumes the merged, sorted list. config_
  // itself stays pristine so the echoed manifest replays exactly
  // (replaying would regenerate the same outages from scenario.*).
  failure_events_ = config_.node_failures;
  for (const auto& o : scenario::generate_node_outages(
           config_.scenario.failures,
           static_cast<int>(cluster_.node_count()),
           scenario_horizon(config_))) {
    NodeFailureEvent e;
    e.fail_at = o.fail_at;
    e.recover_at = o.recover_at;
    e.node = static_cast<storage::NodeId>(o.node);
    failure_events_.push_back(e);
  }
  std::sort(failure_events_.begin(), failure_events_.end(),
            [](const NodeFailureEvent& a, const NodeFailureEvent& b) {
              if (a.fail_at != b.fail_at) return a.fail_at < b.fail_at;
              return a.node < b.node;
            });

  // Precompute per-slot foreground utilization (node-equivalents).
  const auto total_slots = static_cast<std::size_t>(
      config_.duration() / config_.slot_length_s +
      config_.max_drain_slots + 1);
  fg_util_.assign(total_slots, 0.0);
  // In open-system mode the admission ledger may look further ahead
  // than the planner; size the precomputed supply for the deeper of
  // the two. Closed-loop sizing is unchanged.
  const int supply_horizon =
      config_.arrivals.enabled
          ? std::max(config_.policy.horizon_slots,
                     config_.admission.horizon_slots)
          : config_.policy.horizon_slots;
  slot_green_j_.resize(total_slots + supply_horizon + 1);
  for (std::size_t s = 0; s < slot_green_j_.size(); ++s) {
    const SimTime a = static_cast<SimTime>(s) * config_.slot_length_s;
    slot_green_j_[s] = supply_->energy_j(a, a + config_.slot_length_s);
  }

  // Requests are routed in index order (route_requests) and tasks are
  // released in index order (admit_released_tasks), so both must come
  // sorted. The request check rides on the fg_util_ pass.
  const auto& disk = config_.cluster.node.disk;
  SimTime last_arrival = 0;
  for (const auto& r : workload_->requests) {
    GM_CHECK(r.arrival >= last_arrival,
             "workload requests must be sorted by arrival, starting at "
             "0: request " << r.id << " arrives at " << r.arrival
                           << " after " << last_arrival);
    last_arrival = r.arrival;
    const double service =
        disk.avg_seek_s +
        static_cast<double>(r.size_bytes) / disk.bandwidth_bytes_per_s;
    const auto s = static_cast<std::size_t>(slots_.slot_of(r.arrival));
    if (s < fg_util_.size())
      fg_util_[s] += service * config_.foreground_cpu_factor /
                     static_cast<double>(config_.slot_length_s);
  }
  const auto& tasks = workload_->tasks;
  const auto unsorted = std::adjacent_find(
      tasks.begin(), tasks.end(),
      [](const storage::BackgroundTask& a,
         const storage::BackgroundTask& b) { return b.release < a.release; });
  GM_CHECK(unsorted == tasks.end(),
           "workload tasks must be sorted by release: task "
               << std::next(unsorted)->id << " is released at "
               << std::next(unsorted)->release << " after "
               << unsorted->release);

  if (config_.arrivals.enabled) {
    arrival_stream_ = std::make_unique<workload::ArrivalStream>(
        config_.arrivals, config_.cluster.placement.group_count);
    AdmissionController::Facts af;
    af.slot_length_s = facts_.slot_length_s;
    af.node_peak_w = facts_.node_peak_w;
    af.node_idle_floor_w = facts_.node_idle_floor_w;
    af.battery_usable_j = battery_.usable_capacity_j();
    // Ledger inputs: forecast green supply per slot, and the baseline
    // spend the cluster owes regardless of admission (coverage-floor
    // idle energy + foreground dynamic energy).
    admission_ = std::make_unique<AdmissionController>(
        config_.admission, af,
        [this](SlotIndex s) {
          const auto i = static_cast<std::size_t>(s);
          return i < slot_green_j_.size() ? slot_green_j_[i] : 0.0;
        },
        [this](SlotIndex s) {
          const double slot_len =
              static_cast<double>(config_.slot_length_s);
          const Watts spread =
              facts_.node_peak_w - facts_.node_idle_floor_w;
          return power_.min_feasible() * facts_.node_idle_floor_w *
                     slot_len +
                 spread * slot_fg_util(s) * slot_len;
        });
  }

  // Manifest first thing, so even an aborted run leaves its
  // reproduction recipe next to the (partial) trace.
  if (recorder_) {
    obs::ManifestInfo info;
    info.config_echo = config_echo(config_);
    info.policy_name = policy_->name();
    info.workload_seed = config_.workload.seed;
    info.solar_seed = config_.solar.seed;
    info.policy_seed = config_.policy.seed;
    info.slot_length_s = static_cast<double>(config_.slot_length_s);
    info.total_slots = static_cast<std::int64_t>(this->total_slots());
    recorder_->write_manifest(info);
  }
}

void SimulationEngine::admit_released_tasks(SimTime now) {
  // Open-system mode replaces the pregenerated background task pool
  // with the arrival stream (intake_arrivals); repairs, offloads and
  // federation injections are obligations and bypass admission.
  while (!admission_ && next_task_index_ < workload_->tasks.size() &&
         workload_->tasks[next_task_index_].release <= now) {
    PendingTask p;
    p.task = workload_->tasks[next_task_index_++];
    p.remaining_s = p.task.work_s;
    p.policy_tag = policy_->admit(p.task);
    if (trace_events()) trace_task_admit(p.task, now, "workload");
    pending_.push_back(p);
  }
  for (auto& task : router_.drain_offload_tasks()) {
    PendingTask p;
    p.task = task;
    p.remaining_s = task.work_s;
    p.policy_tag = policy_->admit(p.task);
    if (trace_events()) trace_task_admit(p.task, now, "offload");
    pending_.push_back(p);
  }
}

void SimulationEngine::intake_arrivals(SlotIndex slot, SimTime start) {
  GM_OBS_SCOPE("engine.intake_arrivals");
  // Ledger upkeep, none of it on the per-arrival path: advance the
  // ring (O(slots advanced)), patch revised forecasts (O(touched
  // slots)), and reconcile commitments against the live pool now that
  // the previous slot's plan has landed.
  admission_->begin_slot(slot, battery_.stored_j());
  if (config_.noisy_forecast) {
    const SimTime slot_len = config_.slot_length_s;
    for (int j = 0; j < admission_->horizon_slots(); ++j) {
      const SimTime a = start + static_cast<SimTime>(j) * slot_len;
      admission_->revise_supply(
          slot + j, forecast_->forecast_mean_w(start, a, a + slot_len) *
                        static_cast<double>(slot_len));
    }
  }
  admission_->rebuild_commitments(pending_, start);

  // Offer list: parked tasks first (older arrivals get first claim on
  // headroom), then the stream pulled up to this boundary. Arrivals
  // during slot s are decided at the s+1 boundary — the same release
  // <= now convention the closed-loop admit path uses.
  arrival_buf_.clear();
  arrival_buf_.swap(deferred_arrivals_);
  const std::size_t parked = arrival_buf_.size();
  const SimTime cover_to = std::min(start, config_.duration());
  if (cover_to > arrivals_covered_) {
    arrival_stream_->pull(arrivals_covered_, cover_to, arrival_buf_);
    arrivals_covered_ = cover_to;
  }
  arrivals_new_last_slot_ =
      static_cast<std::uint64_t>(arrival_buf_.size() - parked);
  arrivals_generated_ += arrivals_new_last_slot_;

  const bool provenance = recorder_ && recorder_->provenance();
  for (const auto& task : arrival_buf_) {
    const AdmissionDecision d = admission_->decide(task, start);
    if (provenance) {
      obs::DecisionSample sample;
      sample.slot = static_cast<std::int64_t>(slot);
      sample.t = static_cast<double>(start);
      sample.policy = "admission";
      sample.task = static_cast<std::uint64_t>(task.id);
      sample.action = d.action == AdmissionAction::kAdmit  ? "run"
                      : d.action == AdmissionAction::kDefer ? "defer"
                                                            : "drop";
      sample.reason = d.reason;
      sample.chosen_offset = d.chosen_offset;
      sample.deadline_slack = static_cast<std::int64_t>(
          (task.deadline - start) / config_.slot_length_s);
      recorder_->record_decision(sample);
    }
    switch (d.action) {
      case AdmissionAction::kAdmit: {
        PendingTask p;
        p.task = task;
        p.remaining_s = task.work_s;
        p.policy_tag = policy_->admit(p.task);
        if (trace_events()) trace_task_admit(task, start, "arrival");
        pending_.push_back(p);
        break;
      }
      case AdmissionAction::kDefer:
        deferred_arrivals_.push_back(task);
        break;
      case AdmissionAction::kReject:
        if (trace_events())
          recorder_->event("task_reject", static_cast<double>(start))
              .set("task", static_cast<std::uint64_t>(task.id))
              .set("reason", d.reason)
              .set("work_s", task.work_s);
        break;
    }
  }
}

void SimulationEngine::trace_task_admit(const storage::BackgroundTask& task,
                                        SimTime now, const char* source) {
  recorder_->event("task_admit", static_cast<double>(now))
      .set("task", static_cast<std::uint64_t>(task.id))
      .set("type", storage::task_type_name(task.type))
      .set("source", source)
      .set("deadline_s", static_cast<double>(task.deadline))
      .set("work_s", task.work_s);
}

void SimulationEngine::process_failures(SimTime now, SlotIndex slot) {
  // Recoveries first so a fail/recover pair in the same slot nets out.
  std::erase_if(pending_recoveries_, [&](const NodeFailureEvent& e) {
    if (e.recover_at > now) return false;
    power_.recover_node(e.node, now, slot);
    if (trace_events())
      recorder_->event("node_repair", static_cast<double>(now))
          .set("node", static_cast<std::uint64_t>(e.node));
    return true;
  });
  const auto& events = failure_events_;
  while (next_failure_index_ < events.size() &&
         events[next_failure_index_].fail_at <= now) {
    const NodeFailureEvent& e = events[next_failure_index_++];
    GM_CHECK(e.node < cluster_.node_count(),
             "failure event names unknown node " << e.node);
    power_.fail_node(e.node, now);
    ++nodes_failed_;
    if (trace_events())
      recorder_->event("node_fail", static_cast<double>(now))
          .set("node", static_cast<std::uint64_t>(e.node))
          .set("recover_at_s", static_cast<double>(e.recover_at));
    if (e.recover_at > e.fail_at) pending_recoveries_.push_back(e);
    // Re-replication: one repair task per group the node hosted.
    for (storage::GroupId g : cluster_.placement().groups_on(e.node)) {
      PendingTask p;
      p.task.id = next_repair_task_id_++;
      p.task.type = storage::TaskType::kRepair;
      p.task.release = now;
      p.task.deadline =
          now + static_cast<SimTime>(config_.repair_deadline_s);
      p.task.work_s = std::max(
          60.0, cluster_.placement().group_bytes(g) /
                    config_.repair_rate_bytes_per_s);
      p.task.utilization = 0.2;
      p.task.group = g;
      p.remaining_s = p.task.work_s;
      p.policy_tag = policy_->admit(p.task);
      if (trace_events()) trace_task_admit(p.task, now, "repair");
      pending_.push_back(p);
    }
  }
}

const SlotContext& SimulationEngine::make_context(SlotIndex slot,
                                                  SimTime start,
                                                  SimTime end) {
  // ctx_ is a rolling buffer: the forecast vectors and the pending
  // snapshot are refilled in place every slot, so their allocations
  // are made once per run instead of once per slot.
  SlotContext& ctx = ctx_;
  ctx.slot = slot;
  ctx.start = start;
  ctx.end = end;
  ctx.battery_stored_j = battery_.stored_j();
  ctx.battery_usable_capacity_j = battery_.usable_capacity_j();
  ctx.battery_max_charge_w = battery_.config().max_charge_w();
  ctx.battery_max_discharge_w = battery_.config().max_discharge_w();
  ctx.battery_charge_efficiency = battery_.config().charge_efficiency;
  ctx.currently_active_nodes = power_.active_count();
  ctx.arrivals_new = arrivals_new_last_slot_;
  ctx.arrivals_deferred_backlog =
      static_cast<std::uint64_t>(deferred_arrivals_.size());

  const int horizon = std::max(1, config_.policy.horizon_slots);
  ctx.green_forecast_w.clear();
  ctx.foreground_util_forecast.clear();
  ctx.grid_carbon_g_per_kwh.clear();
  ctx.green_forecast_w.reserve(horizon);
  ctx.foreground_util_forecast.reserve(horizon);
  ctx.grid_carbon_g_per_kwh.reserve(horizon);
  for (int j = 0; j < horizon; ++j) {
    const auto s = static_cast<std::size_t>(slot + j);
    if (config_.noisy_forecast) {
      const SimTime a = start + static_cast<SimTime>(j) *
                                    config_.slot_length_s;
      const SimTime b = a + config_.slot_length_s;
      ctx.green_forecast_w.push_back(
          forecast_->forecast_mean_w(start, a, b));
    } else {
      ctx.green_forecast_w.push_back(
          s < slot_green_j_.size()
              ? slot_green_j_[s] /
                    static_cast<double>(config_.slot_length_s)
              : 0.0);
    }
    ctx.foreground_util_forecast.push_back(
        s < fg_util_.size() ? fg_util_[s] : 0.0);
    const SimTime mid = start + static_cast<SimTime>(j) *
                                    config_.slot_length_s +
                        config_.slot_length_s / 2;
    ctx.grid_carbon_g_per_kwh.push_back(
        effective_grid_.carbon_g_per_kwh_at(mid));
  }
  ctx.foreground_util = ctx.foreground_util_forecast[0];
  ctx.pending.assign(pending_.begin(), pending_.end());
  return ctx;
}

std::vector<std::size_t> SimulationEngine::assign_tasks(
    const SlotDecision& decision, SimTime now, Joules& migration_j) {
  GM_OBS_SCOPE("engine.assign_tasks");
  // The run set, the per-node buffers and their allocations are
  // engine members reused across slots.
  run_set_.reset(decision.run_tasks.size());
  for (const storage::TaskId id : decision.run_tasks) run_set_.insert(id);

  // Per-node headroom under the post-transition active set. `active`
  // is a live reference: urgent-task wake-ups below update it.
  const auto& active = power_.active();
  const int active_count = power_.active_count();
  const double fg_share =
      active_count > 0
          ? fg_util_[static_cast<std::size_t>(slots_.slot_of(now))] /
                active_count
          : 0.0;
  const int task_slots = config_.cluster.node.task_slots;
  // Only active nodes are read, so a node's room is filled when this
  // slot first reads it instead of refilling the whole fleet. A replica
  // woken below was asleep until then, so it is filled on its first
  // read too.
  node_room_.resize(cluster_.node_count());
  if (++assign_stamp_ == 0) {
    for (NodeRoom& r : node_room_) r.stamp = 0;
    assign_stamp_ = 1;
  }
  const auto room = [&](storage::NodeId n) -> NodeRoom& {
    NodeRoom& r = node_room_[n];
    if (r.stamp != assign_stamp_)
      r = NodeRoom{assign_stamp_, task_slots, fg_share};
    return r;
  };

  std::vector<std::size_t> running;
  const Seconds slot_len = static_cast<Seconds>(config_.slot_length_s);

  // pending_ is deadline-sorted; iterate once so urgent tasks get
  // first pick of the capacity even if the policy omitted them.
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    PendingTask& p = pending_[i];
    const bool urgent = p.urgent(now, slot_len);
    const bool wanted = run_set_.contains(p.task.id);
    if (!wanted && !urgent) {
      if (p.running) p.running = false;  // suspended by the policy
      continue;
    }
    if (!wanted && urgent) ++forced_urgent_;

    // Candidate nodes: active replicas of the task's group with a free
    // task slot and utilization headroom.
    const auto find_candidate = [&]() {
      storage::NodeId best = storage::kInvalidNode;
      double best_util = 1e18;
      for (storage::NodeId n :
           cluster_.placement().replicas(p.task.group)) {
        if (!active[n]) continue;
        const NodeRoom& r = room(n);
        if (r.free_slots <= 0) continue;
        if (r.util + p.task.utilization > config_.max_utilization_per_node)
          continue;
        if (n == p.assigned_node && p.running) return n;  // sticky
        if (r.util < best_util) {
          best_util = r.util;
          best = n;
        }
      }
      return best;
    };
    storage::NodeId best = find_candidate();
    if (best == storage::kInvalidNode && urgent) {
      // Last resort for a task about to miss its deadline: wake a
      // sleeping replica (transition energy is accounted by the
      // power manager's forced-energy channel).
      const storage::NodeId woken = power_.wake_sleeping_replica(
          p.task.group, now, slots_.slot_of(now));
      if (woken != storage::kInvalidNode) best = find_candidate();
    }
    if (best == storage::kInvalidNode) {
      ++assignment_failures_;
      if (p.running) p.running = false;
      continue;
    }
    if (p.running && p.assigned_node != best) {
      ++migrations_;
      migration_j += config_.task_migration_energy_j;
    }
    p.assigned_node = best;
    p.running = true;
    NodeRoom& r = node_room_[best];
    --r.free_slots;
    r.util += p.task.utilization;
    running.push_back(i);
  }
  return running;
}

void SimulationEngine::route_requests(SlotIndex slot, SimTime start,
                                      SimTime end) {
  GM_OBS_SCOPE("engine.route_requests");
  const storage::NodeWaker waker = [&](storage::GroupId group,
                                       SimTime now) -> SimTime {
    return power_.force_wake_for_group(group, now, slot);
  };
  // The constructor checked that requests are sorted by arrival, so
  // index order is arrival order.
  while (next_request_index_ < workload_->requests.size() &&
         workload_->requests[next_request_index_].arrival < end) {
    const auto& req = workload_->requests[next_request_index_++];
    GM_ASSERT(req.arrival >= start);
    router_.route(req, req.arrival, waker);
  }
}

SlotIndex SimulationEngine::total_slots() const {
  // Fixed accounting horizon: every run simulates exactly
  // workload + max_drain_slots slots so that policies that defer work
  // later are compared over the same wall-clock window (and pay the
  // same idle-floor baseline).
  return static_cast<SlotIndex>(config_.duration() /
                                config_.slot_length_s) +
         config_.max_drain_slots;
}

Watts SimulationEngine::slot_green_w(SlotIndex slot) const {
  const auto s = static_cast<std::size_t>(slot);
  return s < slot_green_j_.size()
             ? slot_green_j_[s] / static_cast<double>(config_.slot_length_s)
             : 0.0;
}

Seconds SimulationEngine::pending_work_s() const {
  Seconds total = 0.0;
  for (const auto& p : pending_)
    if (!p.running) total += p.remaining_s;
  return total;
}

double SimulationEngine::slot_fg_util(SlotIndex slot) const {
  const auto s = static_cast<std::size_t>(slot);
  return s < fg_util_.size() ? fg_util_[s] : 0.0;
}

std::vector<PendingTask> SimulationEngine::extract_transferable_tasks(
    SimTime now, Seconds min_slack_s, std::size_t max_tasks) {
  std::vector<PendingTask> moved;
  std::erase_if(pending_, [&](const PendingTask& p) {
    if (moved.size() >= max_tasks) return false;
    if (p.running) return false;
    if (p.slack(now) < min_slack_s) return false;
    moved.push_back(p);
    return true;
  });
  // Mid-pool erasure shifts later (possibly unsorted, injected)
  // entries into the sorted prefix; re-sort from scratch next slot.
  pending_sorted_ = 0;
  // Moved tasks become the destination site's responsibility.
  GM_ASSERT(tasks_admitted_ >= moved.size());
  tasks_admitted_ -= moved.size();
  return moved;
}

void SimulationEngine::inject_task(const storage::BackgroundTask& task,
                                   Seconds remaining_s) {
  GM_CHECK(task.group < config_.cluster.placement.group_count,
           "injected task group out of range: " << task.group);
  PendingTask p;
  p.task = task;
  p.remaining_s = remaining_s;
  p.policy_tag = policy_->admit(p.task);
  if (trace_events())
    trace_task_admit(p.task, next_slot_ * config_.slot_length_s,
                     "federation");
  pending_.push_back(p);
  ++tasks_admitted_;
}

const SlotContext& SimulationEngine::observe(SlotIndex slot) {
  GM_CHECK(!finalized_, "observe after finalize");
  GM_CHECK(slot == next_slot_, "slots must run consecutively: expected "
                                   << next_slot_ << ", got " << slot);
  GM_CHECK(!observed_, "observe called twice without an act between");
  observed_ = true;

  obs::ScopedRecorder obs_install(recorder_.get());
  GM_OBS_SCOPE("engine.observe");

  const SimTime slot_len = config_.slot_length_s;
  const SimTime start = slot * slot_len;
  const SimTime end = start + slot_len;

  // 1. Failures/recoveries, then admit released tasks; keep the
  //    pool deadline-sorted. The pool left by the previous slot is
  //    already sorted (pending_sorted_ tracks the prefix length, and
  //    federation injections land past it), so instead of re-sorting
  //    everything we sort just the newcomers and admit them into
  //    position with an inplace_merge. (deadline, id) keys are
  //    unique for coexisting tasks, so this yields the same order a
  //    full sort would.
  const std::size_t before = pending_.size();
  process_failures(start, slot);
  admit_released_tasks(start);
  if (admission_) intake_arrivals(slot, start);
  tasks_admitted_ += pending_.size() - before;
  const auto by_deadline = [](const PendingTask& a,
                              const PendingTask& b) {
    if (a.task.deadline != b.task.deadline)
      return a.task.deadline < b.task.deadline;
    return a.task.id < b.task.id;
  };
  const auto mid =
      pending_.begin() +
      static_cast<std::ptrdiff_t>(std::min(pending_sorted_, before));
  std::sort(mid, pending_.end(), by_deadline);
  std::inplace_merge(pending_.begin(), mid, pending_.end(),
                     by_deadline);
  pending_sorted_ = pending_.size();

  // 2. The observation the agent decides on.
  return make_context(slot, start, end);
}

void SimulationEngine::run_slot(SlotIndex slot) {
  // Make this engine's recorder visible to GM_OBS_SCOPE timers in the
  // policy, planner, power manager and router for the slot's duration.
  obs::ScopedRecorder obs_install(recorder_.get());
  GM_OBS_SCOPE("engine.run_slot");

  const SlotContext& ctx = observe(slot);

  // Policy decision. The extra steady_clock reads around decide()
  // feed the per-slot plan-latency histogram (p50/p95/p99 at finish)
  // and are taken only when a recorder is attached.
  SlotDecision decision;
  if (recorder_) {
    const auto plan_t0 = std::chrono::steady_clock::now();
    {
      GM_OBS_SCOPE("policy.decide");
      decision = policy_->decide(ctx);
    }
    recorder_->observe_plan_latency(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - plan_t0)
            .count());
  } else {
    decision = policy_->decide(ctx);
  }

  act(slot, decision);
}

void SimulationEngine::act(SlotIndex slot, const SlotDecision& decision) {
  GM_CHECK(observed_ && slot == next_slot_,
           "act(" << slot << ") without a matching observe");
  observed_ = false;
  ++next_slot_;

  obs::ScopedRecorder obs_install(recorder_.get());
  GM_OBS_SCOPE("engine.act");

  const SimTime slot_len = config_.slot_length_s;
  const auto workload_slots =
      static_cast<SlotIndex>(config_.duration() / slot_len);
  const Watts idle_floor = facts_.node_idle_floor_w;
  const Watts spread = facts_.node_peak_w - facts_.node_idle_floor_w;
  RunArtifacts& artifacts = artifacts_;
  {
    const SimTime start = slot * slot_len;
    const SimTime end = start + slot_len;
    const bool in_workload = slot < workload_slots;

    // 3. Power management. The engine recomputes the floor the
    //    foreground demand imposes so a broken policy cannot starve it.
    const double fg = ctx_.foreground_util;
    const int fg_floor = static_cast<int>(
        std::ceil(fg / config_.max_utilization_per_node));
    const int target =
        std::max({decision.target_active_nodes, fg_floor,
                  power_.min_feasible()});
    PowerManager::Transition tr;
    {
      GM_OBS_SCOPE("power.apply_target");
      tr = power_.apply_target(slot, target, start);
    }
    power_ons_ += tr.powered_on;
    power_offs_ += tr.powered_off;

    // 4. Task assignment and execution. Non-urgent tasks may run at
    //    the DVFS eco frequency when the policy asked for it: work
    //    rate scales with f, dynamic power with f^alpha.
    Joules migration_j = 0.0;
    const auto running = assign_tasks(decision, start, migration_j);
    const double eco = decision.eco_speed ? config_.dvfs_eco_speed : 1.0;
    double task_util_eff = 0.0;   // occupancy (capacity accounting)
    Joules task_dynamic_j = 0.0;  // dynamic energy of running tasks
    for (std::size_t i : running) {
      PendingTask& p = pending_[i];
      const bool urgent =
          p.urgent(start, static_cast<Seconds>(slot_len));
      const double speed = urgent ? 1.0 : eco;
      const Seconds wall = std::min(static_cast<Seconds>(slot_len),
                                    p.remaining_s / speed);
      const Seconds work = wall * speed;
      task_util_eff += p.task.utilization * wall /
                       static_cast<double>(slot_len);
      task_dynamic_j += p.task.utilization * spread *
                        std::pow(speed, config_.dvfs_alpha) * wall;
      p.remaining_s -= work;
      if (p.remaining_s <= 1e-9) {
        const SimTime completion = start + static_cast<SimTime>(wall);
        ++tasks_completed_;
        const bool missed = completion > p.task.deadline;
        if (missed) ++deadline_misses_;
        sojourn_hours_sum_ +=
            s_to_hours(static_cast<double>(completion - p.task.release));
        p.remaining_s = 0.0;
        if (trace_events())
          recorder_->event("task_complete",
                           static_cast<double>(completion))
              .set("task", static_cast<std::uint64_t>(p.task.id))
              .set("missed", missed)
              .set("sojourn_h",
                   s_to_hours(static_cast<double>(completion -
                                                  p.task.release)));
      }
    }
    // 4b. MAID disk power management: on active nodes hosting no
    //     running background task, spin all but the configured minimum
    //     of disks down; busy nodes get all disks back (spin-up energy
    //     is charged as transition overhead).
    Joules maid_j = 0.0;
    if (config_.maid_enabled) {
      std::vector<bool> busy(cluster_.node_count(), false);
      for (std::size_t i : running)
        busy[pending_[i].assigned_node] = true;
      const auto& active = power_.active();
      for (storage::NodeId n = 0; n < cluster_.node_count(); ++n) {
        if (!active[n]) continue;
        auto& disks = cluster_.node(n).disks();
        const int keep =
            busy[n] ? static_cast<int>(disks.size())
                    : std::min<int>(config_.maid_min_spinning_disks,
                                    static_cast<int>(disks.size()));
        for (int d = 0; d < static_cast<int>(disks.size()); ++d) {
          auto& disk = disks[d];
          if (d < keep && !disk.spinning()) {
            const SimTime done = disk.begin_spinup(start);
            disk.complete_spinup(std::max(done, start));
            maid_j += disk.config().spinup_energy_j();
          } else if (d >= keep && disk.spinning()) {
            disk.spin_down(start);
          }
        }
      }
    }

    std::erase_if(pending_,
                  [](const PendingTask& p) { return p.remaining_s <= 0.0; });
    pending_sorted_ = pending_.size();  // erasure preserves the order

    // 5. Event-level request routing inside the slot.
    if (config_.fidelity == Fidelity::kEventLevel && in_workload)
      route_requests(slot, start, end);

    // 6. Energy integration and balance.
    const int active_count = power_.active_count();
    const Joules forced_j = power_.drain_forced_energy_j();
    const Joules transition_j = tr.energy_j + forced_j + maid_j;
    Joules base_j =
        active_count * idle_floor * static_cast<double>(slot_len);
    if (config_.maid_enabled) {
      // Per-node floor reflecting actual disk states.
      base_j = 0.0;
      const auto& active = power_.active();
      for (storage::NodeId n = 0; n < cluster_.node_count(); ++n) {
        if (!active[n]) continue;
        Watts node_floor = config_.cluster.node.cpu_idle_w;
        for (const auto& disk : cluster_.node(n).disks())
          node_floor += disk.power_w();
        base_j += node_floor * static_cast<double>(slot_len);
      }
    }
    const Joules dynamic_j =
        spread * fg * static_cast<double>(slot_len) + task_dynamic_j;
    const Joules demand_j =
        base_j + dynamic_j + transition_j + migration_j;

    const Joules supply_j =
        static_cast<std::size_t>(slot) < slot_green_j_.size()
            ? slot_green_j_[slot]
            : supply_->energy_j(start, end);
    const Joules green_direct = std::min(demand_j, supply_j);
    const Joules surplus = supply_j - green_direct;
    const Joules deficit = demand_j - green_direct;

    Joules charged = 0.0, discharged = 0.0, brown = 0.0;
    if (surplus > 0.0)
      charged = battery_.charge(surplus, static_cast<Seconds>(slot_len));
    if (deficit > 0.0) {
      discharged =
          battery_.discharge(deficit, static_cast<Seconds>(slot_len));
      brown = deficit - discharged;
      if (brown > 0.0) grid_.draw(start, brown);
    }
    battery_.apply_self_discharge(static_cast<Seconds>(slot_len));

    energy::SlotRecord record;
    record.slot = slot;
    record.start = start;
    record.end = end;
    record.green_supply_j = supply_j;
    record.green_direct_j = green_direct;
    record.battery_charge_drawn_j = charged;
    record.battery_discharged_j = discharged;
    record.brown_j = brown;
    // test_leak_j_per_slot (test-only, see config.hpp) books phantom
    // curtailment on slots with real supply, where the ledger's
    // RELATIVE tolerance scales to ~10 J and is blind to it — only
    // gm::audit's absolute re-check / the golden corpus can catch it.
    // (On zero-supply slots the relative check degenerates to a 1e-6 J
    // absolute one, which would catch the leak trivially.)
    record.curtailed_j =
        surplus - charged +
        (supply_j > 1.0 ? config_.test_leak_j_per_slot : 0.0);
    record.demand_j = demand_j;
    record.overhead_transition_j = transition_j;
    record.overhead_migration_j = migration_j;
    record.battery_stored_end_j = battery_.stored_j();
    artifacts.ledger.append(record);

    active_nodes_tw_.set(start, active_count);
    artifacts.active_nodes_per_slot.push_back(active_count);
    artifacts.task_util_per_slot.push_back(task_util_eff);
    artifacts.fg_util_per_slot.push_back(fg);

    if (recorder_) {
      obs::SlotSample sample;
      sample.slot = static_cast<std::int64_t>(slot);
      sample.start_s = static_cast<double>(start);
      sample.end_s = static_cast<double>(end);
      sample.green_supply_j = supply_j;
      sample.green_direct_j = green_direct;
      sample.battery_in_j = charged;
      sample.battery_out_j = discharged;
      sample.brown_j = brown;
      sample.curtailed_j = surplus - charged;
      sample.demand_j = demand_j;
      sample.battery_soc_j = battery_.stored_j();
      sample.active_nodes = active_count;
      sample.pending_depth =
          static_cast<std::int64_t>(pending_.size());
      sample.tasks_running = static_cast<std::int64_t>(running.size());
      sample.target_active_nodes = decision.target_active_nodes;
      sample.run_set_size =
          static_cast<std::int64_t>(decision.run_tasks.size());
      sample.eco_speed = decision.eco_speed;
      const std::uint64_t wakeups = router_.stats().forced_wakeups;
      sample.forced_wakeups =
          static_cast<std::int64_t>(wakeups - last_forced_wakeups_);
      last_forced_wakeups_ = wakeups;
      sample.node_failures =
          static_cast<std::int64_t>(nodes_failed_ - last_nodes_failed_);
      last_nodes_failed_ = nodes_failed_;
      recorder_->record_slot(sample);
    }
  }
}

RunArtifacts SimulationEngine::finalize() {
  GM_CHECK(!finalized_, "finalize called twice");
  finalized_ = true;
  RunArtifacts& artifacts = artifacts_;
  const SimTime slot_len = config_.slot_length_s;

  // Any tasks that never completed (pool drained by the slot cap) are
  // counted as misses.
  deadline_misses_ += pending_.size();
  const auto tasks_unfinished =
      static_cast<std::uint64_t>(pending_.size());
  const SimTime final_time =
      static_cast<SimTime>(artifacts.ledger.size()) * slot_len;
  active_nodes_tw_.advance_to(final_time);
  if (trace_events())
    for (const auto& p : pending_)
      recorder_->event("task_miss", static_cast<double>(final_time))
          .set("task", static_cast<std::uint64_t>(p.task.id))
          .set("remaining_s", p.remaining_s);

  // --- assemble the result -----------------------------------------
  metrics::RunResult& r = artifacts.result;
  r.energy = artifacts.ledger.totals();
  r.duration = final_time;
  r.grid_carbon_g = grid_.total_carbon_g();
  r.grid_cost_usd = grid_.total_cost_usd();

  r.qos.foreground_requests = router_.stats().requests;
  r.qos.unavailable_reads = router_.unavailable_reads();
  r.qos.offloaded_writes = router_.stats().offloaded_writes;
  if (router_.latency_histogram().count() > 0) {
    r.qos.read_latency_p50_s = router_.latency_histogram().quantile(0.50);
    r.qos.read_latency_p95_s = router_.latency_histogram().quantile(0.95);
    r.qos.read_latency_p99_s = router_.latency_histogram().quantile(0.99);
  }
  r.qos.tasks_total = tasks_admitted_;
  r.qos.tasks_completed = tasks_completed_;
  r.qos.deadline_misses = deadline_misses_;
  r.qos.tasks_unfinished = tasks_unfinished;
  if (admission_) {
    // Arrivals still parked at the horizon never entered the pool;
    // book them as rejected so every generated arrival is accounted
    // exactly once (audited: admission.arrival_accounting).
    const AdmissionStats& st = admission_->stats();
    r.qos.arrivals_generated = arrivals_generated_;
    r.qos.arrivals_admitted = st.admitted;
    r.qos.arrivals_rejected =
        st.rejected +
        static_cast<std::uint64_t>(deferred_arrivals_.size());
    r.qos.arrivals_overflow_admits = st.overflow_admits;
    r.qos.admission_decisions = st.decisions;
    r.qos.admission_deferrals = st.deferred;
    GM_ASSERT(r.qos.arrivals_generated ==
              r.qos.arrivals_admitted + r.qos.arrivals_rejected);
    if (trace_events())
      for (const auto& task : deferred_arrivals_)
        recorder_->event("task_reject", static_cast<double>(final_time))
            .set("task", static_cast<std::uint64_t>(task.id))
            .set("reason", "deferred-at-horizon")
            .set("work_s", task.work_s);
  }
  r.qos.mean_task_sojourn_h =
      tasks_completed_ > 0
          ? sojourn_hours_sum_ / static_cast<double>(tasks_completed_)
          : 0.0;

  r.battery.capacity_j = config_.battery.capacity_j;
  r.battery.charged_in_j = battery_.total_charged_in_j();
  r.battery.discharged_out_j = battery_.total_discharged_out_j();
  r.battery.conversion_loss_j = battery_.conversion_loss_j();
  r.battery.self_discharge_loss_j = battery_.self_discharge_loss_j();
  r.battery.clamp_loss_j = battery_.clamp_loss_j();
  r.battery.initial_stored_j = battery_.initial_stored_j();
  r.battery.final_stored_j = battery_.stored_j();
  r.battery.equivalent_cycles = battery_.equivalent_cycles();
  r.battery.health_fraction = battery_.health_fraction();
  r.battery.volume_l = config_.battery.volume_l();
  r.battery.price_usd = config_.battery.price_usd();

  r.scheduler.policy_name = policy_->name();
  r.scheduler.node_power_ons = power_ons_;
  r.scheduler.node_power_offs = power_offs_;
  r.scheduler.task_migrations = migrations_;
  r.scheduler.forced_wakeups = router_.stats().forced_wakeups;
  r.scheduler.forced_urgent_runs = forced_urgent_;
  r.scheduler.assignment_failures = assignment_failures_;
  r.scheduler.nodes_failed = nodes_failed_;
  r.scheduler.mean_active_nodes = active_nodes_tw_.time_average();
  if (admission_) {
    r.scheduler.admission_decision_wall_ms =
        admission_->stats().decision_wall_ms;
    if (admission_->latency_us().count() > 0) {
      r.scheduler.admission_decision_p50_us =
          admission_->latency_us().quantile(0.50);
      r.scheduler.admission_decision_p99_us =
          admission_->latency_us().quantile(0.99);
    }
  }
  if (const auto* gm =
          dynamic_cast<const GreenMatchPolicy*>(policy_.get())) {
    r.scheduler.plan_solve_ms_total = gm->solve_ms_total();
    r.scheduler.plan_cache_hits = gm->plan_cache_hits();
    r.scheduler.warm_accepts = gm->warm_accepts();
    r.scheduler.warm_rejects = gm->warm_rejects();
    const auto totals = gm->solver_totals();
    r.scheduler.solver_solves = totals.solves;
    r.scheduler.solver_dijkstra_runs = totals.dijkstra_runs;
    r.scheduler.solver_dijkstra_pops = totals.dijkstra_pops;
    r.scheduler.solver_relaxations = totals.dijkstra_relaxations;
    r.scheduler.solver_augmenting_paths = totals.augmenting_paths;
    r.scheduler.solver_zero_paths = totals.zero_paths;
    r.scheduler.solver_arena_bytes_peak = totals.arena_bytes_peak;
    if (gm->shards() > 1) {
      r.scheduler.planner_shards =
          static_cast<std::uint64_t>(gm->shards());
      r.scheduler.reconciliation_solves = gm->reconciliation_solves();
    }
  }

  if (recorder_) {
    auto& m = recorder_->metrics();
    m.counter_set("run.tasks_admitted", tasks_admitted_);
    m.counter_set("run.tasks_completed", tasks_completed_);
    m.counter_set("run.deadline_misses", deadline_misses_);
    m.counter_set("run.task_migrations", migrations_);
    m.counter_set("run.node_power_ons", power_ons_);
    m.counter_set("run.node_power_offs", power_offs_);
    m.counter_set("run.forced_urgent_runs", forced_urgent_);
    m.counter_set("run.assignment_failures", assignment_failures_);
    m.counter_set("run.nodes_failed", nodes_failed_);
    m.counter_set("run.forced_wakeups", router_.stats().forced_wakeups);
    m.counter_set("run.foreground_requests", router_.stats().requests);
    m.counter_set("run.offloaded_writes",
                  router_.stats().offloaded_writes);
    m.gauge_set("run.brown_kwh", r.brown_kwh());
    m.gauge_set("run.green_supply_kwh", r.green_supply_kwh());
    m.gauge_set("run.curtailed_kwh", r.curtailed_kwh());
    m.gauge_set("run.demand_kwh", r.demand_kwh());
    m.gauge_set("run.green_utilization", r.energy.green_utilization());
    m.gauge_set("run.grid_carbon_g", r.grid_carbon_g);
    m.gauge_set("run.grid_cost_usd", r.grid_cost_usd);
    m.gauge_set("run.mean_active_nodes", r.scheduler.mean_active_nodes);
    m.gauge_set("run.plan_solve_ms_total",
                r.scheduler.plan_solve_ms_total);
    // Flow-planner solver telemetry (satellite of the provenance
    // work): all-zero for non-GreenMatch policies, so emit only when
    // the planner actually solved something.
    if (r.scheduler.solver_solves > 0 || r.scheduler.warm_accepts > 0 ||
        r.scheduler.warm_rejects > 0) {
      m.counter_set("planner.solves", r.scheduler.solver_solves);
      m.counter_set("planner.plan_cache_hits",
                    r.scheduler.plan_cache_hits);
      m.counter_set("planner.warm_accepts", r.scheduler.warm_accepts);
      m.counter_set("planner.warm_rejects", r.scheduler.warm_rejects);
      m.counter_set("planner.dijkstra_runs",
                    r.scheduler.solver_dijkstra_runs);
      m.counter_set("planner.dijkstra_pops",
                    r.scheduler.solver_dijkstra_pops);
      m.counter_set("planner.dijkstra_relaxations",
                    r.scheduler.solver_relaxations);
      m.counter_set("planner.augmenting_paths",
                    r.scheduler.solver_augmenting_paths);
      m.counter_set("planner.zero_paths", r.scheduler.solver_zero_paths);
      m.gauge_set("planner.arena_bytes_peak",
                  static_cast<double>(
                      r.scheduler.solver_arena_bytes_peak));
      // Sharded-planner telemetry (tentpole of the sharding work):
      // emitted only when the run actually sharded, so flat-planner
      // metric dumps are unchanged byte for byte.
      if (const auto* gm =
              dynamic_cast<const GreenMatchPolicy*>(policy_.get());
          gm && gm->shards() > 1) {
        m.gauge_set("planner.shards", static_cast<double>(gm->shards()));
        m.counter_set("planner.reconciliation_solves",
                      gm->reconciliation_solves());
        for (const auto& st : gm->shard_stats()) {
          const std::string prefix =
              "planner.shard" + std::to_string(st.shard);
          m.gauge_set(prefix + ".solve_ms", st.solve_ms);
          m.counter_set(prefix + ".solves", st.solves);
        }
      }
    }
    m.gauge_set("run.read_latency_p95_s", r.qos.read_latency_p95_s);
    m.gauge_set("run.battery_equivalent_cycles",
                r.battery.equivalent_cycles);
    // Admission fast-path telemetry: emitted only for open-system
    // runs, so closed-loop metric dumps are unchanged byte for byte.
    if (admission_) {
      m.counter_set("admission.arrivals", r.qos.arrivals_generated);
      m.counter_set("admission.admitted", r.qos.arrivals_admitted);
      m.counter_set("admission.rejected", r.qos.arrivals_rejected);
      m.counter_set("admission.overflow_admits",
                    r.qos.arrivals_overflow_admits);
      m.counter_set("admission.decisions", r.qos.admission_decisions);
      m.counter_set("admission.deferrals", r.qos.admission_deferrals);
      m.gauge_set("admission.decision_wall_ms",
                  r.scheduler.admission_decision_wall_ms);
      m.gauge_set("admission.decision_p50_us",
                  r.scheduler.admission_decision_p50_us);
      m.gauge_set("admission.decision_p99_us",
                  r.scheduler.admission_decision_p99_us);
    }
  }
  return std::move(artifacts_);
}

RunArtifacts SimulationEngine::run() {
  const SlotIndex n = total_slots();
  for (SlotIndex slot = 0; slot < n; ++slot) run_slot(slot);
  return finalize();
}

RunArtifacts run_experiment(const ExperimentConfig& config,
                            std::shared_ptr<obs::Recorder> recorder) {
  SimulationEngine engine(config, std::move(recorder));
  return engine.run();
}

}  // namespace gm::core
