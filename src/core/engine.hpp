#pragma once
// Simulation engine: glues workload, cluster, energy supply, battery,
// policy and power manager into one slot-driven run and produces a
// metrics::RunResult. Two fidelities share the same energy accounting;
// event-level additionally routes every foreground request through the
// disk model, one at a time in arrival order, for QoS metrics.
//
// Per-slot sequence (DESIGN.md §3):
//   1. admit released tasks, sort pending by deadline
//   2. policy.decide() on forecasts + pool
//   3. power manager applies the activation target (coverage,
//      hysteresis, transition energy)
//   4. tasks are assigned to active replica nodes (urgent first);
//      migrations of displaced tasks are charged
//   5. (event mode) requests inside the slot are routed; the forced
//      wake-ups they cause are charged to this slot in step 6
//   6. demand is integrated, the balance green-direct → battery →
//      grid is settled, the ledger row is appended

#include <memory>
#include <vector>

#include "core/admission.hpp"
#include "core/config.hpp"
#include "core/policy.hpp"
#include "core/power_manager.hpp"
#include "workload/arrival_stream.hpp"
#include "energy/battery.hpp"
#include "energy/forecast.hpp"
#include "energy/grid.hpp"
#include "energy/ledger.hpp"
#include "metrics/report.hpp"
#include "obs/recorder.hpp"
#include "sim/stats.hpp"
#include "storage/cluster.hpp"
#include "storage/router.hpp"
#include "util/assert.hpp"
#include "util/id_set.hpp"
#include "workload/generator.hpp"

namespace gm::core {

struct RunArtifacts {
  metrics::RunResult result;
  energy::EnergyLedger ledger;                ///< per-slot series
  std::vector<int> active_nodes_per_slot;
  std::vector<double> task_util_per_slot;
  std::vector<double> fg_util_per_slot;
};

class SimulationEngine {
 public:
  /// `recorder` is the optional observability handle (trace, metrics,
  /// phase profile — see obs/recorder.hpp). The default null recorder
  /// keeps the hot path free of instrumentation cost; a non-null one
  /// gets the run manifest written at construction and per-slot
  /// telemetry during the run. Observability never alters simulation
  /// behavior: a run with a recorder is bit-identical to one without.
  /// Throws gm::InvalidArgument on an invalid config, or on a workload
  /// whose requests are not sorted by arrival (from 0) or whose tasks
  /// are not sorted by release.
  explicit SimulationEngine(const ExperimentConfig& config,
                            std::shared_ptr<obs::Recorder> recorder =
                                nullptr);

  /// Runs to completion (workload + drain) and returns the artifacts.
  RunArtifacts run();

  // --- stepwise API (federation drives sites in lockstep) -----------
  /// Total slots this run covers (workload + fixed drain).
  SlotIndex total_slots() const;
  /// Executes one slot; must be called with consecutive indices
  /// starting at 0. Equivalent to
  /// `act(slot, policy.decide(observe(slot)))` with the internal
  /// policy — bit-for-bit (the golden corpus pins this).
  void run_slot(SlotIndex slot);
  /// Assembles the result after the last slot. Call exactly once.
  RunArtifacts finalize();

  // --- step/observe/act interface (RL-style environment framing) ----
  /// Advances the environment into `slot` — applies due failures and
  /// recoveries, admits released tasks, re-sorts the pending pool —
  /// and returns the observation a scheduling agent decides on. Each
  /// observe() must be paired with one act() on the same slot before
  /// the next slot is observed. The returned reference is a rolling
  /// buffer, valid until the next observe()/run_slot().
  const SlotContext& observe(SlotIndex slot);
  /// Applies a decision to the slot prepared by observe(): power
  /// transitions, task assignment and execution (DVFS/MAID), request
  /// routing, and the green→battery→grid energy settlement. External
  /// agents (e.g. an RL driver) call observe()/act() directly with
  /// their own SlotDecision; run() and run_slot() stay the legacy
  /// slot loop on top of the same two steps.
  void act(SlotIndex slot, const SlotDecision& decision);
  /// The cluster facts handed to the internal policy's initialize() —
  /// an external agent driving observe()/act() initializes its own
  /// policy with the same facts to reproduce run() exactly.
  const ClusterFacts& facts() const { return facts_; }

  /// Forecast green power (W) and foreground utilization for a slot —
  /// the signals a federation broker routes tasks by.
  Watts slot_green_w(SlotIndex slot) const;
  double slot_fg_util(SlotIndex slot) const;
  std::size_t pending_count() const { return pending_.size(); }
  /// Remaining work (seconds) across pending, non-running tasks.
  Seconds pending_work_s() const;
  /// The coverage floor (minimum active nodes) of this site.
  int coverage_floor() const { return power_.min_feasible(); }

  /// Removes and returns pending tasks that are safe to move to
  /// another site: not running, not urgent, with at least
  /// `min_slack_s` of slack at time `now`. At most `max_tasks`.
  std::vector<PendingTask> extract_transferable_tasks(
      SimTime now, Seconds min_slack_s, std::size_t max_tasks);
  /// Admits a task arriving from another site. The caller must remap
  /// `task.group` into this site's group universe.
  void inject_task(const storage::BackgroundTask& task,
                   Seconds remaining_s);

  /// The workload in use (preset or generated from config.workload),
  /// exposed so callers can inspect or archive the exact trace.
  const workload::Workload& workload() const { return *workload_; }
  const storage::Cluster& cluster() const { return cluster_; }
  const energy::PowerSource& supply() const { return *supply_; }
  obs::Recorder* recorder() const { return recorder_.get(); }

  // --- audit surface (gm::audit, valid after finalize() too) --------
  /// The validated config the run executed with (failure events
  /// sorted, unlike the constructor argument).
  const ExperimentConfig& config() const { return config_; }
  /// Admission controller, or nullptr in closed-loop runs — exposed
  /// for the throughput bench and the admission tests.
  const AdmissionController* admission() const {
    return admission_.get();
  }
  /// Arrivals the stream has emitted so far (open-system mode only).
  std::uint64_t arrivals_generated() const { return arrivals_generated_; }
  /// Battery with its internal loss/throughput counters.
  const energy::Battery& battery() const { return battery_; }
  /// Grid meter: total import, carbon, cost.
  const energy::GridMeter& grid_meter() const { return grid_; }
  /// Power manager: active set, failures and the coverage floor.
  const PowerManager& power() const { return power_; }

 private:
  struct TaskState {
    PendingTask pending;
    bool completed = false;
    SimTime completion = 0;
  };

  void admit_released_tasks(SimTime now);
  /// Open-system arrival intake at a slot boundary: advance the
  /// headroom ledger, reconcile it against the live pool, re-offer
  /// parked tasks, pull the stream up to `start`, and decide each
  /// arrival (admit into pending_ / park / book a rejection). Only
  /// called when arrivals.enabled.
  void intake_arrivals(SlotIndex slot, SimTime start);
  /// Emits a task_admit trace event (caller checks trace_events()).
  void trace_task_admit(const storage::BackgroundTask& task, SimTime now,
                        const char* source);
  /// Applies node failures/recoveries due by `now` (configured events
  /// merged with scenario-generated outages); failed nodes spawn one
  /// repair task per placement group they hosted.
  void process_failures(SimTime now, SlotIndex slot);
  /// Fills and returns ctx_ (a per-engine rolling buffer — the
  /// forecast vectors and pending snapshot reuse their allocations
  /// across slots). The reference is valid until the next call.
  const SlotContext& make_context(SlotIndex slot, SimTime start,
                                  SimTime end);
  /// Sanitizes the policy's run set: dedups, forces urgent tasks, and
  /// assigns tasks to active replica nodes. Returns indices into
  /// pending_ of tasks that actually run, and accumulates migration
  /// energy and counters.
  std::vector<std::size_t> assign_tasks(const SlotDecision& decision,
                                        SimTime now, Joules& migration_j);
  void route_requests(SlotIndex slot, SimTime start, SimTime end);

  /// True when discrete trace events (task admit/complete, node
  /// fail/repair) should be emitted — recorder present and tracing.
  bool trace_events() const {
    return recorder_ && recorder_->tracing();
  }

  ExperimentConfig config_;
  std::shared_ptr<obs::Recorder> recorder_;
  storage::Cluster cluster_;
  std::shared_ptr<const workload::Workload> workload_;
  std::shared_ptr<const energy::PowerSource> supply_;
  std::unique_ptr<energy::ForecastProvider> forecast_;
  energy::Battery battery_;
  /// config_.grid plus scenario-generated spike events — what the
  /// meter charges and the planner's carbon forecast reads.
  energy::GridConfig effective_grid_;
  energy::GridMeter grid_;
  std::unique_ptr<SchedulerPolicy> policy_;
  PowerManager power_;
  storage::RequestRouter router_;
  ClusterFacts facts_;
  SlotGrid slots_;
  /// Rolling per-slot observation buffer (see make_context).
  SlotContext ctx_;
  /// assign_tasks scratch, refilled every slot: the policy's run set
  /// and each node's free task slots and utilization.
  IdSet run_set_;
  std::vector<int> free_slots_;
  std::vector<double> node_util_;

  // Pending pool and task bookkeeping.
  std::vector<PendingTask> pending_;
  /// Length of the deadline-sorted prefix of pending_. The slot loop
  /// keeps the whole pool sorted, so newcomers are admitted with a
  /// tail-sort + inplace_merge instead of a full re-sort; federation
  /// injections append past the prefix, and mid-pool extraction
  /// resets it (next slot falls back to a full sort).
  std::size_t pending_sorted_ = 0;
  std::size_t next_task_index_ = 0;     ///< into workload_.tasks
  std::size_t next_request_index_ = 0;  ///< into workload_.requests

  // Per-slot foreground utilization (node-equivalents), precomputed.
  std::vector<double> fg_util_;
  // Per-slot green supply energy, precomputed once (the perfect
  // forecaster and the balance loop both read it; the noisy forecaster
  // still goes through forecast_).
  std::vector<Joules> slot_green_j_;

  // Outcome accumulators.
  std::uint64_t tasks_completed_ = 0;
  std::uint64_t deadline_misses_ = 0;
  double sojourn_hours_sum_ = 0.0;
  std::uint64_t forced_urgent_ = 0;
  std::uint64_t assignment_failures_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t power_ons_ = 0;
  std::uint64_t power_offs_ = 0;
  std::uint64_t nodes_failed_ = 0;
  std::uint64_t tasks_admitted_ = 0;
  bool finalized_ = false;
  SlotIndex next_slot_ = 0;
  /// observe() ran for next_slot_ but act() has not consumed it yet.
  bool observed_ = false;
  RunArtifacts artifacts_;
  /// config_.node_failures merged with scenario-generated outages,
  /// sorted by fail_at; the list process_failures() consumes.
  std::vector<NodeFailureEvent> failure_events_;
  std::size_t next_failure_index_ = 0;
  // Previous-slot snapshots for per-slot deltas in the trace.
  std::uint64_t last_forced_wakeups_ = 0;
  std::uint64_t last_nodes_failed_ = 0;
  std::vector<NodeFailureEvent> pending_recoveries_;
  storage::TaskId next_repair_task_id_ = 2'000'000'000ULL;
  sim::TimeWeighted active_nodes_tw_;

  // Open-system mode (arrivals.enabled); all null/empty otherwise.
  std::unique_ptr<workload::ArrivalStream> arrival_stream_;
  std::unique_ptr<AdmissionController> admission_;
  /// Tasks the controller parked (defer) awaiting a wider ledger view.
  std::vector<storage::BackgroundTask> deferred_arrivals_;
  /// Per-slot offer list (re-offered parked tasks + fresh arrivals);
  /// reused across slots.
  std::vector<storage::BackgroundTask> arrival_buf_;
  SimTime arrivals_covered_ = 0;  ///< stream pulled up to this time
  std::uint64_t arrivals_generated_ = 0;
  std::uint64_t arrivals_new_last_slot_ = 0;
};

/// Convenience wrapper: construct, run, return artifacts.
RunArtifacts run_experiment(const ExperimentConfig& config,
                            std::shared_ptr<obs::Recorder> recorder =
                                nullptr);

}  // namespace gm::core
