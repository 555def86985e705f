#pragma once
// Run-level results: everything a bench or example needs to print a
// paper-style row. Produced by the simulation engine, aggregated from
// the energy ledger, battery telemetry, QoS trackers and scheduler
// action counters.

#include <cstdint>
#include <iosfwd>
#include <string>

#include "energy/ledger.hpp"
#include "util/units.hpp"

namespace gm::metrics {

struct QosReport {
  std::uint64_t foreground_requests = 0;
  std::uint64_t unavailable_reads = 0;
  double read_latency_p50_s = 0.0;
  double read_latency_p95_s = 0.0;
  double read_latency_p99_s = 0.0;
  std::uint64_t offloaded_writes = 0;

  std::uint64_t tasks_total = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t deadline_misses = 0;
  /// Tasks still pending when the run horizon ended (each is also
  /// counted as a deadline miss). tasks_total = tasks_completed +
  /// tasks_unfinished is an audited invariant.
  std::uint64_t tasks_unfinished = 0;
  double deadline_miss_rate() const {
    return tasks_total ? static_cast<double>(deadline_misses) /
                             static_cast<double>(tasks_total)
                       : 0.0;
  }
  /// Mean completion delay relative to release (hours).
  double mean_task_sojourn_h = 0.0;

  // Open-system admission accounting (all zero in closed-loop runs).
  // arrivals_generated = arrivals_admitted + arrivals_rejected is an
  // audited invariant: every arrival the stream emits is either
  // admitted into the pending pool or explicitly booked as rejected
  // (tasks still deferred at the run horizon are booked rejected at
  // finalize). See docs/admission.md.
  std::uint64_t arrivals_generated = 0;
  std::uint64_t arrivals_admitted = 0;
  std::uint64_t arrivals_rejected = 0;
  /// Subset of arrivals_admitted taken via the grid-overflow policy.
  std::uint64_t arrivals_overflow_admits = 0;
  /// Total admission decisions, including defer re-offers.
  std::uint64_t admission_decisions = 0;
  std::uint64_t admission_deferrals = 0;  ///< defer decisions
};

struct BatteryReport {
  Joules capacity_j = 0.0;
  Joules charged_in_j = 0.0;
  Joules discharged_out_j = 0.0;
  Joules conversion_loss_j = 0.0;
  Joules self_discharge_loss_j = 0.0;
  /// Stored energy written off by the capacity clamp (health fade /
  /// rounding) — see Battery::clamp_loss_j().
  Joules clamp_loss_j = 0.0;
  Joules initial_stored_j = 0.0;
  Joules final_stored_j = 0.0;
  double equivalent_cycles = 0.0;
  double health_fraction = 1.0;  ///< remaining capacity / nameplate
  double volume_l = 0.0;
  double price_usd = 0.0;
};

struct SchedulerReport {
  std::string policy_name;
  std::uint64_t node_power_ons = 0;
  std::uint64_t node_power_offs = 0;
  std::uint64_t task_migrations = 0;
  std::uint64_t forced_wakeups = 0;
  std::uint64_t forced_urgent_runs = 0;
  std::uint64_t assignment_failures = 0;
  std::uint64_t nodes_failed = 0;  ///< injected hardware failures
  double mean_active_nodes = 0.0;
  double plan_solve_ms_total = 0.0;  ///< planner CPU time (telemetry)

  // Flow-planner solver telemetry (zero for non-GreenMatch policies).
  // NOT printed by print_summary — the golden corpus pins its output;
  // these surface via the metrics registry, bench counters, and the
  // greenmatch_sim planner stanza (printed only when observability is
  // on). See docs/observability.md §solver telemetry.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t warm_accepts = 0;
  std::uint64_t warm_rejects = 0;
  std::uint64_t solver_solves = 0;
  std::uint64_t solver_dijkstra_runs = 0;
  std::uint64_t solver_dijkstra_pops = 0;
  std::uint64_t solver_relaxations = 0;
  std::uint64_t solver_augmenting_paths = 0;
  std::uint64_t solver_zero_paths = 0;  ///< found without a Dijkstra
  std::uint64_t solver_arena_bytes_peak = 0;
  // Sharded-planner telemetry (zero when scheduler.shards = 1).
  std::uint64_t planner_shards = 0;
  std::uint64_t reconciliation_solves = 0;
  // Admission fast-path telemetry (zero in closed-loop runs). Wall
  // clock, so NOT printed by print_summary and not audited — surfaces
  // via the metrics registry, bench counters and the greenmatch_sim
  // admission stanza (docs/admission.md).
  double admission_decision_wall_ms = 0.0;
  double admission_decision_p50_us = 0.0;
  double admission_decision_p99_us = 0.0;
};

struct RunResult {
  energy::LedgerTotals energy;
  QosReport qos;
  BatteryReport battery;
  SchedulerReport scheduler;
  double grid_carbon_g = 0.0;
  double grid_cost_usd = 0.0;
  SimTime duration = 0;

  double brown_kwh() const { return j_to_kwh(energy.brown_j); }
  double green_supply_kwh() const {
    return j_to_kwh(energy.green_supply_j);
  }
  double curtailed_kwh() const { return j_to_kwh(energy.curtailed_j); }
  double demand_kwh() const { return j_to_kwh(energy.demand_j); }
  /// Total losses attributable to storage + scheduling overheads.
  double losses_kwh() const {
    return j_to_kwh(battery.conversion_loss_j +
                    battery.self_discharge_loss_j +
                    battery.clamp_loss_j +
                    energy.overhead_transition_j +
                    energy.overhead_migration_j);
  }

  /// Human-readable multi-line summary.
  void print_summary(std::ostream& out) const;

 private:
  /// "  admission: ..." line, or "" for closed-loop runs.
  std::string admission_line() const;
};

}  // namespace gm::metrics
