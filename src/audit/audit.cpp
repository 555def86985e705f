#include "audit/audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/config_io.hpp"
#include "energy/ledger.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/config_kv.hpp"

namespace gm::audit {

namespace {

double scale_of(double lhs, double rhs) {
  return std::max({1.0, std::abs(lhs), std::abs(rhs)});
}

/// Accumulates one per-slot identity family into a single AuditCheck:
/// remembers the worst-offending slot (largest tolerance-normalized
/// residual) and counts violations.
class SlotFamily {
 public:
  SlotFamily(std::string name, double abs_tol, double rel_tol)
      : name_(std::move(name)), abs_tol_(abs_tol), rel_tol_(rel_tol) {}

  void observe(std::size_t slot, double lhs, double rhs,
               const char* what = nullptr) {
    const double tol = abs_tol_ + rel_tol_ * scale_of(lhs, rhs);
    const double residual = std::abs(lhs - rhs);
    const bool ok = residual <= tol;
    if (!ok) {
      if (violations_ == 0) {
        first_slot_ = slot;
        first_what_ = what ? what : "";
      }
      ++violations_;
    }
    // Track the worst residual relative to its own tolerance so the
    // reported lhs/rhs pair is the most damning one.
    const double severity = tol > 0.0 ? residual / tol : residual;
    if (severity > worst_severity_) {
      worst_severity_ = severity;
      worst_ = {lhs, rhs, tol, slot};
    }
    ++observed_;
  }

  AuditCheck finish() const {
    AuditCheck check;
    check.name = name_;
    check.passed = violations_ == 0;
    check.lhs = worst_.lhs;
    check.rhs = worst_.rhs;
    check.tolerance = worst_.tol;
    std::ostringstream detail;
    if (violations_ > 0) {
      detail << violations_ << "/" << observed_
             << " slots violated; first at slot " << first_slot_;
      if (!first_what_.empty()) detail << " (" << first_what_ << ")";
      detail << ", worst at slot " << worst_.slot;
    } else {
      detail << observed_ << " slots, worst residual "
             << std::abs(worst_.lhs - worst_.rhs) << " J at slot "
             << worst_.slot;
    }
    check.detail = detail.str();
    return check;
  }

 private:
  struct Worst {
    double lhs = 0.0, rhs = 0.0, tol = 0.0;
    std::size_t slot = 0;
  };
  std::string name_;
  double abs_tol_;
  double rel_tol_;
  std::size_t observed_ = 0;
  std::size_t violations_ = 0;
  std::size_t first_slot_ = 0;
  std::string first_what_;
  double worst_severity_ = -1.0;
  Worst worst_;
};

AuditCheck scalar_check(const std::string& name, double lhs, double rhs,
                        double abs_tol, double rel_tol,
                        const std::string& detail) {
  AuditCheck check;
  check.name = name;
  check.lhs = lhs;
  check.rhs = rhs;
  check.tolerance = abs_tol + rel_tol * scale_of(lhs, rhs);
  check.passed = std::abs(lhs - rhs) <= check.tolerance;
  check.detail = detail;
  return check;
}

AuditCheck exact_count_check(const std::string& name, std::uint64_t lhs,
                             std::uint64_t rhs,
                             const std::string& detail) {
  AuditCheck check;
  check.name = name;
  check.lhs = static_cast<double>(lhs);
  check.rhs = static_cast<double>(rhs);
  check.tolerance = 0.0;
  check.passed = lhs == rhs;
  check.detail = detail;
  return check;
}

}  // namespace

std::size_t AuditReport::failures() const {
  return static_cast<std::size_t>(
      std::count_if(checks.begin(), checks.end(),
                    [](const AuditCheck& c) { return !c.passed; }));
}

void AuditReport::print(std::ostream& out) const {
  out << "audit: " << checks.size() << " checks, " << failures()
      << " failures\n";
  for (const auto& c : checks) {
    out << "  [" << (c.passed ? "PASS" : "FAIL") << "] " << c.name;
    if (!c.passed)
      out << "  lhs=" << c.lhs << " rhs=" << c.rhs
          << " |diff|=" << std::abs(c.lhs - c.rhs)
          << " tol=" << c.tolerance;
    if (!c.detail.empty()) out << "  (" << c.detail << ")";
    out << "\n";
  }
}

void AuditReport::write_jsonl(const std::string& path,
                              const std::string& label) const {
  std::ofstream out(path, std::ios::app);
  if (!out)
    throw RuntimeError("cannot open audit output file for writing: " +
                       path);
  for (const auto& c : checks) {
    obs::JsonObject record;
    record.set("kind", "audit_check")
        .set("label", label)
        .set("check", c.name)
        .set("passed", c.passed)
        .set("lhs", c.lhs)
        .set("rhs", c.rhs)
        .set("tolerance", c.tolerance)
        .set("detail", c.detail);
    out << record.str() << "\n";
  }
  obs::JsonObject summary;
  summary.set("kind", "audit_run")
      .set("label", label)
      .set("checks", static_cast<std::uint64_t>(checks.size()))
      .set("failures", static_cast<std::uint64_t>(failures()))
      .set("passed", passed());
  out << summary.str() << "\n";
}

void AuditReport::emit(obs::Recorder& recorder) const {
  for (const auto& c : checks) {
    obs::AuditSample sample;
    sample.check = c.name;
    sample.passed = c.passed;
    sample.lhs = c.lhs;
    sample.rhs = c.rhs;
    sample.tolerance = c.tolerance;
    sample.detail = c.detail;
    recorder.record_audit(sample);
  }
}

AuditReport audit_run(const core::SimulationEngine& engine,
                      const core::RunArtifacts& artifacts,
                      const AuditOptions& opt) {
  AuditReport report;
  const core::ExperimentConfig& config = engine.config();
  const energy::Battery& battery = engine.battery();
  const auto& slots = artifacts.ledger.slots();
  const energy::LedgerTotals totals = artifacts.ledger.totals();
  const std::size_t n = slots.size();

  // --- shape: every per-slot series covers the whole fixed horizon ---
  {
    const auto expected =
        static_cast<std::uint64_t>(engine.total_slots());
    std::ostringstream detail;
    detail << "ledger=" << n << " active="
           << artifacts.active_nodes_per_slot.size()
           << " task_util=" << artifacts.task_util_per_slot.size()
           << " fg_util=" << artifacts.fg_util_per_slot.size()
           << " horizon=" << expected;
    const bool shapes_ok =
        n == artifacts.active_nodes_per_slot.size() &&
        n == artifacts.task_util_per_slot.size() &&
        n == artifacts.fg_util_per_slot.size() && n == expected;
    AuditCheck check = exact_count_check(
        "series.slot_count", static_cast<std::uint64_t>(n), expected,
        detail.str());
    check.passed = shapes_ok;
    report.checks.push_back(std::move(check));
  }
  const bool series_aligned =
      n == artifacts.active_nodes_per_slot.size() &&
      n == artifacts.task_util_per_slot.size() &&
      n == artifacts.fg_util_per_slot.size();

  // --- per-slot identities, re-verified with ABSOLUTE tolerances -----
  // The ledger's own append() check is relative to the slot's energy
  // scale (~1e7 J), so a constant leak orders of magnitude below that
  // passes it every slot; these families use opt.slot_abs_tol_j.
  SlotFamily supply_split("slot.supply_split", opt.slot_abs_tol_j,
                          opt.slot_rel_tol);
  SlotFamily demand_cover("slot.demand_coverage", opt.slot_abs_tol_j,
                          opt.slot_rel_tol);
  SlotFamily supply_integral("slot.supply_integral", opt.slot_abs_tol_j,
                             opt.slot_rel_tol);
  SlotFamily nonnegative("slot.nonnegative", opt.slot_abs_tol_j,
                         opt.slot_rel_tol);
  SlotFamily soc_bounds("slot.soc_bounds", opt.slot_abs_tol_j,
                        opt.slot_rel_tol);
  SlotFamily overheads("slot.overheads", opt.slot_abs_tol_j,
                       opt.slot_rel_tol);
  SlotFamily active_bounds("slot.active_bounds", 0.0, 0.0);
  SlotFamily utilization("slot.utilization", 1e-9, 1e-12);

  const double usable = battery.usable_capacity_j();
  const int total_nodes = config.cluster.total_nodes();
  const double max_util = config.max_utilization_per_node;

  for (std::size_t i = 0; i < n; ++i) {
    const energy::SlotRecord& s = slots[i];

    supply_split.observe(
        i, s.green_supply_j,
        s.green_direct_j + s.battery_charge_drawn_j + s.curtailed_j);
    demand_cover.observe(
        i, s.demand_j,
        s.green_direct_j + s.battery_discharged_j + s.brown_j);
    // Independent re-integration of the renewable trace over the same
    // interval (deterministic model ⇒ expected exact).
    supply_integral.observe(i, s.green_supply_j,
                            engine.supply().energy_j(s.start, s.end));

    // One-sided bounds are expressed as lhs vs clamp(lhs) so the
    // residual is the overshoot.
    const double fields[] = {s.green_supply_j,
                             s.green_direct_j,
                             s.battery_charge_drawn_j,
                             s.battery_discharged_j,
                             s.brown_j,
                             s.curtailed_j,
                             s.demand_j,
                             s.overhead_transition_j,
                             s.overhead_migration_j,
                             s.battery_stored_end_j};
    double most_negative = 0.0;
    for (const double f : fields)
      most_negative = std::min(most_negative, f);
    nonnegative.observe(i, most_negative, 0.0, "negative energy field");

    soc_bounds.observe(i, std::max(s.battery_stored_end_j, usable),
                       usable, "stored above usable capacity");
    overheads.observe(
        i,
        std::max(s.overhead_transition_j + s.overhead_migration_j,
                 s.demand_j),
        s.demand_j, "overheads exceed demand");

    if (series_aligned) {
      const int active = artifacts.active_nodes_per_slot[i];
      const double active_clamped = std::clamp(active, 0, total_nodes);
      active_bounds.observe(i, static_cast<double>(active),
                            active_clamped,
                            "active nodes outside [0, fleet]");
      // Node/task-slot conservation: assignment packs tasks under the
      // per-node utilization cap on top of the foreground share, so
      // effective task occupancy + foreground never exceeds the active
      // capacity — unless foreground alone is infeasible, in which
      // case no background work fits at all.
      const double task_util = artifacts.task_util_per_slot[i];
      const double fg_util = artifacts.fg_util_per_slot[i];
      const double capacity = active * max_util;
      if (fg_util <= capacity)
        utilization.observe(i, std::max(task_util + fg_util, capacity),
                            capacity, "tasks overflow node capacity");
      else
        utilization.observe(i, task_util, 0.0,
                            "tasks ran with infeasible foreground");
    }
  }
  report.checks.push_back(supply_split.finish());
  report.checks.push_back(demand_cover.finish());
  report.checks.push_back(supply_integral.finish());
  report.checks.push_back(nonnegative.finish());
  report.checks.push_back(soc_bounds.finish());
  report.checks.push_back(overheads.finish());
  if (series_aligned) {
    report.checks.push_back(active_bounds.finish());
    report.checks.push_back(utilization.finish());
  }

  // --- ledger totals vs an independent re-summation ------------------
  {
    struct Field {
      const char* name;
      double total;
      double sum;
    };
    Field fields[] = {
        {"green_supply_j", totals.green_supply_j, 0.0},
        {"green_direct_j", totals.green_direct_j, 0.0},
        {"battery_charge_drawn_j", totals.battery_charge_drawn_j, 0.0},
        {"battery_discharged_j", totals.battery_discharged_j, 0.0},
        {"brown_j", totals.brown_j, 0.0},
        {"curtailed_j", totals.curtailed_j, 0.0},
        {"demand_j", totals.demand_j, 0.0},
        {"overhead_transition_j", totals.overhead_transition_j, 0.0},
        {"overhead_migration_j", totals.overhead_migration_j, 0.0},
    };
    for (const auto& s : slots) {
      fields[0].sum += s.green_supply_j;
      fields[1].sum += s.green_direct_j;
      fields[2].sum += s.battery_charge_drawn_j;
      fields[3].sum += s.battery_discharged_j;
      fields[4].sum += s.brown_j;
      fields[5].sum += s.curtailed_j;
      fields[6].sum += s.demand_j;
      fields[7].sum += s.overhead_transition_j;
      fields[8].sum += s.overhead_migration_j;
    }
    AuditCheck check;
    check.name = "ledger.totals";
    check.passed = true;
    std::string bad;
    double worst = -1.0;
    for (const auto& f : fields) {
      const double tol =
          opt.run_abs_tol_j + opt.run_rel_tol * scale_of(f.total, f.sum);
      const double residual = std::abs(f.total - f.sum);
      if (residual > tol) {
        check.passed = false;
        if (bad.empty()) bad = f.name;
      }
      const double severity = tol > 0.0 ? residual / tol : residual;
      if (severity > worst) {
        worst = severity;
        check.lhs = f.total;
        check.rhs = f.sum;
        check.tolerance = tol;
        check.detail = std::string("worst field: ") + f.name;
      }
    }
    if (!check.passed)
      check.detail += ", first failing field: " + bad;
    report.checks.push_back(std::move(check));
  }

  // --- battery: ledger columns vs internal counters, and the closed
  //     internal energy identity -------------------------------------
  report.checks.push_back(scalar_check(
      "battery.flow_in", totals.battery_charge_drawn_j,
      battery.total_charged_in_j(), opt.run_abs_tol_j, opt.run_rel_tol,
      "ledger charge column vs Battery::total_charged_in_j"));
  report.checks.push_back(scalar_check(
      "battery.flow_out", totals.battery_discharged_j,
      battery.total_discharged_out_j(), opt.run_abs_tol_j,
      opt.run_rel_tol,
      "ledger discharge column vs Battery::total_discharged_out_j"));
  report.checks.push_back(scalar_check(
      "battery.identity",
      battery.total_charged_in_j() - battery.total_discharged_out_j(),
      (battery.stored_j() - battery.initial_stored_j()) +
          battery.conversion_loss_j() +
          battery.self_discharge_loss_j() + battery.clamp_loss_j(),
      opt.run_abs_tol_j, opt.run_rel_tol,
      "in - out = dStored + conversion + self_discharge + clamp"));
  if (n > 0)
    report.checks.push_back(scalar_check(
        "battery.final_soc", slots.back().battery_stored_end_j,
        battery.stored_j(), opt.run_abs_tol_j, opt.run_rel_tol,
        "last slot SoC vs Battery::stored_j"));

  // --- grid meter vs ledger brown column -----------------------------
  report.checks.push_back(scalar_check(
      "grid.import", totals.brown_j, engine.grid_meter().total_j(),
      opt.run_abs_tol_j, opt.run_rel_tol,
      "ledger brown column vs GridMeter::total_j"));

  // --- result aggregation consistency --------------------------------
  const metrics::RunResult& result = artifacts.result;
  report.checks.push_back(scalar_check(
      "result.energy_totals", result.energy.demand_j, totals.demand_j,
      0.0, 0.0, "RunResult.energy is the ledger totals verbatim"));

  // --- task accounting ------------------------------------------------
  report.checks.push_back(exact_count_check(
      "qos.task_accounting", result.qos.tasks_total,
      result.qos.tasks_completed + result.qos.tasks_unfinished,
      "admitted = completed + unfinished"));
  {
    AuditCheck check;
    check.name = "qos.deadline_misses";
    check.lhs = static_cast<double>(result.qos.deadline_misses);
    check.rhs = static_cast<double>(result.qos.tasks_total);
    check.tolerance = 0.0;
    check.passed =
        result.qos.deadline_misses >= result.qos.tasks_unfinished &&
        result.qos.deadline_misses <= result.qos.tasks_total;
    check.detail = "unfinished <= misses <= admitted (unfinished=" +
                   std::to_string(result.qos.tasks_unfinished) + ")";
    report.checks.push_back(std::move(check));
  }

  // --- open-system arrival accounting --------------------------------
  // Every arrival the stream emitted is either admitted into the pool
  // or explicitly booked as rejected (tasks still deferred at the run
  // horizon are booked rejected at finalize). Degenerates to 0 == 0
  // for closed-loop runs, so the check is unconditional.
  report.checks.push_back(exact_count_check(
      "admission.arrival_accounting", result.qos.arrivals_generated,
      result.qos.arrivals_admitted + result.qos.arrivals_rejected,
      "arrivals = admitted + rejected"));
  {
    AuditCheck check;
    check.name = "admission.overflow_bound";
    check.lhs = static_cast<double>(result.qos.arrivals_overflow_admits);
    check.rhs = static_cast<double>(result.qos.arrivals_admitted);
    check.tolerance = 0.0;
    check.passed = result.qos.arrivals_overflow_admits <=
                   result.qos.arrivals_admitted;
    check.detail = "overflow admits are a subset of admitted arrivals";
    report.checks.push_back(std::move(check));
  }

  // --- coverage --------------------------------------------------------
  // The power manager keeps coverage and the coverage floor
  // incrementally; the full scans and a fresh greedy are the reference.
  {
    const core::PowerManager& power = engine.power();
    const storage::Cluster& cluster = engine.cluster();
    const int floor = storage::Cluster::active_count(
        cluster.choose_active_set(0, &power.failed()));
    AuditCheck check;
    check.name = "power.coverage";
    check.lhs = cluster.covered_groups(power.active());
    check.rhs = cluster.coverable_groups(power.failed());
    check.tolerance = 0.0;
    check.passed = check.lhs == check.rhs && power.min_feasible() == floor;
    check.detail = "covered = coverable groups; floor " +
                   std::to_string(power.min_feasible()) +
                   " vs greedy " + std::to_string(floor);
    report.checks.push_back(std::move(check));
  }

  return report;
}

RoundTripResult config_roundtrip(const core::ExperimentConfig& config) {
  const auto echo1 = core::config_echo(config);

  KeyValueConfig kv;
  for (const auto& [key, value] : echo1) kv.set(key, value);
  core::ExperimentConfig reapplied = core::ExperimentConfig::canonical();
  core::apply_config(reapplied, kv);
  const auto echo2 = core::config_echo(reapplied);

  RoundTripResult result;
  const std::size_t common = std::min(echo1.size(), echo2.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (echo1[i] == echo2[i]) continue;
    result.fixed_point = false;
    result.mismatches.push_back(echo1[i].first + ": '" +
                                echo1[i].second + "' -> " +
                                echo2[i].first + "='" + echo2[i].second +
                                "'");
  }
  for (std::size_t i = common; i < echo1.size(); ++i) {
    result.fixed_point = false;
    result.mismatches.push_back(echo1[i].first + ": '" +
                                echo1[i].second + "' -> (missing)");
  }
  for (std::size_t i = common; i < echo2.size(); ++i) {
    result.fixed_point = false;
    result.mismatches.push_back(echo2[i].first + ": (missing) -> '" +
                                echo2[i].second + "'");
  }
  return result;
}

}  // namespace gm::audit
