// greenmatch_sim — the experiment-runner CLI.
//
//   greenmatch_sim [config-file] [key=value ...] [--slots]
//                  [--audit[=FILE]] [--trace=FILE] [--metrics=FILE]
//                  [--manifest=FILE] [--profile] [--help]
//
// Runs one simulation from canonical defaults + the optional config
// file + any key=value overrides (same key space as the file format),
// then prints the run summary. `--slots` additionally emits the
// per-slot energy ledger as CSV on stdout.
//
// Correctness (docs/correctness.md):
//   --audit         runs the gm::audit conservation checks and the
//                   config round-trip check after the simulation; the
//                   verdict table goes to stderr (stdout stays clean
//                   for --slots pipelines) and any violation fails the
//                   run with exit code 4. --audit=FILE additionally
//                   appends one JSONL record per check to FILE.
//
// Observability (docs/observability.md):
//   --trace=FILE    structured JSONL trace (one record per slot plus
//                   discrete events); a run manifest is written next
//                   to it as FILE stem + .manifest.json
//   --metrics=FILE  metrics registry export; .csv selects CSV,
//                   anything else Prometheus text exposition
//   --manifest=FILE explicit manifest path (overrides derivation)
//   --profile       GM_OBS_SCOPE phase timing; prints a table with
//                   p50/p95/p99 columns
//   --provenance    per-task decision records (kind=decision in the
//                   trace; query them with tools/gm_explain)
//   --chrome-trace=FILE
//                   Chrome trace-event JSON, loadable in Perfetto
//                   (ui.perfetto.dev) or chrome://tracing
//
// When any observability flag is active, a planner telemetry stanza
// (warm starts, solver work) is printed after the summary for
// GreenMatch runs. It is withheld from plain runs so the summary
// stays byte-identical to the golden corpus.
//
// Examples:
//   greenmatch_sim policy.kind=asap battery.kwh=40
//   greenmatch_sim experiment.conf sim.fidelity=event --slots
//   greenmatch_sim configs/canonical_week.conf --trace=run.jsonl
//       --metrics=run.prom --profile --provenance
//       --chrome-trace=run.trace.json        (one command line)

#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "audit/audit.hpp"
#include "core/config_io.hpp"
#include "core/engine.hpp"
#include "obs/recorder.hpp"
#include "util/csv.hpp"

namespace {

void print_usage() {
  std::cout <<
      "usage: greenmatch_sim [config-file] [key=value ...] [--slots]\n"
      "                      [--audit[=FILE]] [--trace=FILE]\n"
      "                      [--metrics=FILE] [--manifest=FILE]\n"
      "                      [--profile] [--provenance]\n"
      "                      [--chrome-trace=FILE]\n\n"
      "Runs one GreenMatch simulation. Configuration keys:\n\n"
      << gm::core::config_keys_help();
}

void print_slot_csv(const gm::core::RunArtifacts& artifacts) {
  gm::CsvWriter csv(std::cout);
  csv.field("slot").field("start_s").field("demand_kwh")
      .field("green_supply_kwh").field("green_direct_kwh")
      .field("battery_in_kwh").field("battery_out_kwh")
      .field("brown_kwh").field("curtailed_kwh")
      .field("battery_soc_kwh").field("active_nodes");
  csv.end_row();
  const auto& slots = artifacts.ledger.slots();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const auto& s = slots[i];
    csv.field(s.slot)
        .field(s.start)
        .field(gm::j_to_kwh(s.demand_j))
        .field(gm::j_to_kwh(s.green_supply_j))
        .field(gm::j_to_kwh(s.green_direct_j))
        .field(gm::j_to_kwh(s.battery_charge_drawn_j))
        .field(gm::j_to_kwh(s.battery_discharged_j))
        .field(gm::j_to_kwh(s.brown_j))
        .field(gm::j_to_kwh(s.curtailed_j))
        .field(gm::j_to_kwh(s.battery_stored_end_j))
        .field(static_cast<std::int64_t>(
            artifacts.active_nodes_per_slot[i]));
    csv.end_row();
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool emit_slots = false;
  bool audit = false;
  std::string audit_jsonl_path;
  std::string config_path;
  gm::KeyValueConfig overrides;
  gm::obs::RecorderConfig obs_config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    }
    if (arg == "--slots") {
      emit_slots = true;
      continue;
    }
    if (arg == "--audit") {
      audit = true;
      continue;
    }
    if (arg.rfind("--audit=", 0) == 0) {
      audit = true;
      audit_jsonl_path = arg.substr(std::strlen("--audit="));
      continue;
    }
    if (arg == "--profile") {
      obs_config.profile = true;
      continue;
    }
    if (arg == "--provenance") {
      obs_config.provenance = true;
      continue;
    }
    if (arg.rfind("--chrome-trace=", 0) == 0) {
      obs_config.chrome_trace_path =
          arg.substr(std::strlen("--chrome-trace="));
      continue;
    }
    if (arg.rfind("--trace=", 0) == 0) {
      obs_config.trace_path = arg.substr(std::strlen("--trace="));
      continue;
    }
    if (arg.rfind("--metrics=", 0) == 0) {
      obs_config.metrics_path = arg.substr(std::strlen("--metrics="));
      continue;
    }
    if (arg.rfind("--manifest=", 0) == 0) {
      obs_config.manifest_path = arg.substr(std::strlen("--manifest="));
      continue;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos && arg.rfind("--", 0) != 0) {
      overrides.set(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (eq == std::string::npos && config_path.empty()) {
      config_path = arg;
    } else {
      std::cerr << "error: unexpected argument '" << arg << "'\n";
      return 2;
    }
  }

  try {
    gm::core::ExperimentConfig config =
        gm::core::ExperimentConfig::canonical();
    if (!config_path.empty())
      gm::core::apply_config(
          config, gm::KeyValueConfig::load_file(config_path));
    gm::core::apply_config(config, overrides);

    std::shared_ptr<gm::obs::Recorder> recorder;
    if (obs_config.any_enabled())
      recorder = std::make_shared<gm::obs::Recorder>(obs_config);

    gm::core::SimulationEngine engine(config, recorder);
    const gm::core::RunArtifacts artifacts = engine.run();
    artifacts.result.print_summary(std::cout);

    // Planner telemetry stanza — only with observability enabled, so
    // a plain run's stdout stays byte-identical to the golden corpus.
    // Routed to stderr under --slots to keep the CSV pipeline clean.
    if (recorder) {
      const auto& s = artifacts.result.scheduler;
      if (s.solver_solves > 0 || s.warm_accepts + s.warm_rejects > 0) {
        std::ostream& out = emit_slots ? std::cerr : std::cout;
        out << "\nplanner telemetry:\n"
            << "  solves: " << s.solver_solves
            << "  cache hits: " << s.plan_cache_hits
            << "  warm accepts: " << s.warm_accepts
            << "  warm rejects: " << s.warm_rejects << '\n'
            << "  dijkstra runs: " << s.solver_dijkstra_runs
            << "  pops: " << s.solver_dijkstra_pops
            << "  relaxations: " << s.solver_relaxations
            << "  augmenting paths: " << s.solver_augmenting_paths
            << "  zero paths: " << s.solver_zero_paths << '\n'
            << "  arena bytes (peak): " << s.solver_arena_bytes_peak
            << '\n';
      }
      // Admission fast-path stanza for open-system runs — gated on the
      // recorder like the planner stanza, so plain summaries stay
      // golden-identical (counts are in the summary's admission line;
      // wall-clock latencies only ever appear here and in metrics).
      const auto& q = artifacts.result.qos;
      if (q.admission_decisions > 0) {
        std::ostream& out = emit_slots ? std::cerr : std::cout;
        out << "\nadmission telemetry:\n"
            << "  decisions: " << q.admission_decisions
            << "  admitted: " << q.arrivals_admitted
            << "  deferrals: " << q.admission_deferrals
            << "  rejected: " << q.arrivals_rejected
            << "  overflow: " << q.arrivals_overflow_admits << '\n'
            << "  decision latency: p50 "
            << s.admission_decision_p50_us << " us, p99 "
            << s.admission_decision_p99_us << " us, total "
            << s.admission_decision_wall_ms << " ms\n";
      }
    }

    if (emit_slots) {
      std::cout << '\n';
      print_slot_csv(artifacts);
    }

    bool audit_ok = true;
    if (audit) {
      const gm::audit::AuditReport report =
          gm::audit::audit_run(engine, artifacts);
      const gm::audit::RoundTripResult round_trip =
          gm::audit::config_roundtrip(config);
      report.print(std::cerr);
      if (!round_trip.fixed_point) {
        std::cerr << "audit: config round-trip is not a fixed point:\n";
        for (const auto& m : round_trip.mismatches)
          std::cerr << "  " << m << '\n';
      }
      if (!audit_jsonl_path.empty())
        report.write_jsonl(audit_jsonl_path,
                           artifacts.result.scheduler.policy_name);
      if (recorder) report.emit(*recorder);
      audit_ok = report.passed() && round_trip.fixed_point;
    }

    if (recorder) {
      recorder->finish();
      if (recorder->config().profile) {
        std::cout << '\n';
        recorder->profiler().print_table(std::cout);
      }
    }
    return audit_ok ? 0 : 4;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
