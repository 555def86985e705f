// Tests for gm::audit: the end-of-run conservation auditor, the
// injected-leak acceptance scenario (a leak small enough to pass the
// ledger's relative tolerance must still be caught, both by the audit
// and by the golden-output rendering), and the config round-trip
// fixed-point check.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "audit/audit.hpp"
#include "core/config_io.hpp"
#include "core/engine.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"

namespace gm {
namespace {

core::ExperimentConfig short_config() {
  auto config = core::ExperimentConfig::canonical();
  config.workload.duration_days = 1;
  config.battery = energy::BatteryConfig::lithium_ion(kwh_to_j(40.0));
  config.battery.initial_soc_fraction = 0.5;
  return config;
}

struct Finished {
  core::RunArtifacts artifacts;
  audit::AuditReport report;
};

Finished run_and_audit(const core::ExperimentConfig& config) {
  core::SimulationEngine engine(config);
  Finished f{engine.run(), {}};
  f.report = audit::audit_run(engine, f.artifacts);
  return f;
}

bool check_passed(const audit::AuditReport& report,
                  const std::string& name) {
  for (const auto& c : report.checks)
    if (c.name == name) return c.passed;
  ADD_FAILURE() << "check not found: " << name;
  return false;
}

TEST(Audit, CleanRunPassesEveryCheck) {
  const Finished f = run_and_audit(short_config());
  EXPECT_TRUE(f.report.passed());
  EXPECT_EQ(f.report.failures(), 0u);
  // The suite is substantial, not a stub.
  EXPECT_GE(f.report.checks.size(), 15u);
}

// PowerManager keeps coverage and the coverage floor incrementally;
// power.coverage re-derives both with full scans at run end. Failures,
// one of them permanent, are what move the floor.
TEST(Audit, CoverageCheckPassesOnARunWithFailures) {
  auto config = short_config();
  config.node_failures.push_back(core::NodeFailureEvent{
      .fail_at = 3 * 3600, .recover_at = 9 * 3600, .node = 2});
  config.node_failures.push_back(core::NodeFailureEvent{
      .fail_at = 5 * 3600, .recover_at = 0, .node = 11});
  const Finished f = run_and_audit(config);
  EXPECT_EQ(f.artifacts.result.scheduler.nodes_failed, 2u);
  EXPECT_TRUE(check_passed(f.report, "power.coverage"));
  EXPECT_TRUE(f.report.passed());
}

TEST(Audit, CleanRunPassesAcrossPoliciesAndVariants) {
  for (const char* policy : {"asap", "opportunistic", "greenmatch"}) {
    auto config = short_config();
    KeyValueConfig kv;
    kv.set("policy.kind", policy);
    core::apply_config(config, kv);
    const Finished f = run_and_audit(config);
    EXPECT_TRUE(f.report.passed()) << policy;
  }
  // Wind + MAID + event fidelity exercise every demand channel.
  auto config = short_config();
  KeyValueConfig kv;
  kv.set("wind.enabled", "true");
  kv.set("sim.maid", "true");
  kv.set("sim.fidelity", "event");
  core::apply_config(config, kv);
  EXPECT_TRUE(run_and_audit(config).report.passed());
}

// The acceptance scenario: a 1e-3 J/slot leak is ~1e-10 of a slot's
// energy — far inside the EnergyLedger's relative tolerance, so the
// run completes without the ledger throwing. The audit's absolute
// per-slot re-check must flag it anyway.
TEST(Audit, InjectedLeakPassesLedgerButFailsAudit) {
  auto config = short_config();
  config.test_leak_j_per_slot = 1e-3;
  Finished f{};
  ASSERT_NO_THROW(f = run_and_audit(config));  // ledger blind to it
  EXPECT_FALSE(f.report.passed());
  EXPECT_FALSE(check_passed(f.report, "slot.supply_split"));
  // The leak is booked as phantom curtailment, so the demand side and
  // the battery books stay consistent — the audit localizes the break.
  EXPECT_TRUE(check_passed(f.report, "slot.demand_coverage"));
  EXPECT_TRUE(check_passed(f.report, "battery.identity"));
}

TEST(Audit, LeakBelowTolerancePasses) {
  auto config = short_config();
  config.test_leak_j_per_slot = 1e-9;  // inside slot_abs_tol_j
  EXPECT_TRUE(run_and_audit(config).report.passed());
}

// The same leak must also surface in the golden-output rendering: the
// slot CSV is written at full round-trip precision, so curtailment
// shifted by 1e-3 J (~3e-10 kWh) renders differently.
TEST(Audit, InjectedLeakChangesGoldenCsvRendering) {
  const auto render_curtailed = [](const core::ExperimentConfig& c) {
    core::SimulationEngine engine(c);
    const auto artifacts = engine.run();
    std::ostringstream out;
    CsvWriter csv(out);
    for (const auto& s : artifacts.ledger.slots())
      csv.field(j_to_kwh(s.curtailed_j));
    csv.end_row();
    return out.str();
  };
  auto clean = short_config();
  auto leaky = short_config();
  leaky.test_leak_j_per_slot = 1e-3;
  EXPECT_NE(render_curtailed(clean), render_curtailed(leaky));
  // Control: the rendering itself is deterministic.
  EXPECT_EQ(render_curtailed(clean), render_curtailed(clean));
}

TEST(Audit, ReportPrintsVerdictPerCheck) {
  const Finished f = run_and_audit(short_config());
  std::ostringstream out;
  f.report.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("[PASS] battery.identity"), std::string::npos);
  EXPECT_NE(text.find("[PASS] slot.supply_split"), std::string::npos);
  EXPECT_NE(text.find("0 failures"), std::string::npos);
}

TEST(Audit, WriteJsonlEmitsOneParseableRecordPerCheck) {
  const Finished f = run_and_audit(short_config());
  const std::string path =
      ::testing::TempDir() + "/gm_audit_records.jsonl";
  std::remove(path.c_str());
  f.report.write_jsonl(path, "unit-test");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t checks = 0, runs = 0;
  while (std::getline(in, line)) {
    const auto record = obs::parse_flat_json(line);
    EXPECT_EQ(obs::record_str(record, "label"), "unit-test");
    const std::string kind = obs::record_str(record, "kind");
    if (kind == "audit_check") ++checks;
    if (kind == "audit_run") ++runs;
  }
  EXPECT_EQ(checks, f.report.checks.size());
  EXPECT_EQ(runs, 1u);
  std::remove(path.c_str());
}

TEST(Audit, EmitFeedsRecorderMetrics) {
  auto config = short_config();
  obs::RecorderConfig rc;  // no files: metrics registry only
  rc.profile = true;
  auto recorder = std::make_shared<obs::Recorder>(rc);
  core::SimulationEngine engine(config, recorder);
  const auto artifacts = engine.run();
  const auto report = audit::audit_run(engine, artifacts);
  report.emit(*recorder);
  EXPECT_EQ(recorder->metrics().counter("audit.checks"),
            static_cast<std::uint64_t>(report.checks.size()));
  EXPECT_EQ(recorder->metrics().counter("audit.failures"), 0u);
}

// ------------------------------------------------- config round-trip

TEST(AuditRoundTrip, CanonicalConfigIsAFixedPoint) {
  const auto result =
      audit::config_roundtrip(core::ExperimentConfig::canonical());
  EXPECT_TRUE(result.fixed_point)
      << (result.mismatches.empty() ? "" : result.mismatches.front());
}

TEST(AuditRoundTrip, AllBatteryTechnologiesAndGridProfiles) {
  for (const char* technology : {"la", "li", "ideal"}) {
    for (const char* profile : {"flat", "wind-heavy", "solar-heavy"}) {
      auto config = core::ExperimentConfig::canonical();
      KeyValueConfig kv;
      kv.set("battery.technology", technology);
      kv.set("battery.kwh", "25");
      kv.set("battery.initial_soc", "0.5");
      kv.set("grid.profile", profile);
      core::apply_config(config, kv);
      const auto result = audit::config_roundtrip(config);
      EXPECT_TRUE(result.fixed_point)
          << technology << "/" << profile << ": "
          << (result.mismatches.empty() ? "" : result.mismatches.front());
    }
  }
}

TEST(AuditRoundTrip, ReportsTheOffendingKey) {
  // A programmatically-built config whose grid profile name lies about
  // its curves cannot round-trip; the mismatch names the key.
  auto config = core::ExperimentConfig::canonical();
  config.grid = energy::GridConfig::wind_heavy();
  config.grid.profile = "flat";  // deliberately inconsistent
  const auto result = audit::config_roundtrip(config);
  // The echo says "flat", reapplying installs flat curves — which is
  // self-consistent at the echo level, so this IS a fixed point; the
  // lie is invisible to the key space. Document that boundary here.
  EXPECT_TRUE(result.fixed_point);
}

}  // namespace
}  // namespace gm
