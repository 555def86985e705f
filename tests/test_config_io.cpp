// Tests for the key=value config format and its mapping onto
// ExperimentConfig.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/config_io.hpp"
#include "storage/cluster.hpp"
#include "util/assert.hpp"
#include "util/config_kv.hpp"

namespace gm {
namespace {

TEST(KeyValueConfig, ParsesBasicFile) {
  const auto kv = KeyValueConfig::parse(
      "# comment\n"
      "a.b = 3\n"
      "   c   =   hello world  # trailing comment\n"
      "\n"
      "flag = true\n"
      "rate = 2.5\n");
  EXPECT_EQ(kv.size(), 4u);
  EXPECT_EQ(kv.get_int("a.b"), 3);
  EXPECT_EQ(kv.get_string("c"), "hello world");
  EXPECT_EQ(kv.get_bool("flag"), true);
  EXPECT_DOUBLE_EQ(*kv.get_double("rate"), 2.5);
  EXPECT_TRUE(kv.unconsumed_keys().empty());
}

TEST(KeyValueConfig, MissingKeysReturnNullopt) {
  const auto kv = KeyValueConfig::parse("x = 1\n");
  EXPECT_FALSE(kv.get_string("y").has_value());
  EXPECT_EQ(kv.get_int_or("y", 7), 7);
  EXPECT_EQ(kv.get_string_or("y", "d"), "d");
  EXPECT_DOUBLE_EQ(kv.get_double_or("y", 1.5), 1.5);
  EXPECT_TRUE(kv.get_bool_or("y", true));
}

TEST(KeyValueConfig, RejectsMalformed) {
  EXPECT_THROW(KeyValueConfig::parse("no equals sign\n"),
               InvalidArgument);
  EXPECT_THROW(KeyValueConfig::parse("= value\n"), InvalidArgument);
  EXPECT_THROW(KeyValueConfig::parse("a=1\na=2\n"), InvalidArgument);
}

TEST(KeyValueConfig, TypedGettersRejectGarbage) {
  const auto kv = KeyValueConfig::parse("n = abc\nb = maybe\n");
  EXPECT_THROW(kv.get_int("n"), InvalidArgument);
  EXPECT_THROW(kv.get_double("n"), InvalidArgument);
  EXPECT_THROW(kv.get_bool("b"), InvalidArgument);
}

TEST(KeyValueConfig, BoolSpellings) {
  const auto kv = KeyValueConfig::parse(
      "a=true\nb=FALSE\nc=1\nd=0\ne=Yes\nf=off\n");
  EXPECT_TRUE(*kv.get_bool("a"));
  EXPECT_FALSE(*kv.get_bool("b"));
  EXPECT_TRUE(*kv.get_bool("c"));
  EXPECT_FALSE(*kv.get_bool("d"));
  EXPECT_TRUE(*kv.get_bool("e"));
  EXPECT_FALSE(*kv.get_bool("f"));
}

TEST(KeyValueConfig, TracksUnconsumed) {
  const auto kv = KeyValueConfig::parse("used = 1\nunused = 2\n");
  kv.get_int("used");
  const auto leftover = kv.unconsumed_keys();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "unused");
}

TEST(KeyValueConfig, SetOverrides) {
  KeyValueConfig kv;
  kv.set("k", "5");
  EXPECT_EQ(kv.get_int("k"), 5);
  kv.set("k", "9");
  EXPECT_EQ(kv.get_int("k"), 9);
}

TEST(KeyValueConfig, MissingFileThrows) {
  EXPECT_THROW(KeyValueConfig::load_file("/no/such/file.conf"),
               RuntimeError);
}

// ------------------------------------------------------- config_io

TEST(ConfigIo, AppliesAllSections) {
  auto config = core::ExperimentConfig::canonical();
  const auto kv = KeyValueConfig::parse(
      "cluster.racks = 2\n"
      "cluster.nodes_per_rack = 8\n"
      "cluster.replication = 2\n"
      "workload.preset = read-heavy\n"
      "workload.days = 3\n"
      "workload.seed = 77\n"
      "solar.panel_area_m2 = 80\n"
      "battery.technology = la\n"
      "battery.kwh = 25\n"
      "battery.initial_soc = 0.5\n"
      "policy.kind = opportunistic\n"
      "policy.deferral = 0.4\n"
      "sim.fidelity = event\n"
      "sim.dwell_slots = 3\n");
  core::apply_config(config, kv);

  EXPECT_EQ(config.cluster.racks, 2);
  EXPECT_EQ(config.cluster.nodes_per_rack, 8);
  EXPECT_EQ(config.cluster.placement.replication, 2);
  EXPECT_EQ(config.workload.duration_days, 3);
  EXPECT_EQ(config.workload.seed, 77u);
  EXPECT_DOUBLE_EQ(config.workload.foreground.read_fraction, 0.92);
  EXPECT_DOUBLE_EQ(config.panel_area_m2, 80.0);
  EXPECT_EQ(config.battery.technology,
            energy::BatteryTechnology::kLeadAcid);
  EXPECT_DOUBLE_EQ(j_to_kwh(config.battery.capacity_j), 25.0);
  EXPECT_DOUBLE_EQ(config.battery.initial_soc_fraction, 0.5);
  EXPECT_EQ(config.policy.kind, core::PolicyKind::kOpportunistic);
  EXPECT_DOUBLE_EQ(config.policy.deferral_fraction, 0.4);
  EXPECT_EQ(config.fidelity, core::Fidelity::kEventLevel);
  EXPECT_EQ(config.min_dwell_slots, 3);
}

// workload.task_scale is the deep-queue knob for the massive-fleet
// bench tier: it must survive an apply -> echo -> apply round trip so
// scale manifests replay exactly.
TEST(ConfigIo, TaskScaleAppliesAndEchoes) {
  auto config = core::ExperimentConfig::canonical();
  core::apply_config(
      config, KeyValueConfig::parse("workload.task_scale = 2.5\n"));
  EXPECT_DOUBLE_EQ(config.workload.task_scale, 2.5);

  std::string echo_text;
  for (const auto& [k, v] : core::config_echo(config))
    echo_text += k + " = " + v + "\n";
  auto replay = core::ExperimentConfig::canonical();
  core::apply_config(replay, KeyValueConfig::parse(echo_text));
  EXPECT_DOUBLE_EQ(replay.workload.task_scale, 2.5);
  EXPECT_EQ(replay.workload.fingerprint(),
            config.workload.fingerprint());
}

TEST(ConfigIo, RejectsUnknownKeys) {
  auto config = core::ExperimentConfig::canonical();
  const auto kv = KeyValueConfig::parse("polcy.kind = asap\n");  // typo
  EXPECT_THROW(core::apply_config(config, kv), InvalidArgument);
}

TEST(ConfigIo, RejectsBadEnumValues) {
  auto config = core::ExperimentConfig::canonical();
  EXPECT_THROW(core::apply_config(
                   config, KeyValueConfig::parse("policy.kind = x\n")),
               InvalidArgument);
  config = core::ExperimentConfig::canonical();
  EXPECT_THROW(
      core::apply_config(
          config, KeyValueConfig::parse("sim.fidelity = medium\n")),
      InvalidArgument);
  config = core::ExperimentConfig::canonical();
  EXPECT_THROW(
      core::apply_config(
          config, KeyValueConfig::parse("battery.technology = nimh\n")),
      InvalidArgument);
  config = core::ExperimentConfig::canonical();
  EXPECT_THROW(
      core::apply_config(
          config, KeyValueConfig::parse("workload.preset = huge\n")),
      InvalidArgument);
}

TEST(ConfigIo, PolicyKindNames) {
  EXPECT_EQ(core::parse_policy_kind("asap"), core::PolicyKind::kAsap);
  EXPECT_EQ(core::parse_policy_kind("esd-only"),
            core::PolicyKind::kAsap);
  EXPECT_EQ(core::parse_policy_kind("greenmatch"),
            core::PolicyKind::kGreenMatch);
  EXPECT_EQ(core::parse_policy_kind("greenmatch-greedy"),
            core::PolicyKind::kGreenMatchGreedy);
  EXPECT_EQ(core::parse_policy_kind("night-shift"),
            core::PolicyKind::kNightShift);
  EXPECT_THROW(core::parse_policy_kind("magic"), InvalidArgument);
}

TEST(ConfigIo, ValidatesResultingConfig) {
  auto config = core::ExperimentConfig::canonical();
  // 30-day run exceeds the default 14-day solar horizon.
  const auto kv = KeyValueConfig::parse("workload.days = 30\n");
  EXPECT_THROW(core::apply_config(config, kv), InvalidArgument);
}

// Every integer key is narrowed to its field's type. A value that does
// not fit must fail naming the key, not wrap: cluster.racks =
// 4294967300 used to run a 4-rack cluster, and cluster.groups = -1
// asked for 4,294,967,295 groups.
TEST(ConfigIo, IntegerKeysOutOfRangeThrowNamingTheKey) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"cluster.racks", "4294967300"},
      {"cluster.nodes_per_rack", "4294967300"},
      {"cluster.replication", "4294967298"},
      {"cluster.groups", "-1"},
      {"cluster.groups", "4294967300"},
      {"cluster.task_slots", "-4294967295"},
      {"workload.days", "4294967298"},
      {"solar.horizon_days", "2147483648"},
      {"wind.horizon_days", "4294967310"},
      {"policy.horizon", "4294967320"},
      {"scheduler.shards", "4294967304"},
      {"sim.dwell_slots", "-2147483649"},
      {"sim.drain_slots", "4294967297"},
      {"sim.maid_min_disks", "4294967298"},
      {"admission.horizon", "4294967300"},
  };
  for (const auto& [key, value] : cases) {
    auto config = core::ExperimentConfig::canonical();
    try {
      core::apply_config(config,
                         KeyValueConfig::parse(key + " = " + value + "\n"));
      ADD_FAILURE() << key << " = " << value << " was accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
      EXPECT_NE(what.find(value), std::string::npos) << what;
    }
  }
  // The edge of a type still narrows; validation judges it.
  auto config = core::ExperimentConfig::canonical();
  core::apply_config(config,
                     KeyValueConfig::parse("cluster.groups = 4294967295\n"));
  EXPECT_EQ(config.cluster.placement.group_count, 4294967295u);
}

// total_nodes() is an int product, so validation rejects a cluster
// whose node count exceeds INT_MAX before anything multiplies.
TEST(ConfigIo, RejectsClustersBeyondIntMaxNodes) {
  storage::ClusterConfig cluster;
  cluster.racks = 65536;
  cluster.nodes_per_rack = 32768;  // 2^31 nodes
  EXPECT_THROW(cluster.validate(), InvalidArgument);
  cluster.nodes_per_rack = 32767;  // 2,147,418,112 nodes
  EXPECT_NO_THROW(cluster.validate());
  cluster.racks = 2147483647;
  cluster.nodes_per_rack = 2;
  EXPECT_THROW(cluster.validate(), InvalidArgument);

  auto config = core::ExperimentConfig::canonical();
  EXPECT_THROW(core::apply_config(config, KeyValueConfig::parse(
                                              "cluster.racks = 65536\n"
                                              "cluster.nodes_per_rack = "
                                              "32768\n")),
               InvalidArgument);
}

TEST(ConfigIo, HelpMentionsEveryKeyFamily) {
  const std::string help = core::config_keys_help();
  for (const char* family :
       {"cluster.", "workload.", "solar.", "wind.", "battery.",
        "policy.", "sim.", "forecast.", "grid.", "arrivals.",
        "admission."})
    EXPECT_NE(help.find(family), std::string::npos) << family;
}

// ----------------------------------------- echo / re-apply regressions

namespace {
std::string echoed(const core::ExperimentConfig& config,
                   const std::string& key) {
  for (const auto& [k, v] : core::config_echo(config))
    if (k == key) return v;
  ADD_FAILURE() << "config_echo has no key " << key;
  return {};
}
}  // namespace

// Regression: apply_config used to default battery.technology to "li"
// whenever the current technology wasn't lead-acid, so re-applying an
// unrelated key to an ideal-battery config silently swapped the
// battery for a lithium-ion one.
TEST(ConfigIo, ReapplyPreservesIdealBatteryTechnology) {
  auto config = core::ExperimentConfig::canonical();
  core::apply_config(config,
                     KeyValueConfig::parse("battery.technology = ideal\n"
                                           "battery.kwh = 20\n"));
  ASSERT_EQ(config.battery.technology,
            energy::BatteryTechnology::kCustom);
  ASSERT_DOUBLE_EQ(config.battery.charge_efficiency, 1.0);

  // Touch an unrelated key; the battery must survive untouched.
  core::apply_config(config, KeyValueConfig::parse("workload.days = 3\n"));
  EXPECT_EQ(config.battery.technology,
            energy::BatteryTechnology::kCustom);
  EXPECT_DOUBLE_EQ(config.battery.charge_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(config.battery.depth_of_discharge, 1.0);
  EXPECT_DOUBLE_EQ(j_to_kwh(config.battery.capacity_j), 20.0);
}

// Regression: re-applying also used to reset initial_soc to the fresh
// preset's zero rather than keeping the configured value.
TEST(ConfigIo, ReapplyPreservesInitialSoc) {
  auto config = core::ExperimentConfig::canonical();
  core::apply_config(config,
                     KeyValueConfig::parse("battery.kwh = 40\n"
                                           "battery.initial_soc = 0.5\n"));
  ASSERT_DOUBLE_EQ(config.battery.initial_soc_fraction, 0.5);
  core::apply_config(config, KeyValueConfig::parse("workload.days = 2\n"));
  EXPECT_DOUBLE_EQ(config.battery.initial_soc_fraction, 0.5);
}

// Regression: config_echo omitted grid.profile, so a manifest replay of
// a carbon-aware run silently fell back to the flat grid.
TEST(ConfigIo, EchoIncludesGridProfile) {
  auto config = core::ExperimentConfig::canonical();
  EXPECT_EQ(echoed(config, "grid.profile"), "flat");
  core::apply_config(
      config, KeyValueConfig::parse("grid.profile = wind-heavy\n"));
  EXPECT_EQ(echoed(config, "grid.profile"), "wind-heavy");
  // Presets assigned through the C++ API carry their name too.
  config.grid = energy::GridConfig::solar_heavy();
  EXPECT_EQ(echoed(config, "grid.profile"), "solar-heavy");
}

TEST(ConfigIo, EchoBatteryTechnologyNamesEveryPreset) {
  auto config = core::ExperimentConfig::canonical();
  config.battery = energy::BatteryConfig::lead_acid(kwh_to_j(10));
  EXPECT_EQ(echoed(config, "battery.technology"), "la");
  config.battery = energy::BatteryConfig::lithium_ion(kwh_to_j(10));
  EXPECT_EQ(echoed(config, "battery.technology"), "li");
  config.battery = energy::BatteryConfig::ideal(kwh_to_j(10));
  EXPECT_EQ(echoed(config, "battery.technology"), "ideal");
}

// Regression: apply_config read forecast.error_at_1h but not
// forecast.error_cap or forecast.seed (or the newer bias/AR(1) knobs),
// so a manifest replay of a noisy-forecast run silently reverted those
// to defaults.
TEST(ConfigIo, ForecastNoiseKeysApplyAndEcho) {
  auto config = core::ExperimentConfig::canonical();
  core::apply_config(config, KeyValueConfig::parse(
      "forecast.noisy = true\n"
      "forecast.error_at_1h = 0.12\n"
      "forecast.error_cap = 0.4\n"
      "forecast.bias_at_1h = 0.08\n"
      "forecast.ar1_rho = 0.7\n"
      "forecast.seed = 4242\n"));
  EXPECT_TRUE(config.noisy_forecast);
  EXPECT_DOUBLE_EQ(config.forecast_noise.error_at_1h, 0.12);
  EXPECT_DOUBLE_EQ(config.forecast_noise.error_cap, 0.4);
  EXPECT_DOUBLE_EQ(config.forecast_noise.bias_at_1h, 0.08);
  EXPECT_DOUBLE_EQ(config.forecast_noise.ar1_rho, 0.7);
  EXPECT_EQ(config.forecast_noise.seed, 4242u);
  EXPECT_DOUBLE_EQ(std::stod(echoed(config, "forecast.error_cap")), 0.4);
  EXPECT_EQ(echoed(config, "forecast.seed"), "4242");
  EXPECT_DOUBLE_EQ(std::stod(echoed(config, "forecast.ar1_rho")), 0.7);
}

// Regression: node-failure injections had no kv form at all, so no
// failure experiment could be reproduced from its manifest.
TEST(ConfigIo, FailureKeysApplyAndEcho) {
  auto config = core::ExperimentConfig::canonical();
  core::apply_config(config, KeyValueConfig::parse(
      "failures.events = 3@7200@10800;5@9000@0\n"
      "failures.repair_rate_bytes_per_s = 1.5e8\n"
      "failures.repair_deadline_s = 43200\n"));
  ASSERT_EQ(config.node_failures.size(), 2u);
  EXPECT_EQ(config.node_failures[0].node, 3u);
  EXPECT_EQ(config.node_failures[0].fail_at, 7200);
  EXPECT_EQ(config.node_failures[0].recover_at, 10800);
  EXPECT_EQ(config.node_failures[1].node, 5u);
  EXPECT_EQ(config.node_failures[1].recover_at, 0);  // permanent
  EXPECT_DOUBLE_EQ(config.repair_rate_bytes_per_s, 1.5e8);
  EXPECT_DOUBLE_EQ(config.repair_deadline_s, 43200.0);
  EXPECT_EQ(echoed(config, "failures.events"), "3@7200@10800;5@9000@0");

  // Echo -> apply -> echo is a fixed point (audit's round-trip check
  // relies on this for every key, including the event list).
  auto replay = core::ExperimentConfig::canonical();
  KeyValueConfig kv;
  for (const auto& [k, v] : core::config_echo(config)) kv.set(k, v);
  core::apply_config(replay, kv);
  EXPECT_EQ(core::config_echo(replay), core::config_echo(config));
}

TEST(ConfigIo, FailureEventsRejectMalformedEntries) {
  auto config = core::ExperimentConfig::canonical();
  EXPECT_THROW(
      core::apply_config(
          config, KeyValueConfig::parse("failures.events = 3@7200\n")),
      InvalidArgument);
  EXPECT_THROW(
      core::apply_config(
          config,
          KeyValueConfig::parse("failures.events = x@1@2\n")),
      InvalidArgument);
}

// Regression: overlapping outages on one node were accepted, and the
// run then counted and repaired the node twice.
TEST(ConfigIo, FailureEventsRejectOverlapOnOneNode) {
  auto config = core::ExperimentConfig::canonical();
  EXPECT_THROW(core::apply_config(
                   config, KeyValueConfig::parse(
                               "failures.events = 3@3600@360000;"
                               "3@7200@10800\n")),
               InvalidArgument);
  EXPECT_THROW(core::apply_config(
                   config, KeyValueConfig::parse(
                               "failures.events = 3@3600@0;"
                               "3@720000@800000\n")),
               InvalidArgument);
  // Recovering at the instant of the next failure is not an overlap.
  core::apply_config(config, KeyValueConfig::parse(
                                 "failures.events = 3@3600@7200;"
                                 "3@7200@10800;4@3600@0\n"));
  EXPECT_EQ(echoed(config, "failures.events"),
            "3@3600@7200;3@7200@10800;4@3600@0");
}

TEST(ConfigIo, ScenarioKeysApplyAndEcho) {
  auto config = core::ExperimentConfig::canonical();
  core::apply_config(config, KeyValueConfig::parse(
      "scenario.failure_process = weibull\n"
      "scenario.mtbf_hours = 120\n"
      "scenario.weibull_shape = 0.6\n"
      "scenario.mttr_hours = 8\n"
      "scenario.failure_seed = 42\n"
      "scenario.spike_rate_per_day = 2\n"
      "scenario.spike_carbon_x = 4\n"
      "scenario.curtail_rate_per_day = 1.5\n"
      "scenario.curtail_supply_fraction = 0.1\n"));
  EXPECT_EQ(config.scenario.failures.process,
            scenario::FailureProcess::kWeibull);
  EXPECT_DOUBLE_EQ(config.scenario.failures.mtbf_hours, 120.0);
  EXPECT_DOUBLE_EQ(config.scenario.failures.weibull_shape, 0.6);
  EXPECT_EQ(config.scenario.failures.seed, 42u);
  EXPECT_DOUBLE_EQ(config.scenario.grid_spikes.rate_per_day, 2.0);
  EXPECT_DOUBLE_EQ(config.scenario.grid_spikes.carbon_multiplier, 4.0);
  EXPECT_DOUBLE_EQ(config.scenario.curtailment.supply_fraction, 0.1);
  EXPECT_EQ(echoed(config, "scenario.failure_process"), "weibull");
  EXPECT_EQ(echoed(config, "scenario.spike_carbon_x"), "4");
  EXPECT_TRUE(config.scenario.any());
}

TEST(ConfigIo, ArrivalAndAdmissionKeysApplyAndEcho) {
  auto config = core::ExperimentConfig::canonical();
  core::apply_config(config, KeyValueConfig::parse(
      "arrivals.enabled = true\n"
      "arrivals.rate_per_h = 150\n"
      "arrivals.seed = 8181\n"
      "arrivals.mean_work_s = 5400\n"
      "arrivals.work_sigma = 0.45\n"
      "arrivals.deadline_slack_s = 21600\n"
      "arrivals.utilization = 0.35\n"
      "arrivals.diurnal = false\n"
      "admission.horizon = 18\n"
      "admission.battery_reserve_soc = 0.4\n"
      "admission.overflow = reject\n"));
  EXPECT_TRUE(config.arrivals.enabled);
  EXPECT_DOUBLE_EQ(config.arrivals.rate_per_h, 150.0);
  EXPECT_EQ(config.arrivals.seed, 8181u);
  EXPECT_DOUBLE_EQ(config.arrivals.mean_work_s, 5400.0);
  EXPECT_DOUBLE_EQ(config.arrivals.work_sigma, 0.45);
  EXPECT_DOUBLE_EQ(config.arrivals.deadline_slack_s, 21600.0);
  EXPECT_DOUBLE_EQ(config.arrivals.utilization, 0.35);
  EXPECT_FALSE(config.arrivals.diurnal);
  EXPECT_EQ(config.admission.horizon_slots, 18);
  EXPECT_DOUBLE_EQ(config.admission.battery_reserve_soc, 0.4);
  EXPECT_EQ(config.admission.overflow, core::AdmissionOverflow::kReject);

  EXPECT_EQ(echoed(config, "arrivals.enabled"), "true");
  EXPECT_EQ(echoed(config, "arrivals.seed"), "8181");
  EXPECT_DOUBLE_EQ(std::stod(echoed(config, "arrivals.rate_per_h")), 150.0);
  EXPECT_EQ(echoed(config, "admission.horizon"), "18");
  EXPECT_EQ(echoed(config, "admission.overflow"), "reject");

  // Echo -> apply -> echo fixed point over the new key families (the
  // audit round-trip and manifest replay both lean on this).
  auto replay = core::ExperimentConfig::canonical();
  KeyValueConfig kv;
  for (const auto& [k, v] : core::config_echo(config)) kv.set(k, v);
  core::apply_config(replay, kv);
  EXPECT_EQ(core::config_echo(replay), core::config_echo(config));
}

TEST(ConfigIo, ArrivalKeysAbsentFromClosedLoopEcho) {
  // Closed-loop echoes must not grow new keys: old manifests, the
  // golden corpus, and byte-stable summaries depend on it.
  const auto config = core::ExperimentConfig::canonical();
  EXPECT_FALSE(config.arrivals.enabled);
  for (const auto& [k, v] : core::config_echo(config)) {
    EXPECT_NE(k.rfind("arrivals.", 0), 0u) << k;
    EXPECT_NE(k.rfind("admission.", 0), 0u) << k;
  }
  // The disabled state still round-trips: echo -> apply -> echo is a
  // fixed point on both sides of the gate.
  auto replay = core::ExperimentConfig::canonical();
  KeyValueConfig kv;
  for (const auto& [k, v] : core::config_echo(config)) kv.set(k, v);
  core::apply_config(replay, kv);
  EXPECT_EQ(core::config_echo(replay), core::config_echo(config));
  EXPECT_FALSE(replay.arrivals.enabled);
}

TEST(ConfigIo, AdmissionRejectsBadValues) {
  auto config = core::ExperimentConfig::canonical();
  EXPECT_THROW(
      core::apply_config(
          config,
          KeyValueConfig::parse("admission.overflow = shrug\n")),
      InvalidArgument);
  EXPECT_THROW(core::apply_config(
                   config, KeyValueConfig::parse(
                               "arrivals.enabled = true\n"
                               "arrivals.rate_per_h = -5\n")),
               InvalidArgument);
  EXPECT_THROW(core::apply_config(
                   config, KeyValueConfig::parse(
                               "admission.battery_reserve_soc = 1.5\n")),
               InvalidArgument);
}

TEST(ConfigIo, ScenarioRejectsBadValues) {
  auto config = core::ExperimentConfig::canonical();
  EXPECT_THROW(core::apply_config(
                   config, KeyValueConfig::parse(
                               "scenario.failure_process = lightning\n")),
               InvalidArgument);
  EXPECT_THROW(
      core::apply_config(
          config, KeyValueConfig::parse(
                      "scenario.failure_process = poisson\n"
                      "scenario.mtbf_hours = -1\n")),
      InvalidArgument);
  EXPECT_THROW(
      core::apply_config(
          config, KeyValueConfig::parse(
                      "scenario.curtail_rate_per_day = 1\n"
                      "scenario.curtail_supply_fraction = 1.5\n")),
      InvalidArgument);
}

}  // namespace
}  // namespace gm
