#include "core/config_io.hpp"

#include <limits>
#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace gm::core {

PolicyKind parse_policy_kind(const std::string& name) {
  if (name == "asap" || name == "esd-only") return PolicyKind::kAsap;
  if (name == "opportunistic") return PolicyKind::kOpportunistic;
  if (name == "greenmatch") return PolicyKind::kGreenMatch;
  if (name == "greenmatch-greedy") return PolicyKind::kGreenMatchGreedy;
  if (name == "night-shift" || name == "nightshift")
    return PolicyKind::kNightShift;
  throw InvalidArgument("unknown policy kind: '" + name + "'");
}

namespace {

workload::WorkloadSpec parse_workload_preset(const std::string& name,
                                             int days,
                                             std::uint64_t seed) {
  if (name == "canonical")
    return workload::WorkloadSpec::canonical(days, seed);
  if (name == "read-heavy")
    return workload::WorkloadSpec::read_heavy(days, seed);
  if (name == "backup-heavy")
    return workload::WorkloadSpec::backup_heavy(days, seed);
  throw InvalidArgument("unknown workload preset: '" + name + "'");
}

energy::BatteryConfig parse_battery(const std::string& technology,
                                    double kwh) {
  if (technology == "li" || technology == "lithium-ion")
    return energy::BatteryConfig::lithium_ion(kwh_to_j(kwh));
  if (technology == "la" || technology == "lead-acid")
    return energy::BatteryConfig::lead_acid(kwh_to_j(kwh));
  if (technology == "ideal")
    return energy::BatteryConfig::ideal(kwh_to_j(kwh));
  throw InvalidArgument("unknown battery technology: '" + technology +
                        "'");
}

/// The config-file spelling of a battery's technology — also the
/// default `battery.technology` in apply_config, so re-applying a kv
/// set that omits the key is a no-op for the technology (an in-memory
/// ideal battery must not silently become lithium-ion).
std::string echo_battery_technology(const energy::BatteryConfig& b) {
  switch (b.technology) {
    case energy::BatteryTechnology::kLeadAcid: return "la";
    case energy::BatteryTechnology::kLithiumIon: return "li";
    case energy::BatteryTechnology::kCustom: return "ideal";
  }
  return "li";
}

scenario::FailureProcess parse_failure_process(const std::string& name) {
  if (name == "none") return scenario::FailureProcess::kNone;
  if (name == "poisson") return scenario::FailureProcess::kPoisson;
  if (name == "weibull") return scenario::FailureProcess::kWeibull;
  throw InvalidArgument("unknown scenario.failure_process: '" + name +
                        "'");
}

/// failures.events value: `node@fail_s@recover_s` entries separated by
/// ';' (recover_s 0 = the node never comes back). All integers, so the
/// echo round-trips exactly.
std::vector<NodeFailureEvent> parse_failure_events(
    const std::string& text) {
  std::vector<NodeFailureEvent> events;
  std::istringstream stream(text);
  std::string entry;
  while (std::getline(stream, entry, ';')) {
    if (entry.empty()) continue;
    const auto first = entry.find('@');
    const auto second =
        first == std::string::npos ? first : entry.find('@', first + 1);
    if (second == std::string::npos)
      throw InvalidArgument(
          "failures.events entry must be node@fail_s@recover_s: '" +
          entry + "'");
    NodeFailureEvent e;
    try {
      e.node = static_cast<storage::NodeId>(
          std::stoul(entry.substr(0, first)));
      e.fail_at = static_cast<SimTime>(
          std::stoll(entry.substr(first + 1, second - first - 1)));
      e.recover_at =
          static_cast<SimTime>(std::stoll(entry.substr(second + 1)));
    } catch (const std::exception&) {
      throw InvalidArgument("bad failures.events entry: '" + entry + "'");
    }
    events.push_back(e);
  }
  return events;
}

/// Integer `key` of `kv`, or `fallback` when absent, narrowed to the
/// field's type T; a value outside T's range is an InvalidArgument
/// naming the key, not a silent wrap.
template <class T>
T get_int_as(const KeyValueConfig& kv, const std::string& key,
             T fallback) {
  const std::int64_t value =
      kv.get_int_or(key, static_cast<std::int64_t>(fallback));
  if (!std::in_range<T>(value)) {
    std::ostringstream os;
    os << "config key '" << key << "' = " << value << " is outside ["
       << +std::numeric_limits<T>::min() << ", "
       << +std::numeric_limits<T>::max() << "]";
    throw InvalidArgument(os.str());
  }
  return static_cast<T>(value);
}

std::string echo_failure_events(
    const std::vector<NodeFailureEvent>& events) {
  std::ostringstream os;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) os << ';';
    os << events[i].node << '@' << events[i].fail_at << '@'
       << events[i].recover_at;
  }
  return os.str();
}

}  // namespace

void apply_config(ExperimentConfig& config, const KeyValueConfig& kv) {
  // --- cluster -------------------------------------------------------
  config.cluster.racks =
      get_int_as<int>(kv, "cluster.racks", config.cluster.racks);
  config.cluster.nodes_per_rack = get_int_as<int>(
      kv, "cluster.nodes_per_rack", config.cluster.nodes_per_rack);
  config.cluster.placement.replication = get_int_as<int>(
      kv, "cluster.replication", config.cluster.placement.replication);
  config.cluster.placement.group_count = get_int_as<std::uint32_t>(
      kv, "cluster.groups", config.cluster.placement.group_count);
  config.cluster.node.task_slots =
      get_int_as<int>(kv, "cluster.task_slots", config.cluster.node.task_slots);

  // --- workload ------------------------------------------------------
  const int days =
      get_int_as<int>(kv, "workload.days", config.workload.duration_days);
  const auto seed = static_cast<std::uint64_t>(
      kv.get_int_or("workload.seed",
                    static_cast<std::int64_t>(config.workload.seed)));
  if (const auto preset = kv.get_string("workload.preset")) {
    config.workload = parse_workload_preset(*preset, days, seed);
  } else {
    config.workload.duration_days = days;
    config.workload.seed = seed;
  }
  config.workload.foreground.base_rate_per_s =
      kv.get_double_or("workload.foreground_rate",
                       config.workload.foreground.base_rate_per_s);
  config.workload.task_scale = kv.get_double_or(
      "workload.task_scale", config.workload.task_scale);

  // --- supply --------------------------------------------------------
  config.panel_area_m2 =
      kv.get_double_or("solar.panel_area_m2", config.panel_area_m2);
  config.solar.latitude_deg =
      kv.get_double_or("solar.latitude_deg", config.solar.latitude_deg);
  config.solar.seed = static_cast<std::uint64_t>(kv.get_int_or(
      "solar.seed", static_cast<std::int64_t>(config.solar.seed)));
  config.solar.horizon_days =
      get_int_as<int>(kv, "solar.horizon_days", config.solar.horizon_days);
  config.solar_trace_csv =
      kv.get_string_or("solar.trace_csv", config.solar_trace_csv);
  config.use_wind = kv.get_bool_or("wind.enabled", config.use_wind);
  config.wind.rated_power_w =
      kv.get_double_or("wind.rated_kw",
                       config.wind.rated_power_w / 1000.0) *
      1000.0;
  config.wind.horizon_days =
      get_int_as<int>(kv, "wind.horizon_days", config.wind.horizon_days);

  // --- battery -------------------------------------------------------
  // Rebuilding from the preset resets every battery field, so the
  // defaults must come from the *incoming* config, not the freshly
  // built preset: the technology via its echo spelling (kCustom/ideal
  // must survive a re-apply) and the initial SoC captured before the
  // rebuild overwrites it.
  const double battery_kwh = kv.get_double_or(
      "battery.kwh", j_to_kwh(config.battery.capacity_j));
  const std::string technology = kv.get_string_or(
      "battery.technology", echo_battery_technology(config.battery));
  const double prior_initial_soc = config.battery.initial_soc_fraction;
  config.battery = parse_battery(technology, battery_kwh);
  config.battery.initial_soc_fraction = kv.get_double_or(
      "battery.initial_soc", prior_initial_soc);

  // --- policy --------------------------------------------------------
  if (const auto kind = kv.get_string("policy.kind"))
    config.policy.kind = parse_policy_kind(*kind);
  config.policy.deferral_fraction = kv.get_double_or(
      "policy.deferral", config.policy.deferral_fraction);
  config.policy.horizon_slots =
      get_int_as<int>(kv, "policy.horizon", config.policy.horizon_slots);
  config.policy.battery_aware = kv.get_bool_or(
      "policy.battery_aware", config.policy.battery_aware);
  config.policy.carbon_aware = kv.get_bool_or(
      "policy.carbon_aware", config.policy.carbon_aware);
  if (const auto profile = kv.get_string("grid.profile")) {
    if (*profile == "flat")
      config.grid = energy::GridConfig::flat();
    else if (*profile == "wind-heavy")
      config.grid = energy::GridConfig::wind_heavy();
    else if (*profile == "solar-heavy")
      config.grid = energy::GridConfig::solar_heavy();
    else
      throw InvalidArgument("unknown grid profile: '" + *profile + "'");
  }
  config.policy.window_start_h = kv.get_double_or(
      "policy.window_start_h", config.policy.window_start_h);
  config.policy.window_end_h = kv.get_double_or(
      "policy.window_end_h", config.policy.window_end_h);
  config.policy.shards =
      get_int_as<int>(kv, "scheduler.shards", config.policy.shards);

  // --- simulation ----------------------------------------------------
  if (const auto fidelity = kv.get_string("sim.fidelity")) {
    if (*fidelity == "slot")
      config.fidelity = Fidelity::kSlotLevel;
    else if (*fidelity == "event")
      config.fidelity = Fidelity::kEventLevel;
    else
      throw InvalidArgument("sim.fidelity must be 'slot' or 'event'");
  }
  config.slot_length_s =
      kv.get_int_or("sim.slot_seconds", config.slot_length_s);
  config.min_dwell_slots =
      get_int_as<int>(kv, "sim.dwell_slots", config.min_dwell_slots);
  config.max_drain_slots =
      get_int_as<int>(kv, "sim.drain_slots", config.max_drain_slots);
  config.dvfs_eco_speed =
      kv.get_double_or("sim.dvfs_eco_speed", config.dvfs_eco_speed);
  config.maid_enabled = kv.get_bool_or("sim.maid", config.maid_enabled);
  config.maid_min_spinning_disks =
      get_int_as<int>(kv, "sim.maid_min_disks", config.maid_min_spinning_disks);
  config.noisy_forecast =
      kv.get_bool_or("forecast.noisy", config.noisy_forecast);
  config.forecast_noise.error_at_1h = kv.get_double_or(
      "forecast.error_at_1h", config.forecast_noise.error_at_1h);
  config.forecast_noise.error_cap = kv.get_double_or(
      "forecast.error_cap", config.forecast_noise.error_cap);
  config.forecast_noise.bias_at_1h = kv.get_double_or(
      "forecast.bias_at_1h", config.forecast_noise.bias_at_1h);
  config.forecast_noise.ar1_rho = kv.get_double_or(
      "forecast.ar1_rho", config.forecast_noise.ar1_rho);
  config.forecast_noise.seed = static_cast<std::uint64_t>(kv.get_int_or(
      "forecast.seed",
      static_cast<std::int64_t>(config.forecast_noise.seed)));

  // --- open-system arrivals & admission ------------------------------
  auto& ar = config.arrivals;
  ar.enabled = kv.get_bool_or("arrivals.enabled", ar.enabled);
  ar.rate_per_h = kv.get_double_or("arrivals.rate_per_h", ar.rate_per_h);
  ar.seed = static_cast<std::uint64_t>(kv.get_int_or(
      "arrivals.seed", static_cast<std::int64_t>(ar.seed)));
  ar.mean_work_s =
      kv.get_double_or("arrivals.mean_work_s", ar.mean_work_s);
  ar.work_sigma = kv.get_double_or("arrivals.work_sigma", ar.work_sigma);
  ar.deadline_slack_s = kv.get_double_or("arrivals.deadline_slack_s",
                                         ar.deadline_slack_s);
  ar.utilization =
      kv.get_double_or("arrivals.utilization", ar.utilization);
  ar.diurnal = kv.get_bool_or("arrivals.diurnal", ar.diurnal);
  auto& ad = config.admission;
  ad.horizon_slots = get_int_as<int>(kv, "admission.horizon", ad.horizon_slots);
  ad.battery_reserve_soc = kv.get_double_or(
      "admission.battery_reserve_soc", ad.battery_reserve_soc);
  if (const auto overflow = kv.get_string("admission.overflow")) {
    if (*overflow == "grid")
      ad.overflow = AdmissionOverflow::kGrid;
    else if (*overflow == "reject")
      ad.overflow = AdmissionOverflow::kReject;
    else
      throw InvalidArgument("admission.overflow must be 'grid' or "
                            "'reject', got '" +
                            *overflow + "'");
  }

  // --- failure injection ---------------------------------------------
  if (const auto events = kv.get_string("failures.events"))
    config.node_failures = parse_failure_events(*events);
  config.repair_rate_bytes_per_s =
      kv.get_double_or("failures.repair_rate_bytes_per_s",
                       config.repair_rate_bytes_per_s);
  config.repair_deadline_s = kv.get_double_or(
      "failures.repair_deadline_s", config.repair_deadline_s);

  // --- scenario processes --------------------------------------------
  auto& sc = config.scenario;
  if (const auto process = kv.get_string("scenario.failure_process"))
    sc.failures.process = parse_failure_process(*process);
  sc.failures.mtbf_hours =
      kv.get_double_or("scenario.mtbf_hours", sc.failures.mtbf_hours);
  sc.failures.weibull_shape = kv.get_double_or(
      "scenario.weibull_shape", sc.failures.weibull_shape);
  sc.failures.mttr_hours =
      kv.get_double_or("scenario.mttr_hours", sc.failures.mttr_hours);
  sc.failures.seed = static_cast<std::uint64_t>(kv.get_int_or(
      "scenario.failure_seed",
      static_cast<std::int64_t>(sc.failures.seed)));
  sc.grid_spikes.rate_per_day = kv.get_double_or(
      "scenario.spike_rate_per_day", sc.grid_spikes.rate_per_day);
  sc.grid_spikes.duration_h = kv.get_double_or(
      "scenario.spike_duration_h", sc.grid_spikes.duration_h);
  sc.grid_spikes.carbon_multiplier = kv.get_double_or(
      "scenario.spike_carbon_x", sc.grid_spikes.carbon_multiplier);
  sc.grid_spikes.price_multiplier = kv.get_double_or(
      "scenario.spike_price_x", sc.grid_spikes.price_multiplier);
  sc.grid_spikes.seed = static_cast<std::uint64_t>(kv.get_int_or(
      "scenario.spike_seed",
      static_cast<std::int64_t>(sc.grid_spikes.seed)));
  sc.curtailment.rate_per_day = kv.get_double_or(
      "scenario.curtail_rate_per_day", sc.curtailment.rate_per_day);
  sc.curtailment.duration_h = kv.get_double_or(
      "scenario.curtail_duration_h", sc.curtailment.duration_h);
  sc.curtailment.supply_fraction =
      kv.get_double_or("scenario.curtail_supply_fraction",
                       sc.curtailment.supply_fraction);
  sc.curtailment.seed = static_cast<std::uint64_t>(kv.get_int_or(
      "scenario.curtail_seed",
      static_cast<std::int64_t>(sc.curtailment.seed)));

  const auto unknown = kv.unconsumed_keys();
  if (!unknown.empty()) {
    std::ostringstream os;
    os << "unknown config keys:";
    for (const auto& k : unknown) os << " '" << k << "'";
    throw InvalidArgument(os.str());
  }
  config.validate();
}

ExperimentConfig config_from_file(const std::string& path) {
  ExperimentConfig config = ExperimentConfig::canonical();
  apply_config(config, KeyValueConfig::load_file(path));
  return config;
}

namespace {

std::string echo_num(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::string echo_bool(bool v) { return v ? "true" : "false"; }

}  // namespace

std::vector<std::pair<std::string, std::string>> config_echo(
    const ExperimentConfig& c) {
  std::vector<std::pair<std::string, std::string>> kv;
  const auto add = [&kv](const std::string& k, const std::string& v) {
    kv.emplace_back(k, v);
  };
  add("cluster.racks", std::to_string(c.cluster.racks));
  add("cluster.nodes_per_rack",
      std::to_string(c.cluster.nodes_per_rack));
  add("cluster.replication",
      std::to_string(c.cluster.placement.replication));
  add("cluster.groups", std::to_string(c.cluster.placement.group_count));
  add("cluster.task_slots", std::to_string(c.cluster.node.task_slots));
  add("workload.days", std::to_string(c.workload.duration_days));
  add("workload.seed", std::to_string(c.workload.seed));
  add("workload.foreground_rate",
      echo_num(c.workload.foreground.base_rate_per_s));
  add("workload.task_scale", echo_num(c.workload.task_scale));
  add("solar.panel_area_m2", echo_num(c.panel_area_m2));
  add("solar.latitude_deg", echo_num(c.solar.latitude_deg));
  add("solar.seed", std::to_string(c.solar.seed));
  add("solar.horizon_days", std::to_string(c.solar.horizon_days));
  if (!c.solar_trace_csv.empty())
    add("solar.trace_csv", c.solar_trace_csv);
  add("wind.enabled", echo_bool(c.use_wind));
  add("wind.rated_kw", echo_num(c.wind.rated_power_w / 1000.0));
  add("wind.horizon_days", std::to_string(c.wind.horizon_days));
  add("battery.technology", echo_battery_technology(c.battery));
  add("battery.kwh", echo_num(j_to_kwh(c.battery.capacity_j)));
  add("battery.initial_soc", echo_num(c.battery.initial_soc_fraction));
  add("policy.kind", policy_kind_name(c.policy.kind));
  add("policy.deferral", echo_num(c.policy.deferral_fraction));
  add("policy.horizon", std::to_string(c.policy.horizon_slots));
  add("policy.battery_aware", echo_bool(c.policy.battery_aware));
  add("policy.carbon_aware", echo_bool(c.policy.carbon_aware));
  add("grid.profile", c.grid.profile);
  add("policy.window_start_h", echo_num(c.policy.window_start_h));
  add("policy.window_end_h", echo_num(c.policy.window_end_h));
  add("scheduler.shards", std::to_string(c.policy.shards));
  add("sim.fidelity",
      c.fidelity == Fidelity::kEventLevel ? "event" : "slot");
  add("sim.slot_seconds", std::to_string(c.slot_length_s));
  add("sim.dwell_slots", std::to_string(c.min_dwell_slots));
  add("sim.drain_slots", std::to_string(c.max_drain_slots));
  add("sim.dvfs_eco_speed", echo_num(c.dvfs_eco_speed));
  add("sim.maid", echo_bool(c.maid_enabled));
  add("sim.maid_min_disks", std::to_string(c.maid_min_spinning_disks));
  add("forecast.noisy", echo_bool(c.noisy_forecast));
  add("forecast.error_at_1h", echo_num(c.forecast_noise.error_at_1h));
  add("forecast.error_cap", echo_num(c.forecast_noise.error_cap));
  add("forecast.bias_at_1h", echo_num(c.forecast_noise.bias_at_1h));
  add("forecast.ar1_rho", echo_num(c.forecast_noise.ar1_rho));
  add("forecast.seed", std::to_string(c.forecast_noise.seed));
  // Open-system keys are echoed only when the mode is on: closed-loop
  // echoes (and the goldens that pin them) stay byte-identical to
  // pre-arrival releases, same convention as solar.trace_csv and
  // failures.events. The round-trip fixed point holds either way —
  // a disabled config echoes nothing and re-applies to the defaults.
  if (c.arrivals.enabled) {
    add("arrivals.enabled", echo_bool(c.arrivals.enabled));
    add("arrivals.rate_per_h", echo_num(c.arrivals.rate_per_h));
    add("arrivals.seed", std::to_string(c.arrivals.seed));
    add("arrivals.mean_work_s", echo_num(c.arrivals.mean_work_s));
    add("arrivals.work_sigma", echo_num(c.arrivals.work_sigma));
    add("arrivals.deadline_slack_s",
        echo_num(c.arrivals.deadline_slack_s));
    add("arrivals.utilization", echo_num(c.arrivals.utilization));
    add("arrivals.diurnal", echo_bool(c.arrivals.diurnal));
    add("admission.horizon", std::to_string(c.admission.horizon_slots));
    add("admission.battery_reserve_soc",
        echo_num(c.admission.battery_reserve_soc));
    add("admission.overflow",
        c.admission.overflow == AdmissionOverflow::kReject ? "reject"
                                                           : "grid");
  }
  if (!c.node_failures.empty())
    add("failures.events", echo_failure_events(c.node_failures));
  add("failures.repair_rate_bytes_per_s",
      echo_num(c.repair_rate_bytes_per_s));
  add("failures.repair_deadline_s", echo_num(c.repair_deadline_s));
  add("scenario.failure_process",
      scenario::failure_process_name(c.scenario.failures.process));
  add("scenario.mtbf_hours", echo_num(c.scenario.failures.mtbf_hours));
  add("scenario.weibull_shape",
      echo_num(c.scenario.failures.weibull_shape));
  add("scenario.mttr_hours", echo_num(c.scenario.failures.mttr_hours));
  add("scenario.failure_seed",
      std::to_string(c.scenario.failures.seed));
  add("scenario.spike_rate_per_day",
      echo_num(c.scenario.grid_spikes.rate_per_day));
  add("scenario.spike_duration_h",
      echo_num(c.scenario.grid_spikes.duration_h));
  add("scenario.spike_carbon_x",
      echo_num(c.scenario.grid_spikes.carbon_multiplier));
  add("scenario.spike_price_x",
      echo_num(c.scenario.grid_spikes.price_multiplier));
  add("scenario.spike_seed",
      std::to_string(c.scenario.grid_spikes.seed));
  add("scenario.curtail_rate_per_day",
      echo_num(c.scenario.curtailment.rate_per_day));
  add("scenario.curtail_duration_h",
      echo_num(c.scenario.curtailment.duration_h));
  add("scenario.curtail_supply_fraction",
      echo_num(c.scenario.curtailment.supply_fraction));
  add("scenario.curtail_seed",
      std::to_string(c.scenario.curtailment.seed));
  return kv;
}

std::string config_keys_help() {
  return
      "cluster.racks, cluster.nodes_per_rack, cluster.replication,\n"
      "cluster.groups, cluster.task_slots\n"
      "workload.preset (canonical|read-heavy|backup-heavy),\n"
      "workload.days, workload.seed, workload.foreground_rate,\n"
      "workload.task_scale\n"
      "solar.panel_area_m2, solar.latitude_deg, solar.seed,\n"
      "solar.horizon_days, solar.trace_csv\n"
      "wind.enabled, wind.rated_kw, wind.horizon_days\n"
      "battery.technology (li|la|ideal), battery.kwh,\n"
      "battery.initial_soc\n"
      "policy.kind (asap|opportunistic|greenmatch|greenmatch-greedy|\n"
      "night-shift), policy.deferral, policy.horizon,\n"
      "policy.battery_aware, policy.carbon_aware, policy.window_start_h,\n"
      "policy.window_end_h, grid.profile (flat|wind-heavy|solar-heavy)\n"
      "scheduler.shards (placement-group scheduling shards, default 1)\n"
      "sim.fidelity (slot|event), sim.slot_seconds, sim.dwell_slots,\n"
      "sim.drain_slots, sim.dvfs_eco_speed, sim.maid, sim.maid_min_disks\n"
      "arrivals.enabled, arrivals.rate_per_h, arrivals.seed,\n"
      "arrivals.mean_work_s, arrivals.work_sigma,\n"
      "arrivals.deadline_slack_s, arrivals.utilization, arrivals.diurnal\n"
      "admission.horizon, admission.battery_reserve_soc,\n"
      "admission.overflow (grid|reject)\n"
      "forecast.noisy, forecast.error_at_1h, forecast.error_cap,\n"
      "forecast.bias_at_1h, forecast.ar1_rho, forecast.seed\n"
      "failures.events (node@fail_s@recover_s;... recover 0 = never),\n"
      "failures.repair_rate_bytes_per_s, failures.repair_deadline_s\n"
      "scenario.failure_process (none|poisson|weibull),\n"
      "scenario.mtbf_hours, scenario.weibull_shape, scenario.mttr_hours,\n"
      "scenario.failure_seed\n"
      "scenario.spike_rate_per_day, scenario.spike_duration_h,\n"
      "scenario.spike_carbon_x, scenario.spike_price_x,\n"
      "scenario.spike_seed\n"
      "scenario.curtail_rate_per_day, scenario.curtail_duration_h,\n"
      "scenario.curtail_supply_fraction, scenario.curtail_seed\n";
}

}  // namespace gm::core
