// Whole-run benchmark runner. Times complete GreenMatch runs from
// outside the library through its public calls, and prints one JSON
// object per run on stdout for perfbench/run.py to gate and aggregate.
//
//   perfbench_runner --config FILE [--set key=value ...] --seconds S
//                    [--trace-dir DIR] [--run-id ID]
//
// --set keys override the config file. Untraced mode repeats whole
// runs while the next one should end within S seconds (at least two
// runs, so repeatability is always checked). Each run is:
//
//   setup     workload::generate_workload + SimulationEngine ctor
//             (the workload is handed over as preset_workload, so it
//             is generated exactly once)
//   slots     run_slot(0..n-1), each slot timed on its own
//   finalize  SimulationEngine::finalize
//
// With --trace-dir the runner alternates an untraced reference run
// with a traced run that drives observe() / decide() / act() with a
// policy it holds itself, recording a span around every call into a
// layer, while the next pair should end within S seconds (at least
// one pair). Spans stay in memory and are written as Chrome
// trace-event JSON, one file per traced run (DIR/ID.INDEX.json), when
// the run ends. No obs::Recorder is attached: one would serialise the
// sharded planner and add work inside the program.
//
// Every run, traced or not, is audited (gm::audit::audit_run and
// config_roundtrip) and its simulated outcome is printed with every
// digit, so run.py can require bit-for-bit equal outcomes.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "core/config_io.hpp"
#include "core/engine.hpp"
#include "core/policies.hpp"
#include "obs/trace.hpp"
#include "storage/cluster.hpp"
#include "util/config_kv.hpp"
#include "workload/generator.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using gm::core::ExperimentConfig;
using gm::core::RunArtifacts;
using gm::core::SimulationEngine;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Enough digits to parse back to the same double; null when not
/// finite, as JSON has no literal for it.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += gm::obs::json_escape(s);
  out += '"';
  return out;
}

/// JSON object writer that, unlike obs::JsonObject, nests: raw()
/// takes an already encoded value (an object or an array).
class Obj {
 public:
  Obj& raw(const std::string& key, const std::string& encoded) {
    if (!body_.empty()) body_ += ',';
    body_ += quoted(key);
    body_ += ':';
    body_ += encoded;
    return *this;
  }
  Obj& n(const std::string& key, double v) { return raw(key, num(v)); }
  Obj& u(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Obj& s(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  Obj& b(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string num_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

// --- spans -------------------------------------------------------------

/// In-memory span store for the traced run. Span ids start at 1;
/// parent 0 marks a root span. Every span carries the run id.
class Tracer {
 public:
  explicit Tracer(std::string run_id)
      : run_id_(std::move(run_id)), epoch_(Clock::now()) {}

  int begin(const char* name, int parent) {
    spans_.push_back({name, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size());
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id - 1)].end = Clock::now();
  }

  double duration_ms(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id - 1)];
    return ms_between(s.start, s.end);
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw gm::RuntimeError("cannot open trace file " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        << Obj().s("name", "process_name")
               .s("ph", "M")
               .u("pid", 1)
               .u("tid", 1)
               .raw("args", Obj().s("name", "perfbench " + run_id_).str())
               .str();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts = ms_between(epoch_, s.start) * 1e3;
      const double dur = ms_between(s.start, s.end) * 1e3;
      out << ",\n"
          << Obj().s("name", s.name)
                 .s("cat", "perfbench")
                 .s("ph", "X")
                 .u("pid", 1)
                 .u("tid", 1)
                 .n("ts", ts)
                 .n("dur", dur)
                 .raw("args", Obj().u("span", i + 1)
                                  .u("parent", static_cast<std::uint64_t>(
                                                   s.parent))
                                  .s("run", run_id_)
                                  .str())
                 .str();
    }
    out << "\n]}\n";
    if (!out) throw gm::RuntimeError("cannot write trace file " + path);
  }

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::string run_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class Scope {
 public:
  Scope(Tracer& t, const char* name, int parent)
      : tracer_(t), id_(t.begin(name, parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// --- run outputs -------------------------------------------------------

/// The simulated outcome: per-slot ledger columns, active nodes, and
/// the task / miss / arrival counts. Equal outcomes mean the timing
/// code did not change the simulation.
std::string outcome_json(const RunArtifacts& a) {
  using gm::energy::SlotRecord;
  static constexpr std::pair<const char*, double SlotRecord::*> kCols[] = {
      {"green_supply_j", &SlotRecord::green_supply_j},
      {"green_direct_j", &SlotRecord::green_direct_j},
      {"battery_charge_drawn_j", &SlotRecord::battery_charge_drawn_j},
      {"battery_discharged_j", &SlotRecord::battery_discharged_j},
      {"brown_j", &SlotRecord::brown_j},
      {"curtailed_j", &SlotRecord::curtailed_j},
      {"demand_j", &SlotRecord::demand_j},
      {"overhead_transition_j", &SlotRecord::overhead_transition_j},
      {"overhead_migration_j", &SlotRecord::overhead_migration_j},
      {"battery_stored_end_j", &SlotRecord::battery_stored_end_j}};
  Obj ledger;
  for (const auto& [name, field] : kCols) {
    std::vector<double> column;
    for (const SlotRecord& r : a.ledger.slots()) column.push_back(r.*field);
    ledger.raw(name, num_array(column));
  }
  ledger.raw("active_nodes",
             num_array(std::vector<double>(a.active_nodes_per_slot.begin(),
                                           a.active_nodes_per_slot.end())));
  const auto& q = a.result.qos;
  Obj counts;
  counts.u("tasks_total", q.tasks_total)
      .u("tasks_completed", q.tasks_completed)
      .u("deadline_misses", q.deadline_misses)
      .u("tasks_unfinished", q.tasks_unfinished)
      .u("arrivals_generated", q.arrivals_generated)
      .u("arrivals_admitted", q.arrivals_admitted)
      .u("arrivals_rejected", q.arrivals_rejected)
      .u("nodes_failed", a.result.scheduler.nodes_failed);
  return Obj().raw("ledger", ledger.str()).raw("counts", counts.str()).str();
}

/// Schedule quality and the program's own layer counters.
std::string counters_json(const RunArtifacts& a,
                          const gm::core::SchedulerPolicy* held_policy) {
  const auto& r = a.result;
  const auto& q = r.qos;
  const auto& s = r.scheduler;
  // Planner counters come from whichever policy decided: the engine's
  // own (reported at finalize) or the one the traced run holds.
  std::uint64_t solves = s.solver_solves, pops = s.solver_dijkstra_pops,
                paths = s.solver_augmenting_paths,
                cache_hits = s.plan_cache_hits, accepts = s.warm_accepts,
                rejects = s.warm_rejects;
  if (held_policy) {
    solves = pops = paths = cache_hits = accepts = rejects = 0;
    if (const auto* gmp =
            dynamic_cast<const gm::core::GreenMatchPolicy*>(held_policy)) {
      const auto t = gmp->solver_totals();
      solves = t.solves;
      pops = t.dijkstra_pops;
      paths = t.augmenting_paths;
      cache_hits = gmp->plan_cache_hits();
      accepts = gmp->warm_accepts();
      rejects = gmp->warm_rejects();
    }
  }
  return Obj()
      .n("brown_kwh", r.brown_kwh())
      .n("green_utilization", r.energy.green_utilization())
      .n("router.read_latency_p99_ms", q.read_latency_p99_s * 1e3)
      .u("planner.solves", solves)
      .u("planner.dijkstra_pops", pops)
      .u("planner.augmenting_paths", paths)
      .u("planner.plan_cache_hits", cache_hits)
      .u("planner.warm_accepts", accepts)
      .u("planner.warm_rejects", rejects)
      .u("power.node_power_ons", s.node_power_ons)
      .u("power.node_power_offs", s.node_power_offs)
      .u("power.forced_wakeups", s.forced_wakeups)
      .n("power.mean_active_nodes", s.mean_active_nodes)
      .u("engine.task_migrations", s.task_migrations)
      .u("engine.assignment_failures", s.assignment_failures)
      .u("engine.forced_urgent_runs", s.forced_urgent_runs)
      .u("router.requests", q.foreground_requests)
      .u("router.offloaded_writes", q.offloaded_writes)
      .u("router.unavailable_reads", q.unavailable_reads)
      .u("admission.decisions", q.admission_decisions)
      .u("admission.admitted", q.arrivals_admitted)
      .u("admission.rejected", q.arrivals_rejected)
      .u("admission.deferrals", q.admission_deferrals)
      .u("scenario.nodes_failed", s.nodes_failed)
      .str();
}

/// The in-process half of the correctness gate: audit_run (every
/// check) and the config echo round trip, recorded into `o`.
void audit_into(Obj& o, const SimulationEngine& engine,
                const RunArtifacts& a) {
  const gm::audit::AuditReport report = gm::audit::audit_run(engine, a);
  std::string detail;
  for (const auto& c : report.checks)
    if (!c.passed) detail += "audit " + c.name + " " + c.detail + "; ";
  const auto rt = gm::audit::config_roundtrip(engine.config());
  for (const auto& m : rt.mismatches) detail += "roundtrip " + m + "; ";
  o.u("audit_checks", report.checks.size())
      .u("audit_failed", report.failures())
      .b("config_roundtrip", rt.fixed_point)
      .s("gate_detail", detail);
}

std::shared_ptr<const gm::workload::Workload> generate(
    const ExperimentConfig& config) {
  return std::make_shared<const gm::workload::Workload>(
      gm::workload::generate_workload(config.workload,
                                      config.cluster.placement.group_count));
}

// --- the two kinds of run ---------------------------------------------

std::string untraced_run(const ExperimentConfig& base, int index) {
  const auto t0 = Clock::now();
  ExperimentConfig config = base;
  config.preset_workload = generate(base);
  SimulationEngine engine(config);
  const auto t1 = Clock::now();
  const gm::SlotIndex n = engine.total_slots();
  std::vector<double> slot_ms;
  slot_ms.reserve(static_cast<std::size_t>(n));
  for (gm::SlotIndex slot = 0; slot < n; ++slot) {
    const auto a = Clock::now();
    engine.run_slot(slot);
    slot_ms.push_back(ms_between(a, Clock::now()));
  }
  const auto t2 = Clock::now();
  const RunArtifacts artifacts = engine.finalize();
  const auto t3 = Clock::now();

  Obj o;
  audit_into(o, engine, artifacts);
  o.s("kind", "run")
      .u("index", static_cast<std::uint64_t>(index))
      .b("traced", false)
      .n("setup_ms", ms_between(t0, t1))
      .n("slots_ms", ms_between(t1, t2))
      .n("finalize_ms", ms_between(t2, t3))
      .n("wall_ms", ms_between(t0, t3))
      .raw("slot_ms", num_array(slot_ms))
      .u("workload.requests", config.preset_workload->requests.size())
      .u("workload.tasks", config.preset_workload->tasks.size())
      .raw("counters", counters_json(artifacts, nullptr))
      .raw("outcome", outcome_json(artifacts));
  return o.str();
}

std::string traced_run(const ExperimentConfig& base, int index,
                       const std::string& run_id,
                       const std::string& trace_path) {
  Tracer tr(run_id);
  std::optional<SimulationEngine> engine;
  std::unique_ptr<gm::core::SchedulerPolicy> policy;
  std::optional<RunArtifacts> artifacts;
  ExperimentConfig config = base;
  int run_span = 0;
  {
    const Scope run(tr, "run", 0);
    run_span = run.id();
    {
      const Scope setup(tr, "setup", run.id());
      {
        const Scope s(tr, "workload.generate", setup.id());
        config.preset_workload = generate(base);
      }
      {
        // The engine builds its cluster inside its constructor; this
        // separate build on the same config is the only outside view
        // of placement cost.
        const Scope s(tr, "storage.cluster_build", setup.id());
        const gm::storage::Cluster cluster(config.cluster);
      }
      {
        const Scope s(tr, "core.engine_ctor", setup.id());
        engine.emplace(config);
      }
      policy = gm::core::make_policy(config.policy);
      policy->initialize(engine->facts());
    }
    const gm::SlotIndex n = engine->total_slots();
    for (gm::SlotIndex slot = 0; slot < n; ++slot) {
      const Scope s(tr, "slot", run.id());
      const gm::core::SlotContext* ctx = nullptr;
      {
        const Scope o(tr, "core.observe", s.id());
        ctx = &engine->observe(slot);
      }
      gm::core::SlotDecision decision;
      {
        const Scope d(tr, "core.decide", s.id());
        decision = policy->decide(*ctx);
      }
      {
        const Scope a(tr, "core.act", s.id());
        engine->act(slot, decision);
      }
    }
    {
      const Scope f(tr, "finalize", run.id());
      const Scope c(tr, "core.finalize", f.id());
      artifacts.emplace(engine->finalize());
    }
  }
  Obj o;
  {
    const Scope a(tr, "audit", 0);
    audit_into(o, *engine, *artifacts);
  }
  tr.write(trace_path);

  o.s("kind", "run")
      .u("index", static_cast<std::uint64_t>(index))
      .b("traced", true)
      .n("wall_ms", tr.duration_ms(run_span))
      .s("trace_file", trace_path)
      .u("workload.requests", config.preset_workload->requests.size())
      .u("workload.tasks", config.preset_workload->tasks.size())
      .raw("counters", counters_json(*artifacts, policy.get()))
      .raw("outcome", outcome_json(*artifacts));
  return o.str();
}

/// Record of a run that threw (a tripped GM_ASSERT throws
/// std::logic_error); run.py then fails the whole invocation.
std::string failed_run(int index, bool traced, const std::string& what) {
  return Obj()
      .s("kind", "error")
      .u("index", static_cast<std::uint64_t>(index))
      .b("traced", traced)
      .s("error", what)
      .str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --config FILE [--set key=value]..."
               " --seconds S [--trace-dir DIR] [--run-id ID]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  gm::KeyValueConfig overrides;
  double seconds = -1.0;
  std::string trace_dir;
  std::string run_id = "run";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--config") {
      config_path = value;
    } else if (arg == "--set") {
      const auto eq = value.find('=');
      if (eq == std::string::npos) return usage("--set needs key=value");
      overrides.set(value.substr(0, eq), value.substr(eq + 1));
    } else if (arg == "--seconds") {
      char* end = nullptr;
      seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0')
        return usage("--seconds needs a number");
    } else if (arg == "--trace-dir") {
      trace_dir = value;
    } else if (arg == "--run-id") {
      run_id = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (config_path.empty() || !(seconds >= 0))
    return usage("missing arguments");

  ExperimentConfig config;
  try {
    config = gm::core::config_from_file(config_path);
    gm::core::apply_config(config, overrides);
    config.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: bad config: %s\n", e.what());
    return 2;
  }

  const auto start = Clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  int index = 0;
  const auto emit = [](const std::string& line) {
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  };
  const auto attempt = [&](bool traced) {
    try {
      const std::string id = run_id + "." + std::to_string(index);
      emit(traced ? traced_run(config, index, id,
                               trace_dir + "/" + id + ".json")
                  : untraced_run(config, index));
    } catch (const std::exception& e) {
      emit(failed_run(index, traced, e.what()));
    }
    ++index;
  };
  // Another run (or untraced/traced pair) starts only when it should
  // still end within S seconds, judged by the longest one so far, so
  // the invocation does not overrun S by a whole run.
  double longest_s = 0.0;
  const auto repeat = [&](int at_least, const auto& one) {
    while (index < at_least || elapsed_s() + longest_s <= seconds) {
      const double began = elapsed_s();
      one();
      longest_s = std::max(longest_s, elapsed_s() - began);
    }
  };
  if (trace_dir.empty()) {
    repeat(2, [&] { attempt(false); });
  } else {
    repeat(2, [&] {
      attempt(false);
      attempt(true);
    });
  }
  emit(Obj().s("kind", "process").n("peak_rss_mb", peak_rss_mb()).str());
  return 0;
}
