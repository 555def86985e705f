#pragma once
// gm::audit — run-level conservation auditing. The per-slot
// EnergyLedger guards each slot as it is appended; this subsystem
// closes the loop at end of run by cross-checking four independent
// books against each other:
//
//   1. the ledger's own identities, re-verified per slot and at the
//      totals level with *absolute* joule tolerances tight enough to
//      catch sub-relative-tolerance leaks (the ledger's append check
//      is relative, so a 1e-3 J/slot leak sails through it);
//   2. the Battery's internal counters:
//        total_in − total_out =
//            Δstored + conversion_loss + self_loss + clamp_loss
//      and the ledger's battery flow columns against total_in/out;
//   3. the supply trace: every slot's recorded green_supply_j against
//      a fresh integral of the PowerSource over the same interval;
//   4. engine fleet-state invariants: active-node bounds, per-slot
//      task-slot/utilization conservation, battery SoC bounds, task
//      accounting (admitted = completed + unfinished, misses
//      consistent with unfinished), grid-meter agreement, and the
//      power manager's incremental coverage state against full scans.
//
// `audit_run` needs the engine (battery/grid/supply internals stay
// valid after finalize()) plus the artifacts finalize() returned.
// `config_roundtrip` checks that config_echo → apply_config →
// config_echo is a fixed point, i.e. a run manifest really reproduces
// the run it describes (over the kv-representable config surface;
// preset workload objects have no kv form — failure injections do,
// via `failures.events`, as do the seeded scenario generators via
// `scenario.*`).
//
// Used by `greenmatch_sim --audit`, `greenmatch_sweep --audit` and
// `tools/gm_golden`; see docs/correctness.md.

#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "obs/recorder.hpp"

namespace gm::audit {

/// One verified identity. For per-slot families, `detail` carries the
/// first violating slot and the violation count; lhs/rhs hold the
/// worst-offending pair.
struct AuditCheck {
  std::string name;
  bool passed = true;
  double lhs = 0.0;
  double rhs = 0.0;
  double tolerance = 0.0;  ///< |lhs-rhs| allowance actually applied
  std::string detail;
};

struct AuditOptions {
  /// Per-slot identity tolerance: |lhs-rhs| <= abs + rel * scale with
  /// scale = max(1, |lhs|, |rhs|). The absolute term dominates at slot
  /// energy scales (~1e7 J) — that is what catches small leaks.
  double slot_abs_tol_j = 1e-6;
  double slot_rel_tol = 1e-12;
  /// Cross-accumulator tolerance (different summation orders drift by
  /// a few hundred ulps over a run).
  double run_abs_tol_j = 1e-6;
  double run_rel_tol = 1e-9;
};

struct AuditReport {
  std::vector<AuditCheck> checks;

  std::size_t failures() const;
  bool passed() const { return failures() == 0; }

  /// Multi-line human-readable table (one line per check; failures
  /// carry lhs/rhs/tolerance and the detail string).
  void print(std::ostream& out) const;
  /// Appends one flat-JSON line per check plus a summary line
  /// (kind=audit_run) to `path` — JSONL, append mode, next to the
  /// bench records. `label` tags every record (e.g. config name).
  void write_jsonl(const std::string& path,
                   const std::string& label) const;
  /// Feeds every check into a Recorder (kind=audit trace records and
  /// the audit.checks / audit.failures counters).
  void emit(obs::Recorder& recorder) const;
};

/// Audits one finished run. Call after SimulationEngine::finalize()
/// (or run()); the engine's battery, grid meter, supply and config
/// remain valid and are the independent books the artifacts are
/// checked against.
AuditReport audit_run(const core::SimulationEngine& engine,
                      const core::RunArtifacts& artifacts,
                      const AuditOptions& options = {});

/// config_echo → apply_config(canonical) → config_echo fixed-point
/// check. `mismatches` lists offending keys as "key: 'a' -> 'b'".
struct RoundTripResult {
  bool fixed_point = true;
  std::vector<std::string> mismatches;
};

RoundTripResult config_roundtrip(const core::ExperimentConfig& config);

}  // namespace gm::audit
