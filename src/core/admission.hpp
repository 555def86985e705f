#pragma once
// AdmissionController: the open-system arrival fast path. Maintains a
// cached green-headroom ledger over the next `admission.horizon`
// slots — per-slot forecast green energy minus the baseline the
// cluster must spend anyway (coverage idle floor + foreground
// dynamic power) minus energy already committed to admitted-but-
// unfinished tasks, with the battery's above-reserve charge as a
// one-shot credit. Each admit/defer/reject decision is a bounded
// scan over the intersection of the task's feasible window and the
// ledger horizon: no MinCostFlow solve, no allocation, O(horizon)
// worst case. The per-slot replan (GreenMatch or otherwise) remains
// the authority on *where* admitted tasks actually run; the ledger
// is reconciled against the live pending pool once per slot, after
// the planner's plan lands (rebuild_commitments), and patched in
// O(touched slots) when a forecast revision or scenario event
// changes a slot's expected supply (revise_supply).
//
// Contract details and the decision vocabulary live in
// docs/admission.md.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/policy.hpp"
#include "obs/profile.hpp"
#include "storage/types.hpp"
#include "util/time_types.hpp"
#include "util/units.hpp"

namespace gm::core {

/// What to do with an arrival whose whole feasible window is visible
/// but lacks green headroom (`admission.overflow`).
enum class AdmissionOverflow : std::uint8_t {
  kGrid = 0,  ///< admit anyway; the shortfall runs on grid energy
  kReject,    ///< turn the task away (booked explicitly in QoS)
};

/// `admission.*` config keys.
struct AdmissionConfig {
  /// Ledger depth in slots; also bounds the per-decision scan.
  int horizon_slots = 24;
  /// Fraction of usable battery capacity held back from admission —
  /// stored energy below the reserve never funds new arrivals.
  double battery_reserve_soc = 0.25;
  AdmissionOverflow overflow = AdmissionOverflow::kGrid;

  void validate() const;
};

enum class AdmissionAction : std::uint8_t { kAdmit = 0, kDefer, kReject };

struct AdmissionDecision {
  AdmissionAction action = AdmissionAction::kAdmit;
  /// True for kAdmit decisions taken via the grid-overflow policy.
  bool overflow = false;
  /// Offset (slots from now) of the first slot whose headroom the
  /// decision consumed; -1 when nothing was consumed.
  int chosen_offset = -1;
  const char* reason = "";
};

struct AdmissionStats {
  std::uint64_t decisions = 0;  ///< decide() calls incl. re-offers
  std::uint64_t admitted = 0;
  std::uint64_t deferred = 0;  ///< defer decisions, not unique tasks
  std::uint64_t rejected = 0;
  std::uint64_t overflow_admits = 0;  ///< subset of admitted
  /// Hot-path CPU (telemetry); summed only with a recorder attached.
  double decision_wall_ms = 0.0;
};

class AdmissionController {
 public:
  /// Static cluster facts the energy model needs.
  struct Facts {
    Seconds slot_length_s = 3600.0;
    Watts node_peak_w = 0.0;
    Watts node_idle_floor_w = 0.0;
    Joules battery_usable_j = 0.0;
  };
  /// slot → joules callbacks, supplied by the engine: forecast green
  /// supply for a slot, and the baseline spend (coverage idle floor +
  /// foreground dynamic energy) that is owed regardless of admission.
  using SlotEnergyFn = std::function<Joules(SlotIndex)>;

  AdmissionController(const AdmissionConfig& config, const Facts& facts,
                      SlotEnergyFn slot_supply_j,
                      SlotEnergyFn slot_baseline_j);

  /// Advance the ledger base to `slot` (filling newly visible tail
  /// slots from the callbacks) and refresh the battery credit from
  /// the current stored charge. O(slots advanced).
  void begin_slot(SlotIndex slot, Joules battery_stored_j);

  /// Patch one slot's expected green supply — forecast revision or
  /// scenario event. O(1); slots outside the ledger are ignored.
  void revise_supply(SlotIndex slot, Joules green_j);

  /// Reconcile the committed layer against the live pending pool:
  /// each unfinished task's remaining dynamic energy is spread
  /// uniformly over its feasible slots. Called once per slot after
  /// the planner's plan lands; never on the arrival path.
  void rebuild_commitments(const std::vector<PendingTask>& pending,
                           SimTime now);

  /// The hot path: admit/defer/reject `task` arriving at `now`.
  /// Bounded scan, no solver, no allocation. Times itself into
  /// latency_us() and stats().decision_wall_ms only while an
  /// obs::Recorder is installed; the decision is the same either way.
  AdmissionDecision decide(const storage::BackgroundTask& task,
                           SimTime now);

  /// Residual headroom of an absolute slot (0 outside the ledger).
  Joules headroom_j(SlotIndex slot) const;
  /// Energy committed to a slot by the last rebuild_commitments and
  /// the admissions since (0 outside the ledger).
  Joules committed_j(SlotIndex slot) const;
  Joules battery_credit_j() const { return battery_credit_j_; }
  /// Dynamic energy a task needs for `work_s` seconds of execution.
  Joules task_energy_j(double utilization, Seconds work_s) const;

  const AdmissionStats& stats() const { return stats_; }
  /// Per-decision wall latency in microseconds (telemetry only — the
  /// histogram never feeds deterministic outputs). Empty unless
  /// decide() ran with a recorder installed.
  const obs::LogHistogram& latency_us() const { return latency_us_; }
  SlotIndex base_slot() const { return base_slot_; }
  int horizon_slots() const { return horizon_; }

 private:
  std::size_t idx(SlotIndex slot) const {
    return static_cast<std::size_t>(slot % horizon_);
  }
  void fill_slot(SlotIndex slot);
  /// decide() without its timing.
  AdmissionDecision decide_on_ledger(const storage::BackgroundTask& task);

  AdmissionConfig config_;
  Facts facts_;
  SlotEnergyFn slot_supply_j_;
  SlotEnergyFn slot_baseline_j_;
  int horizon_ = 0;
  SlotIndex base_slot_ = 0;
  bool primed_ = false;
  Joules battery_reserve_j_ = 0.0;
  Joules battery_credit_j_ = 0.0;
  // Ring buffers indexed by absolute slot modulo horizon_, valid for
  // slots in [base_slot_, base_slot_ + horizon_).
  std::vector<Joules> green_j_;
  std::vector<Joules> baseline_j_;
  std::vector<Joules> committed_j_;
  /// rebuild_commitments scratch, indexed by slot - base_slot_.
  std::vector<Joules> commit_scratch_j_;
  AdmissionStats stats_;
  obs::LogHistogram latency_us_;
};

}  // namespace gm::core
