#include "core/admission.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/recorder.hpp"
#include "util/assert.hpp"

namespace gm::core {

void AdmissionConfig::validate() const {
  GM_CHECK(horizon_slots >= 1, "admission.horizon must be >= 1");
  GM_CHECK(battery_reserve_soc >= 0.0 && battery_reserve_soc <= 1.0,
           "admission.battery_reserve_soc must be in [0, 1]");
}

AdmissionController::AdmissionController(const AdmissionConfig& config,
                                         const Facts& facts,
                                         SlotEnergyFn slot_supply_j,
                                         SlotEnergyFn slot_baseline_j)
    : config_(config),
      facts_(facts),
      slot_supply_j_(std::move(slot_supply_j)),
      slot_baseline_j_(std::move(slot_baseline_j)),
      horizon_(config.horizon_slots) {
  config_.validate();
  GM_CHECK(facts_.slot_length_s > 0.0,
           "AdmissionController needs slot_length_s > 0");
  GM_CHECK(facts_.node_peak_w >= facts_.node_idle_floor_w,
           "node_peak_w must be >= node_idle_floor_w");
  GM_CHECK(static_cast<bool>(slot_supply_j_) &&
               static_cast<bool>(slot_baseline_j_),
           "AdmissionController needs supply and baseline callbacks");
  battery_reserve_j_ =
      config_.battery_reserve_soc * facts_.battery_usable_j;
  green_j_.assign(static_cast<std::size_t>(horizon_), 0.0);
  baseline_j_.assign(static_cast<std::size_t>(horizon_), 0.0);
  committed_j_.assign(static_cast<std::size_t>(horizon_), 0.0);
  commit_scratch_j_.assign(static_cast<std::size_t>(horizon_), 0.0);
}

void AdmissionController::fill_slot(SlotIndex slot) {
  const std::size_t i = idx(slot);
  green_j_[i] = slot_supply_j_(slot);
  baseline_j_[i] = slot_baseline_j_(slot);
  committed_j_[i] = 0.0;
}

void AdmissionController::begin_slot(SlotIndex slot,
                                     Joules battery_stored_j) {
  if (!primed_) {
    base_slot_ = slot;
    for (SlotIndex s = slot; s < slot + horizon_; ++s) fill_slot(s);
    primed_ = true;
  } else {
    GM_CHECK(slot >= base_slot_, "admission ledger cannot rewind");
    // Expired head slots become the newly visible tail — O(advanced).
    for (SlotIndex s = base_slot_ + horizon_; s < slot + horizon_; ++s) {
      fill_slot(s);
    }
    base_slot_ = slot;
  }
  battery_credit_j_ =
      std::max(0.0, battery_stored_j - battery_reserve_j_);
}

void AdmissionController::revise_supply(SlotIndex slot, Joules green_j) {
  if (slot < base_slot_ || slot >= base_slot_ + horizon_) return;
  green_j_[idx(slot)] = green_j;
}

Joules AdmissionController::task_energy_j(double utilization,
                                          Seconds work_s) const {
  return utilization * (facts_.node_peak_w - facts_.node_idle_floor_w) *
         work_s;
}

Joules AdmissionController::headroom_j(SlotIndex slot) const {
  if (slot < base_slot_ || slot >= base_slot_ + horizon_) return 0.0;
  const std::size_t i = idx(slot);
  const Joules surplus =
      std::max(0.0, green_j_[i] - baseline_j_[i]) - committed_j_[i];
  return std::max(0.0, surplus);
}

Joules AdmissionController::committed_j(SlotIndex slot) const {
  if (slot < base_slot_ || slot >= base_slot_ + horizon_) return 0.0;
  return committed_j_[idx(slot)];
}

void AdmissionController::rebuild_commitments(
    const std::vector<PendingTask>& pending, SimTime now) {
  // Shares accumulate base-relative (k = s - base_slot_) in a
  // contiguous scratch array that lands in the ring once: each slot
  // still sums 0.0 plus the same shares in pending order.
  std::fill(commit_scratch_j_.begin(), commit_scratch_j_.end(), 0.0);
  const SlotIndex last_visible = base_slot_ + horizon_ - 1;
  for (const PendingTask& p : pending) {
    const Joules need =
        task_energy_j(p.task.utilization, p.remaining_s);
    if (need <= 0.0) continue;
    SlotIndex last = static_cast<SlotIndex>(
        p.task.deadline / static_cast<SimTime>(facts_.slot_length_s));
    last = std::min(std::max(last, base_slot_), last_visible);
    const SlotIndex width = last - base_slot_ + 1;
    const Joules share = need / static_cast<double>(width);
    for (SlotIndex k = 0; k < width; ++k)
      commit_scratch_j_[static_cast<std::size_t>(k)] += share;
  }
  for (SlotIndex k = 0; k < horizon_; ++k)
    committed_j_[idx(base_slot_ + k)] =
        commit_scratch_j_[static_cast<std::size_t>(k)];
  (void)now;
}

AdmissionDecision AdmissionController::decide(
    const storage::BackgroundTask& task, SimTime now) {
  (void)now;
  // Timed only when a recorder is attached, the rule the engine applies
  // to its plan-latency histogram: two clock reads cost more than the
  // decision itself.
  if (obs::current_recorder() == nullptr) return decide_on_ledger(task);
  const auto t0 = std::chrono::steady_clock::now();
  const AdmissionDecision decision = decide_on_ledger(task);
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  latency_us_.add(us);
  stats_.decision_wall_ms += us / 1000.0;
  return decision;
}

AdmissionDecision AdmissionController::decide_on_ledger(
    const storage::BackgroundTask& task) {
  ++stats_.decisions;
  AdmissionDecision decision;

  const Joules need = task_energy_j(task.utilization, task.work_s);
  const SlotIndex last_visible = base_slot_ + horizon_ - 1;
  SlotIndex last_feasible = static_cast<SlotIndex>(
      task.deadline / static_cast<SimTime>(facts_.slot_length_s));
  last_feasible = std::max(last_feasible, base_slot_);
  const SlotIndex scan_end = std::min(last_feasible, last_visible);

  // Bounded scan: accumulate per-slot surplus earliest-first, then
  // the battery's above-reserve credit.
  Joules gathered = 0.0;
  SlotIndex stop = scan_end;
  for (SlotIndex s = base_slot_; s <= scan_end; ++s) {
    gathered += headroom_j(s);
    if (gathered >= need) {
      stop = s;
      break;
    }
  }
  const bool use_credit = gathered < need;
  if (use_credit) gathered += battery_credit_j_;

  if (gathered >= need) {
    // Second bounded pass: consume what the first pass gathered.
    Joules remaining = need;
    for (SlotIndex s = base_slot_; s <= stop && remaining > 0.0; ++s) {
      const Joules take = std::min(remaining, headroom_j(s));
      if (take <= 0.0) continue;
      committed_j_[idx(s)] += take;
      remaining -= take;
      if (decision.chosen_offset < 0) {
        decision.chosen_offset = static_cast<int>(s - base_slot_);
      }
    }
    if (remaining > 0.0) {
      battery_credit_j_ = std::max(0.0, battery_credit_j_ - remaining);
    }
    decision.action = AdmissionAction::kAdmit;
    decision.reason = "green-headroom";
    ++stats_.admitted;
  } else if (last_feasible > last_visible) {
    // Can't see the whole feasible window yet — park the task and
    // re-offer it at the next slot boundary.
    decision.action = AdmissionAction::kDefer;
    decision.reason = "beyond-horizon";
    ++stats_.deferred;
  } else if (config_.overflow == AdmissionOverflow::kGrid) {
    decision.action = AdmissionAction::kAdmit;
    decision.overflow = true;
    decision.reason = "grid-overflow";
    ++stats_.admitted;
    ++stats_.overflow_admits;
  } else {
    decision.action = AdmissionAction::kReject;
    decision.reason = "no-headroom";
    ++stats_.rejected;
  }
  return decision;
}

}  // namespace gm::core
