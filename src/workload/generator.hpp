#pragma once
// Synthetic workload generation from a WorkloadSpec. Deterministic per
// seed. Foreground requests follow a non-homogeneous Poisson process
// shaped by the diurnal/weekend profile; background tasks arrive per
// class with Poisson daily counts, lognormal work and configurable
// release windows.

#include <cstddef>
#include <vector>

#include "storage/types.hpp"
#include "workload/spec.hpp"

namespace gm::workload {

struct Workload {
  std::vector<storage::IoRequest> requests;   ///< sorted by arrival
  std::vector<storage::BackgroundTask> tasks; ///< sorted by release
  SimTime duration = 0;

  /// Total foreground bytes and background work (telemetry).
  std::uint64_t total_bytes() const;
  Seconds total_task_work_s() const;
};

/// Requests per block of the parallel request draw. A week's ≈1.9 M
/// requests make ≈120 blocks, plenty for the pool, while the per-block
/// Rng copy and dispatch stay negligible.
inline constexpr std::size_t kRequestBlock = 16384;

/// Generates the full workload for `spec`. GroupIds are drawn uniformly
/// over [0, group_count) — the generator doesn't need the placement
/// map itself, only its group universe. The requests' random draws are
/// made in blocks of kRequestBlock on a transient pool (inline on a
/// pool worker); the result does not depend on the thread count.
Workload generate_workload(const WorkloadSpec& spec,
                           std::uint32_t group_count);

}  // namespace gm::workload
