#pragma once
// The rendezvous scan's kernel. PlacementMap lays its nodes out
// bucket-major (a bucket is a rack, or a node when racks are too few
// to be disjoint), with ids ascending inside each bucket, and asks the
// kernel for every bucket's first maximum of mix_hash(group key, id).
// With ids ascending, the first maximum is the bucket's best node
// under (score desc, node asc), the order replicas are chosen in.
//
// The kernel is one body written with GCC vector extensions, built
// once per ISA level: a scalar scan for the default target (the only
// variant off x86-64 or outside GCC), 4 lanes for x86-64-v3 (AVX2) and
// 8 lanes for x86-64-v4 (AVX-512). The hash is integer arithmetic, so
// every variant returns the same answer; scan_kernel() picks the
// widest one this CPU runs, once. The ISA-level names in the target
// attributes and in __builtin_cpu_supports need GCC 12 or later.

#include <cstddef>
#include <cstdint>
#include <span>

#include "storage/types.hpp"

namespace gm::storage {

/// A tile's first maximum: its highest score and the smallest index
/// holding that score.
struct TileMax {
  std::uint64_t score;
  std::uint32_t index;  ///< into the scanned id array
};

/// Scores every id against `group_key` with mix_hash and writes, for
/// each tile t = ids[starts[t], starts[t + 1]), the tile's first
/// maximum to out[t]. `starts` holds tiles + 1 ascending offsets and
/// no tile may be empty.
using ScanTilesFn = void (*)(std::uint64_t group_key, const NodeId* ids,
                             const std::uint32_t* starts,
                             std::size_t tiles, TileMax* out);

struct ScanKernel {
  const char* name;  ///< "scalar", "x86-64-v3" or "x86-64-v4"
  ScanTilesFn scan;
  bool supported;  ///< whether this CPU can run it
};

/// Every variant built for this target, narrowest first.
std::span<const ScanKernel> scan_kernels();

/// The widest variant this CPU supports, chosen on first use.
const ScanKernel& scan_kernel();

}  // namespace gm::storage
