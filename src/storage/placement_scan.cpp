#include "storage/placement_scan.hpp"

#include <array>
#include <cstring>

namespace gm::storage {
namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// mix_hash(key, b) from util/rng.hpp, with its key-only terms hoisted
// into `c` = kGolden + (key << 6) + (key >> 2): z = b on entry,
// mix_hash(key, b) on return, for one id or a vector of them. The
// kernels carry their own copy because GCC does not inline a
// default-target function into one built for another ISA level; the
// placement tests check every variant against mix_hash.
template <class T>
[[gnu::always_inline]] inline void mix_in_place(T& z, std::uint64_t key,
                                                std::uint64_t c) {
  z = (key ^ (z + c)) + kGolden;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
}

[[gnu::always_inline]] inline std::uint64_t mix_one(NodeId id,
                                                  std::uint64_t key,
                                                  std::uint64_t c) {
  std::uint64_t z = id;
  mix_in_place(z, key, c);
  return z;
}

// The first maximum of a tile, one id at a time.
[[gnu::always_inline]] inline TileMax scalar_first_max(
    std::uint64_t key, std::uint64_t c, const NodeId* ids,
    std::uint32_t begin, std::uint32_t end) {
  TileMax best{mix_one(ids[begin], key, c), begin};
  for (std::uint32_t i = begin + 1; i < end; ++i) {
    const std::uint64_t z = mix_one(ids[i], key, c);
    if (z > best.score) best = {z, i};
  }
  return best;
}

template <unsigned Lanes>
struct LaneTypes;
template <>
struct LaneTypes<4> {
  using Ids = std::uint32_t __attribute__((vector_size(16)));
  using Words = std::uint64_t __attribute__((vector_size(32)));
};
template <>
struct LaneTypes<8> {
  using Ids = std::uint32_t __attribute__((vector_size(32)));
  using Words = std::uint64_t __attribute__((vector_size(64)));
};

// The first maximum of a tile of at least `Lanes` ids, `Lanes` at a
// time. Lane k sees indices begin + k, begin + k + Lanes, ... in
// ascending order, and a strict > keeps each lane's first maximum; a
// tile whose length is not a multiple of `Lanes` ends with a chunk
// that overlaps the one before, which only shows some lanes an id a
// second time. The lanes then reduce to the highest score at the
// smallest index.
template <unsigned Lanes>
[[gnu::always_inline]] inline TileMax lane_first_max(
    std::uint64_t key, std::uint64_t c, const NodeId* ids,
    std::uint32_t begin, std::uint32_t end) {
  using Ids = typename LaneTypes<Lanes>::Ids;
  using Words = typename LaneTypes<Lanes>::Words;
  Words iota;
  for (unsigned k = 0; k < Lanes; ++k) iota[k] = k;
  Ids raw;
  std::memcpy(&raw, ids + begin, sizeof raw);
  Words top = __builtin_convertvector(raw, Words);
  mix_in_place(top, key, c);
  Words top_index = iota + begin;
  for (std::uint32_t i = begin + Lanes; i < end; i += Lanes) {
    if (end - i < Lanes) i = end - Lanes;
    std::memcpy(&raw, ids + i, sizeof raw);
    Words z = __builtin_convertvector(raw, Words);
    mix_in_place(z, key, c);
    const auto higher = z > top;
    top = higher ? z : top;
    top_index = higher ? iota + i : top_index;
  }
  TileMax best{top[0], static_cast<std::uint32_t>(top_index[0])};
  for (unsigned k = 1; k < Lanes; ++k)
    if (top[k] > best.score ||
        (top[k] == best.score && top_index[k] < best.index))
      best = {top[k], static_cast<std::uint32_t>(top_index[k])};
  return best;
}

// The kernel body every variant instantiates. `Lanes` 1 is the scalar
// scan; otherwise tiles shorter than `Lanes` still run scalar.
template <unsigned Lanes>
[[gnu::always_inline]] inline void scan_body(std::uint64_t key,
                                             const NodeId* ids,
                                             const std::uint32_t* starts,
                                             std::size_t tiles,
                                             TileMax* out) {
  const std::uint64_t c = kGolden + (key << 6) + (key >> 2);
  for (std::size_t t = 0; t < tiles; ++t) {
    const std::uint32_t begin = starts[t];
    const std::uint32_t end = starts[t + 1];
    if constexpr (Lanes > 1) {
      if (end - begin >= Lanes) {
        out[t] = lane_first_max<Lanes>(key, c, ids, begin, end);
        continue;
      }
    }
    out[t] = scalar_first_max(key, c, ids, begin, end);
  }
}

void scan_scalar(std::uint64_t key, const NodeId* ids,
                 const std::uint32_t* starts, std::size_t tiles,
                 TileMax* out) {
  scan_body<1>(key, ids, starts, tiles, out);
}

#if defined(__x86_64__) && !defined(__clang__)

[[gnu::target("arch=x86-64-v3")]] void scan_x86_64_v3(
    std::uint64_t key, const NodeId* ids, const std::uint32_t* starts,
    std::size_t tiles, TileMax* out) {
  scan_body<4>(key, ids, starts, tiles, out);
}

[[gnu::target("arch=x86-64-v4")]] void scan_x86_64_v4(
    std::uint64_t key, const NodeId* ids, const std::uint32_t* starts,
    std::size_t tiles, TileMax* out) {
  scan_body<8>(key, ids, starts, tiles, out);
}

#endif

}  // namespace

std::span<const ScanKernel> scan_kernels() {
#if defined(__x86_64__) && !defined(__clang__)
  static const auto kernels = [] {
    __builtin_cpu_init();
    return std::array<ScanKernel, 3>{{
        {"scalar", scan_scalar, true},
        {"x86-64-v3", scan_x86_64_v3,
         __builtin_cpu_supports("x86-64-v3") != 0},
        {"x86-64-v4", scan_x86_64_v4,
         __builtin_cpu_supports("x86-64-v4") != 0},
    }};
  }();
#else
  static const std::array<ScanKernel, 1> kernels{
      {{"scalar", scan_scalar, true}}};
#endif
  return kernels;
}

const ScanKernel& scan_kernel() {
  static const ScanKernel& chosen = []() -> const ScanKernel& {
    const auto kernels = scan_kernels();
    std::size_t widest = 0;
    for (std::size_t k = 0; k < kernels.size(); ++k)
      if (kernels[k].supported) widest = k;
    return kernels[widest];
  }();
  return chosen;
}

}  // namespace gm::storage
