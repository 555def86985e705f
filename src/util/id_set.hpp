#pragma once
// IdSet: a flat set of 64-bit ids for membership tests over a set that
// is rebuilt often, such as a slot's run set. One power-of-two table of
// at least twice the ids it may hold, linear probing from a
// multiplicative (Fibonacci) hash, and one sentinel value for empty
// cells. reset() empties the table in place, so a set reused across
// slots allocates only when it grows.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace gm {

class IdSet {
 public:
  /// Marks an empty cell: the one id the set cannot hold.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  IdSet() { reset(0); }

  /// Empties the set and sizes it for up to `n` inserts: 2n cells
  /// rounded up to a power of two, at least 2. Keeps the allocation
  /// when it is large enough.
  void reset(std::size_t n) {
    const std::size_t cells =
        std::bit_ceil(std::max<std::size_t>(2, 2 * n));
    cells_.assign(cells, kEmpty);
    shift_ = 64 - std::countr_zero(cells);
    limit_ = n;
    size_ = 0;
  }

  /// Adds `id`; false when it was already present.
  bool insert(std::uint64_t id) {
    GM_ASSERT_MSG(id != kEmpty, "IdSet cannot hold its empty marker");
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t i = home(id);; i = (i + 1) & mask) {
      if (cells_[i] == kEmpty) {
        GM_ASSERT_MSG(size_ < limit_,
                      "IdSet holds at most " << limit_ << " ids");
        cells_[i] = id;
        ++size_;
        return true;
      }
      if (cells_[i] == id) return false;
    }
  }

  /// The table always keeps an empty cell, so every probe ends.
  bool contains(std::uint64_t id) const {
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t i = home(id);; i = (i + 1) & mask) {
      if (cells_[i] == kEmpty) return false;
      if (cells_[i] == id) return true;
    }
  }

  std::size_t size() const { return size_; }

  /// The cell an id's probe starts at.
  std::size_t home(std::uint64_t id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }
  /// The table, kEmpty in empty cells (for tests of the probe layout).
  std::span<const std::uint64_t> cells() const { return cells_; }

 private:
  std::vector<std::uint64_t> cells_;
  int shift_ = 63;
  std::size_t limit_ = 0;
  std::size_t size_ = 0;
};

}  // namespace gm
