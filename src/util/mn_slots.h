// Dense per-MN slot numbering.
//
// The classifier, the clusterer, the distance filter, the ADF, the gateway
// network and the grid broker keep their per-MN state in flat arrays
// indexed by slot instead of hash maps keyed by MnId. MnSlotIndex hands
// out slots 0, 1, 2, ... in first-seen order and finds them again. Ids
// below kDirectLimit — every simulated population, whose ids are dense
// from 0 — resolve through a flat array; any other id falls back to a hash
// map, so no MnId is refused. Slots are never recycled: a forgotten MN
// keeps its slot for when it returns.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/types.h"

namespace mgrid::util {

class MnSlotIndex {
 public:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();
  /// Ids below this take the flat-array path (4 bytes per id up to the
  /// largest one seen).
  static constexpr std::uint32_t kDirectLimit = 1u << 20;

  /// Slot of `mn`, or kNoSlot when it was never inserted.
  [[nodiscard]] std::uint32_t find(MnId mn) const noexcept {
    const std::uint32_t v = mn.value();
    if (v < direct_.size()) return direct_[v];
    if (v < kDirectLimit) return kNoSlot;
    const auto it = sparse_.find(v);
    return it == sparse_.end() ? kNoSlot : it->second;
  }

  /// Slot of `mn`, assigning the next free one on first sight.
  std::uint32_t insert(MnId mn) {
    const std::uint32_t v = mn.value();
    const auto next = static_cast<std::uint32_t>(mns_.size());
    if (v < kDirectLimit) {
      if (v >= direct_.size()) direct_.resize(std::size_t{v} + 1, kNoSlot);
      std::uint32_t& slot = direct_[v];
      if (slot == kNoSlot) {
        slot = next;
        mns_.push_back(mn);
      }
      return slot;
    }
    const auto [it, inserted] = sparse_.try_emplace(v, next);
    if (inserted) mns_.push_back(mn);
    return it->second;
  }

  /// The MN a slot belongs to.
  [[nodiscard]] MnId mn(std::uint32_t slot) const { return mns_[slot]; }

 private:
  std::vector<std::uint32_t> direct_;
  std::unordered_map<std::uint32_t, std::uint32_t> sparse_;
  std::vector<MnId> mns_;
};

}  // namespace mgrid::util
