// Distance Filter (DF) — the LU suppression primitive (paper §3.2.2).
//
// Per MN it remembers the last *transmitted* position. A new sample is
// transmitted only when its distance from that anchor exceeds the Distance
// Threshold (DTH); otherwise the LU is filtered. Comparing against the last
// transmission (not the previous sample) means displacement accumulates, so
// even a slow mover eventually reports and the broker's error stays bounded
// by ~DTH.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "geo/vec2.h"
#include "util/mn_slots.h"
#include "util/types.h"

namespace mgrid::core {

class DistanceFilter {
 public:
  struct Decision {
    bool transmit = false;
    /// Distance from the last transmitted position (0 on first sighting).
    double moved = 0.0;
  };

  /// Applies the filter for one sample. The first sample of an MN is always
  /// transmitted (the broker must learn the node exists). `dth` must be
  /// >= 0.
  Decision apply(MnId mn, geo::Vec2 position, double dth);

  /// Transmits unconditionally and moves the anchor (used for forced
  /// refreshes). Returns the distance moved since the previous anchor.
  double force_transmit(MnId mn, geo::Vec2 position);

  /// Last transmitted position of an MN, if any.
  [[nodiscard]] std::optional<geo::Vec2> last_transmitted(MnId mn) const;

  void forget(MnId mn);
  [[nodiscard]] std::size_t tracked_count() const noexcept {
    return tracked_;
  }

  [[nodiscard]] std::uint64_t transmitted() const noexcept {
    return transmitted_;
  }
  [[nodiscard]] std::uint64_t filtered() const noexcept { return filtered_; }

 private:
  struct Anchor {
    geo::Vec2 position;
    bool set = false;
  };

  /// The anchor slot of `mn`, created unset on first sight.
  Anchor& anchor(MnId mn);

  util::MnSlotIndex slots_;
  std::vector<Anchor> anchors_;  // by slot
  std::size_t tracked_ = 0;
  std::uint64_t transmitted_ = 0;
  std::uint64_t filtered_ = 0;
};

}  // namespace mgrid::core
