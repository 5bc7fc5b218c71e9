#include "core/distance_filter.h"

#include <stdexcept>

#include "obs/eventlog.h"

namespace mgrid::core {

DistanceFilter::Anchor& DistanceFilter::anchor(MnId mn) {
  const std::uint32_t slot = slots_.insert(mn);
  if (slot == anchors_.size()) anchors_.emplace_back();
  return anchors_[slot];
}

DistanceFilter::Decision DistanceFilter::apply(MnId mn, geo::Vec2 position,
                                               double dth) {
  if (!mn.valid()) {
    throw std::invalid_argument("DistanceFilter::apply: invalid MnId");
  }
  if (dth < 0.0) {
    throw std::invalid_argument("DistanceFilter::apply: dth must be >= 0");
  }
  Anchor& last = anchor(mn);
  if (!last.set) {
    last = Anchor{position, true};
    ++tracked_;
    ++transmitted_;
    if (obs::eventlog_enabled()) obs::evt::df_outcome(true, 0.0, true);
    return Decision{true, 0.0};
  }
  const double moved = geo::distance(last.position, position);
  if (moved > dth) {
    last.position = position;
    ++transmitted_;
    if (obs::eventlog_enabled()) obs::evt::df_outcome(true, moved, false);
    return Decision{true, moved};
  }
  ++filtered_;
  if (obs::eventlog_enabled()) obs::evt::df_outcome(false, moved, false);
  return Decision{false, moved};
}

double DistanceFilter::force_transmit(MnId mn, geo::Vec2 position) {
  Anchor& last = anchor(mn);
  ++transmitted_;
  if (!last.set) {
    last = Anchor{position, true};
    ++tracked_;
    return 0.0;
  }
  const double moved = geo::distance(last.position, position);
  last.position = position;
  return moved;
}

std::optional<geo::Vec2> DistanceFilter::last_transmitted(MnId mn) const {
  const std::uint32_t slot = slots_.find(mn);
  if (slot == util::MnSlotIndex::kNoSlot || !anchors_[slot].set) {
    return std::nullopt;
  }
  return anchors_[slot].position;
}

void DistanceFilter::forget(MnId mn) {
  const std::uint32_t slot = slots_.find(mn);
  if (slot == util::MnSlotIndex::kNoSlot || !anchors_[slot].set) return;
  anchors_[slot].set = false;
  --tracked_;
}

}  // namespace mgrid::core
