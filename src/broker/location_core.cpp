#include "broker/location_core.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "obs/eventlog.h"

namespace mgrid::broker {

static_assert(std::is_nothrow_move_constructible_v<MnTrack>,
              "the slot vector relocates tracks by move");

namespace {

/// Copies `prototype` into the alternative of `out` whose type it has
/// exactly; false when no alternative is an estimator of its type.
template <typename... Alt>
bool copy_inline(const estimation::LocationEstimator& prototype,
                 std::variant<Alt...>& out) {
  const auto copy = [&]<typename E>() {
    if constexpr (std::is_base_of_v<estimation::LocationEstimator, E>) {
      if (typeid(prototype) != typeid(E)) return false;
      out.template emplace<E>(static_cast<const E&>(prototype));
      return true;
    } else {
      return false;
    }
  };
  return (copy.template operator()<Alt>() || ...);
}

}  // namespace

MnTrack::Estimator MnTrack::copy_estimator(
    const estimation::LocationEstimator* prototype) {
  Estimator out;
  if (prototype == nullptr) return out;
  if (!copy_inline(*prototype, out)) {
    out.emplace<HeapEstimator>(prototype->clone());
  }
  return out;
}

MnTrack::MnTrack(std::uint32_t mn,
                 const estimation::LocationEstimator* prototype)
    : mn_(mn), estimator_(copy_estimator(prototype)) {}

bool MnTrack::apply_update(SimTime t, geo::Vec2 position, geo::Vec2 velocity) {
  if (!std::isfinite(t) || !std::isfinite(position.x) ||
      !std::isfinite(position.y) || !std::isfinite(velocity.x) ||
      !std::isfinite(velocity.y)) {
    return false;
  }
  if (has_report_ && t < record_.last_reported.t) return false;
  const LocationFix fix{t, position, velocity, /*estimated=*/false};
  record_.last_reported = fix;
  record_.current_view = fix;
  has_report_ = true;
  if (has_estimator()) {
    with_estimator([&](auto& e) { e.observe(t, position, velocity); });
  }
  if (obs::eventlog_enabled()) {
    obs::evt::broker_received(mn_, t, velocity.x, velocity.y);
  }
  return true;
}

std::optional<geo::Vec2> MnTrack::advance(SimTime t) {
  if (!stale_at(t)) return std::nullopt;
  const geo::Vec2 estimate =
      with_estimator([t](const auto& e) { return e.estimate(t); });
  record_.current_view = LocationFix{t, estimate, {}, /*estimated=*/true};
  if (obs::eventlog_enabled()) obs::evt::broker_estimated(mn_, t);
  return estimate;
}

geo::Vec2 MnTrack::belief_at(SimTime t) const {
  if (!has_estimator() || record_.last_reported.t >= t) {
    return record_.last_reported.position;
  }
  return with_estimator([t](const auto& e) { return e.estimate(t); });
}

namespace {

void save_fix(std::vector<double>& out, const LocationFix& fix) {
  out.push_back(fix.t);
  out.push_back(fix.position.x);
  out.push_back(fix.position.y);
  out.push_back(fix.velocity.x);
  out.push_back(fix.velocity.y);
  out.push_back(fix.estimated ? 1.0 : 0.0);
}

bool load_fix(const double*& it, const double* end, LocationFix& fix) {
  if (end - it < 6) return false;
  fix.t = *it++;
  fix.position.x = *it++;
  fix.position.y = *it++;
  fix.velocity.x = *it++;
  fix.velocity.y = *it++;
  fix.estimated = *it++ != 0.0;
  return true;
}

}  // namespace

bool MnTrack::save_state(std::vector<double>& out) const {
  out.push_back(has_report_ ? 1.0 : 0.0);
  save_fix(out, record_.last_reported);
  save_fix(out, record_.current_view);
  out.push_back(has_estimator() ? 1.0 : 0.0);
  if (!has_estimator()) return true;
  return with_estimator([&out](const auto& e) { return e.save_state(out); });
}

bool MnTrack::load_state(const double*& it, const double* end) {
  if (it == end) return false;
  has_report_ = *it++ != 0.0;
  if (!load_fix(it, end, record_.last_reported) ||
      !load_fix(it, end, record_.current_view)) {
    return false;
  }
  if (it == end) return false;
  const bool saved_with_estimator = *it++ != 0.0;
  // The estimator flag must match this track's configuration, or the
  // snapshot was written for a differently-configured deployment.
  if (saved_with_estimator != has_estimator()) return false;
  if (!has_estimator()) return true;
  return with_estimator([&](auto& e) { return e.load_state(it, end); });
}

std::uint32_t TrackStore::open_slot(std::uint32_t mn) {
  const std::uint32_t slot = slots_.insert(MnId{mn});
  if (slot == tracks_.size()) {
    tracks_.emplace_back(mn, prototype_);
    present_.push_back(0);
  } else if (present_[slot] == 0) {
    // A failed restore may have left words in the absent track.
    tracks_[slot] = MnTrack(mn, prototype_);
  }
  return slot;
}

bool TrackStore::apply_update(std::uint32_t mn, SimTime t, geo::Vec2 position,
                              geo::Vec2 velocity) {
  const std::uint32_t slot = open_slot(mn);
  if (!tracks_[slot].apply_update(t, position, velocity)) return false;
  mark_present(slot);
  return true;
}

std::size_t TrackStore::advance(SimTime t, const OnEstimate& on_estimate) {
  if (prototype_ == nullptr) return 0;  // no track has an estimator
  std::size_t made = 0;
  const bool eventlog = obs::eventlog_enabled();
  for (std::uint32_t slot = 0; slot < tracks_.size(); ++slot) {
    MnTrack& track = tracks_[slot];
    if (present_[slot] == 0 || !track.stale_at(t)) continue;
    if (eventlog) obs::evt::set_cursor(track.mn(), t);
    const geo::Vec2 estimate = *track.advance(t);  // stale, so it estimates
    ++made;
    if (on_estimate) on_estimate(slot, estimate);
  }
  if (eventlog) obs::evt::clear_cursor();
  return made;
}

const MnTrack* TrackStore::restore(std::uint32_t mn, const double*& it,
                                   const double* end) {
  if (slot_of(mn) != kNoSlot) return nullptr;
  const std::uint32_t slot = open_slot(mn);
  if (!tracks_[slot].load_state(it, end)) return nullptr;
  mark_present(slot);
  return &tracks_[slot];
}

std::vector<const MnTrack*> TrackStore::sorted() const {
  std::vector<const MnTrack*> out;
  out.reserve(size_);
  for_each([&out](const MnTrack& track) { out.push_back(&track); });
  std::sort(out.begin(), out.end(), [](const MnTrack* a, const MnTrack* b) {
    return a->mn() < b->mn();
  });
  return out;
}

}  // namespace mgrid::broker
