#include "broker/location_core.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/eventlog.h"

namespace mgrid::broker {

MnTrack::MnTrack(std::uint32_t mn,
                 std::unique_ptr<estimation::LocationEstimator> estimator)
    : mn_(mn), estimator_(std::move(estimator)) {}

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
  if (estimator_ != nullptr) estimator_->observe(t, position, velocity);
  if (obs::eventlog_enabled()) {
    obs::evt::broker_received(mn_, t, velocity.x, velocity.y);
  }
  return true;
}

std::optional<geo::Vec2> MnTrack::advance(SimTime t) {
  if (!stale_at(t)) return std::nullopt;
  const geo::Vec2 estimate = estimator_->estimate(t);
  record_.current_view = LocationFix{t, estimate, {}, /*estimated=*/true};
  if (obs::eventlog_enabled()) obs::evt::broker_estimated(mn_, t);
  return estimate;
}

geo::Vec2 MnTrack::belief_at(SimTime t) const {
  if (estimator_ == nullptr || record_.last_reported.t >= t) {
    return record_.last_reported.position;
  }
  return estimator_->estimate(t);
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
  out.push_back(estimator_ != nullptr ? 1.0 : 0.0);
  if (estimator_ != nullptr) return estimator_->save_state(out);
  return true;
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
  if (saved_with_estimator != (estimator_ != nullptr)) return false;
  if (estimator_ != nullptr) return estimator_->load_state(it, end);
  return true;
}

MnTrack TrackStore::make_track(std::uint32_t mn) const {
  return MnTrack(mn, prototype_ != nullptr ? prototype_->clone() : nullptr);
}

bool TrackStore::apply_update(std::uint32_t mn, SimTime t, geo::Vec2 position,
                              geo::Vec2 velocity) {
  auto it = tracks_.find(mn);
  if (it == tracks_.end()) it = tracks_.emplace(mn, make_track(mn)).first;
  if (it->second.apply_update(t, position, velocity)) return true;
  if (!it->second.has_report()) tracks_.erase(it);
  return false;
}

std::size_t TrackStore::advance(SimTime t, const OnEstimate& on_estimate) {
  std::size_t made = 0;
  const bool eventlog = obs::eventlog_enabled();
  for (auto& [mn, track] : tracks_) {
    if (!track.stale_at(t)) continue;
    if (eventlog) obs::evt::set_cursor(mn, t);
    const geo::Vec2 estimate = *track.advance(t);  // stale, so it estimates
    ++made;
    if (on_estimate) on_estimate(mn, estimate);
  }
  if (eventlog) obs::evt::clear_cursor();
  return made;
}

const MnTrack* TrackStore::restore(std::uint32_t mn, const double*& it,
                                   const double* end) {
  if (tracks_.count(mn) != 0) return nullptr;
  MnTrack track = make_track(mn);
  if (!track.load_state(it, end)) return nullptr;
  return &tracks_.emplace(mn, std::move(track)).first->second;
}

const MnTrack* TrackStore::find(std::uint32_t mn) const {
  const auto it = tracks_.find(mn);
  return it == tracks_.end() ? nullptr : &it->second;
}

std::vector<const MnTrack*> TrackStore::sorted() const {
  std::vector<const MnTrack*> out;
  out.reserve(tracks_.size());
  for (const auto& [mn, track] : tracks_) out.push_back(&track);
  std::sort(out.begin(), out.end(), [](const MnTrack* a, const MnTrack* b) {
    return a->mn() < b->mn();
  });
  return out;
}

}  // namespace mgrid::broker
