#include "broker/location_core.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/eventlog.h"

namespace mgrid::broker {

MnTrack::MnTrack(std::uint32_t mn, std::size_t history_limit,
                 std::unique_ptr<estimation::LocationEstimator> estimator)
    : mn_(mn),
      history_limit_(history_limit),
      estimator_(std::move(estimator)) {
  if (history_limit == 0) {
    throw std::invalid_argument("MnTrack: history_limit must be >= 1");
  }
}

void MnTrack::push_history(const LocationFix& fix) {
  history_.push_back(fix);
  while (history_.size() > history_limit_) history_.pop_front();
}

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
  push_history(fix);
  if (estimator_ != nullptr) estimator_->observe(t, position, velocity);
  if (obs::eventlog_enabled()) {
    obs::evt::broker_received(mn_, t, velocity.x, velocity.y);
  }
  return true;
}

void MnTrack::apply_estimate(SimTime t, geo::Vec2 position) {
  const LocationFix fix{t, position, {}, /*estimated=*/true};
  record_.current_view = fix;
  push_history(fix);
  if (obs::eventlog_enabled()) obs::evt::broker_estimated(mn_, t);
}

std::optional<geo::Vec2> MnTrack::advance(SimTime t) {
  if (estimator_ == nullptr || !has_report_ ||
      record_.last_reported.t >= t) {
    return std::nullopt;
  }
  const geo::Vec2 estimate = estimator_->estimate(t);
  apply_estimate(t, estimate);
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
  out.push_back(static_cast<double>(history_.size()));
  for (const LocationFix& fix : history_) save_fix(out, fix);
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
  const double raw_count = *it++;
  if (!(raw_count >= 0.0) ||
      raw_count > static_cast<double>(history_limit_)) {
    return false;
  }
  const auto count = static_cast<std::size_t>(raw_count);
  if (static_cast<double>(count) != raw_count) return false;
  history_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    LocationFix fix;
    if (!load_fix(it, end, fix)) return false;
    history_.push_back(fix);
  }
  if (it == end) return false;
  const bool saved_with_estimator = *it++ != 0.0;
  // The estimator flag must match this track's configuration, or the
  // snapshot was written for a differently-configured deployment.
  if (saved_with_estimator != (estimator_ != nullptr)) return false;
  if (estimator_ != nullptr) return estimator_->load_state(it, end);
  return true;
}

}  // namespace mgrid::broker
