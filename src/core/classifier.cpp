#include "core/classifier.h"

#include <cmath>
#include <stdexcept>

#include "obs/eventlog.h"
#include "stats/running_stats.h"

namespace mgrid::core {

MobilityClassifier::MobilityClassifier(ClassifierParams params)
    : params_(params), ring_(params.window - 1) {
  if (params.window < 2) {
    throw std::invalid_argument("MobilityClassifier: window must be >= 2");
  }
  if (!(params.walk_velocity > 0.0)) {
    throw std::invalid_argument(
        "MobilityClassifier: walk_velocity must be > 0");
  }
  if (params.stop_epsilon < 0.0 ||
      params.stop_epsilon >= params.walk_velocity) {
    throw std::invalid_argument(
        "MobilityClassifier: stop_epsilon must be in [0, walk_velocity)");
  }
  if (params.heading_change_threshold <= 0.0 ||
      params.speed_cv_threshold <= 0.0) {
    throw std::invalid_argument(
        "MobilityClassifier: thresholds must be > 0");
  }
}

void MobilityClassifier::observe(MnId mn, SimTime t, geo::Vec2 position) {
  if (!mn.valid()) {
    throw std::invalid_argument("MobilityClassifier::observe: invalid MnId");
  }
  const std::uint32_t slot = slots_.insert(mn);
  if (slot == tracks_.size()) {
    tracks_.emplace_back();
    steps_.resize(steps_.size() + ring_);
  }
  Track& track = tracks_[slot];
  if (track.samples == 0) {
    track.last_t = t;
    track.last_position = position;
    track.samples = 1;
    ++tracked_;
    return;
  }
  if (t < track.last_t) {
    throw std::invalid_argument(
        "MobilityClassifier::observe: time went backwards");
  }
  if (t == track.last_t) return;  // duplicate tick

  Step step;
  const Duration dt = t - track.last_t;
  const geo::Vec2 displacement = position - track.last_position;
  step.speed = displacement.norm() / dt;
  // The heading of a (near-)zero displacement is noise, not direction.
  if (step.speed >= params_.stop_epsilon) {
    step.moving = true;
    step.heading = displacement.heading();
    if (track.has_moved) {
      step.turn = geo::angle_diff(step.heading, track.last_moving_heading);
    }
    track.last_moving_heading = step.heading;
    track.has_moved = true;
  }

  Step* ring = &steps_[slot * ring_];
  if (track.samples < params_.window) {
    std::size_t at = track.oldest + track.samples - 1;
    if (at >= ring_) at -= ring_;
    ring[at] = step;
    ++track.samples;
  } else {  // full: the new step replaces the oldest
    ring[track.oldest] = step;
    if (++track.oldest == ring_) track.oldest = 0;
  }
  track.last_t = t;
  track.last_position = position;
}

MotionFeatures MobilityClassifier::features(MnId mn) const {
  MotionFeatures out;
  const std::uint32_t slot = slots_.find(mn);
  if (slot == util::MnSlotIndex::kNoSlot) return out;
  const Track& track = tracks_[slot];
  out.samples = track.samples;
  if (track.samples < 2) return out;

  // Folds the cached steps oldest first, through the same accumulators and
  // in the same order as a pass over the raw samples would, so the result
  // is bit-identical to it. A turn counts only when the moving step before
  // it is still in the window: that is every moving step after the first.
  stats::RunningStats speeds;
  stats::RunningStats changes;
  bool seen_moving = false;
  const Step* ring = &steps_[slot * ring_];
  std::size_t at = track.oldest;
  for (std::size_t i = 1; i < track.samples; ++i) {
    const Step& step = ring[at];
    if (++at == ring_) at = 0;
    speeds.add(step.speed);
    if (!step.moving) continue;
    if (seen_moving) changes.add(step.turn);
    seen_moving = true;
    out.heading = step.heading;
  }
  out.mean_speed = speeds.mean();
  out.speed_stddev = speeds.stddev();

  if (!changes.empty()) {
    // RMS movement produces zero-mean but high-variance heading changes;
    // use the RMS of the change (not the stddev about the mean) so a single
    // steady turn still reads as "one direction change".
    const double mean_sq =
        changes.variance() + changes.mean() * changes.mean();
    out.heading_change_stddev = std::sqrt(mean_sq);
  }
  return out;
}

mobility::MobilityPattern MobilityClassifier::classify(MnId mn) const {
  return classify(features(mn));
}

mobility::MobilityPattern MobilityClassifier::classify(
    const MotionFeatures& f) const {
  mobility::MobilityPattern pattern = mobility::MobilityPattern::kLinear;
  // Fig. 2, line 1: V_mn == 0 -> Stop.
  if (f.samples < 2 || f.mean_speed < params_.stop_epsilon) {
    pattern = mobility::MobilityPattern::kStop;
  } else if (f.mean_speed > params_.walk_velocity) {
    // Fig. 2: V_mn > V_walk -> running / vehicle -> Linear.
    pattern = mobility::MobilityPattern::kLinear;
  } else if (f.heading_change_stddev > params_.heading_change_threshold ||
             f.speed_cv() > params_.speed_cv_threshold) {
    // Walking: frequent velocity or direction change -> Random.
    pattern = mobility::MobilityPattern::kRandom;
  }
  if (obs::eventlog_enabled()) {
    obs::evt::classified(pattern == mobility::MobilityPattern::kStop  ? 'S'
                         : pattern == mobility::MobilityPattern::kRandom
                             ? 'R'
                             : 'L');
  }
  return pattern;
}

void MobilityClassifier::forget(MnId mn) {
  const std::uint32_t slot = slots_.find(mn);
  if (slot == util::MnSlotIndex::kNoSlot || tracks_[slot].samples == 0) {
    return;
  }
  tracks_[slot] = Track{};
  --tracked_;
}

}  // namespace mgrid::core
