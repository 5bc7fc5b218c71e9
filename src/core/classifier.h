// Mobility-pattern classifier (paper §3.2.1, Fig. 2).
//
// From an MN's sampled positions it maintains a sliding observation window
// and classifies:
//   V_mn ~ 0                                  -> Stop State (SS)
//   V_mn > V_walk                             -> Linear Movement (running /
//                                                vehicle)
//   0 < V_mn <= V_walk, V and D constant      -> Linear Movement (walking)
//   0 < V_mn <= V_walk, V or D change often   -> Random Movement
#pragma once

#include <vector>

#include "core/motion_features.h"
#include "mobility/mobility_model.h"
#include "util/mn_slots.h"
#include "util/types.h"

namespace mgrid::core {

struct ClassifierParams {
  /// Maximum walking velocity V_walk (m/s). Faster nodes are running or in
  /// a vehicle -> LMS by definition.
  double walk_velocity = 2.0;
  /// Speeds below this are "not moving" (m/s).
  double stop_epsilon = 0.05;
  /// Sliding window length in samples (>= 2). Each tracked MN holds a
  /// fixed ring of window - 1 steps.
  std::size_t window = 8;
  /// A walking node is RMS when the stddev of consecutive heading changes
  /// exceeds this (radians)...
  double heading_change_threshold = 0.7;
  /// ...or when the speed coefficient-of-variation exceeds this.
  double speed_cv_threshold = 0.5;
};

class MobilityClassifier {
 public:
  explicit MobilityClassifier(ClassifierParams params = {});

  /// Feeds one sampled position. Samples must be time-ordered per MN
  /// (equal timestamps are ignored). The step from the previous sample is
  /// measured here, once: its speed, heading and heading change.
  void observe(MnId mn, SimTime t, geo::Vec2 position);

  /// Classifies from the current window. An MN with fewer than 2 samples is
  /// SS (nothing has been seen moving yet).
  [[nodiscard]] mobility::MobilityPattern classify(MnId mn) const;
  /// Classifies features already taken from features(mn), so a caller that
  /// also clusters on them computes them once.
  [[nodiscard]] mobility::MobilityPattern classify(
      const MotionFeatures& features) const;

  /// Motion features for the clusterer (zeroed when unknown MN).
  [[nodiscard]] MotionFeatures features(MnId mn) const;

  /// Drops an MN's history (e.g. when it leaves the grid).
  void forget(MnId mn);

  [[nodiscard]] std::size_t tracked_count() const noexcept {
    return tracked_;
  }
  [[nodiscard]] const ClassifierParams& params() const noexcept {
    return params_;
  }

 private:
  /// The step between two consecutive samples of the window.
  struct Step {
    double speed = 0.0;    // |displacement| / dt
    double heading = 0.0;  // of the displacement; set when moving
    /// angle_diff(heading, the previous moving step's heading); set when
    /// moving after an earlier moving step.
    double turn = 0.0;
    bool moving = false;  // speed >= stop_epsilon
  };
  /// One MN's window: its newest sample plus a ring of the last
  /// window - 1 steps in steps_[slot * ring_].
  struct Track {
    SimTime last_t = 0.0;
    geo::Vec2 last_position;
    std::size_t samples = 0;  // samples in the window; 0 = not tracked
    std::size_t oldest = 0;   // ring index of the oldest step
    double last_moving_heading = 0.0;
    bool has_moved = false;  // a moving step was seen since tracking began
  };

  ClassifierParams params_;
  std::size_t ring_;  // steps per window: params_.window - 1
  util::MnSlotIndex slots_;
  std::vector<Track> tracks_;
  std::vector<Step> steps_;
  std::size_t tracked_ = 0;
};

}  // namespace mgrid::core
