// Single-MN location tracking core shared by the federation broker
// (broker/location_db + broker/grid_broker) and the online serving layer
// (serve/directory).
//
// MnTrack owns everything the broker knows about one MN: the last reported
// fix, the current view (reported or estimated), a bounded fix history and
// the per-MN location estimator clone. Both consumers drive it through the
// same two entry points — apply_update() for a received LU and advance()
// for the per-tick estimate refresh — so the serving layer's estimation
// behaviour is the federation broker's by construction, not by copy.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "estimation/estimator.h"
#include "geo/vec2.h"
#include "util/types.h"

namespace mgrid::broker {

/// One stored fix.
struct LocationFix {
  SimTime t = 0.0;
  geo::Vec2 position;
  geo::Vec2 velocity;
  /// True when produced by the location estimator rather than received.
  bool estimated = false;
};

/// The broker's knowledge about one MN.
struct LocationRecord {
  /// Last fix actually received from the ADF.
  LocationFix last_reported;
  /// Broker's current belief (== last_reported, or an estimate).
  LocationFix current_view;
};

class MnTrack {
 public:
  /// `mn` is the raw node id (used for event-log annotations), `estimator`
  /// may be nullptr to disable estimation for this track.
  MnTrack(std::uint32_t mn, std::size_t history_limit,
          std::unique_ptr<estimation::LocationEstimator> estimator);

  MnTrack(MnTrack&&) = default;
  MnTrack& operator=(MnTrack&&) = default;

  /// Applies a received LU: stores the fix as last-reported AND current
  /// view, appends to history and feeds the estimator. Returns false (and
  /// does nothing) when `t`, the position or the velocity is not finite, or
  /// when `t` precedes the last received fix — the federation channel is
  /// in-order per MN and carries finite fixes, so this only triggers for
  /// hostile or replayed-out-of-order serving traffic.
  bool apply_update(SimTime t, geo::Vec2 position, geo::Vec2 velocity);

  /// Stores an estimated position as the current view (the last reported
  /// fix is untouched).
  void apply_estimate(SimTime t, geo::Vec2 position);

  /// Per-tick estimate refresh: when an estimator is attached and the last
  /// received fix is older than `t`, computes estimate(t), records it as
  /// the current view and returns it. Returns nullopt when the view is
  /// already fresh at `t` or estimation is disabled.
  std::optional<geo::Vec2> advance(SimTime t);

  /// Best belief about the position *at time t*: the received fix when
  /// fresh or estimation is disabled, otherwise the estimator forecast.
  [[nodiscard]] geo::Vec2 belief_at(SimTime t) const;

  [[nodiscard]] bool has_report() const noexcept { return has_report_; }
  [[nodiscard]] bool has_estimator() const noexcept {
    return estimator_ != nullptr;
  }
  /// Sample time of the last *received* fix.
  [[nodiscard]] SimTime last_reported_time() const noexcept {
    return record_.last_reported.t;
  }
  [[nodiscard]] const LocationRecord& record() const noexcept {
    return record_;
  }
  [[nodiscard]] const std::deque<LocationFix>& history() const noexcept {
    return history_;
  }
  [[nodiscard]] const estimation::LocationEstimator* estimator()
      const noexcept {
    return estimator_.get();
  }
  [[nodiscard]] std::uint32_t mn() const noexcept { return mn_; }

  /// Serializes the full track state (flags, fixes, history, estimator
  /// internals) as doubles for snapshotting. Configuration (mn, history
  /// limit, estimator choice) is NOT captured — load_state() requires a
  /// track constructed with identical configuration. Returns false when an
  /// estimator is attached but does not support state capture.
  [[nodiscard]] bool save_state(std::vector<double>& out) const;

  /// Restores state written by save_state() into an identically-configured
  /// track. Validates counts against this track's limits; returns false
  /// (state unspecified) on malformed input.
  [[nodiscard]] bool load_state(const double*& it, const double* end);

 private:
  void push_history(const LocationFix& fix);

  std::uint32_t mn_ = 0;
  std::size_t history_limit_ = 128;
  bool has_report_ = false;
  LocationRecord record_;
  std::deque<LocationFix> history_;
  std::unique_ptr<estimation::LocationEstimator> estimator_;
};

}  // namespace mgrid::broker
