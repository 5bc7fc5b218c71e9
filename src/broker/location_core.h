// Location tracking core shared by the federation broker
// (broker/location_db + broker/grid_broker) and the online serving layer
// (serve/directory).
//
// MnTrack owns everything the broker knows about one MN: the last reported
// fix, the current view (reported or estimated) and the per-MN location
// estimator clone. TrackStore is the location DB itself: every MN's track,
// created on its first LU, and the one per-tick estimate refresh over them.
// broker::LocationDb is a TrackStore behind the MnId API; each
// serve::ShardedDirectory shard is a TrackStore plus its cell index, so the
// serving layer's estimation behaviour is the federation broker's by
// construction, not by copy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
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
  MnTrack(std::uint32_t mn,
          std::unique_ptr<estimation::LocationEstimator> estimator);

  MnTrack(MnTrack&&) = default;
  MnTrack& operator=(MnTrack&&) = default;

  /// Applies a received LU: stores the fix as last-reported AND current
  /// view and feeds the estimator. Returns false (and does nothing) when
  /// `t`, the position or the velocity is not finite, or when `t` precedes
  /// the last received fix — the federation channel is in-order per MN and
  /// carries finite fixes, so this only triggers for hostile or
  /// replayed-out-of-order serving traffic.
  bool apply_update(SimTime t, geo::Vec2 position, geo::Vec2 velocity);

  /// True when advance(t) would record an estimate: an estimator is
  /// attached, the MN has reported, and the current view is older than `t`.
  [[nodiscard]] bool stale_at(SimTime t) const noexcept {
    return estimator_ != nullptr && has_report_ && record_.current_view.t < t;
  }

  /// Per-tick estimate refresh: when stale_at(t), computes estimate(t),
  /// records it as the current view and returns it. Returns nullopt when the
  /// view is already at or after `t` (received or estimated), so advancing
  /// twice to one tick changes nothing the second time, or when estimation
  /// is disabled.
  std::optional<geo::Vec2> advance(SimTime t);

  /// Best belief about the position *at time t*: the received fix when
  /// fresh or estimation is disabled, otherwise the estimator forecast.
  [[nodiscard]] geo::Vec2 belief_at(SimTime t) const;

  [[nodiscard]] bool has_report() const noexcept { return has_report_; }
  /// Sample time of the last *received* fix.
  [[nodiscard]] SimTime last_reported_time() const noexcept {
    return record_.last_reported.t;
  }
  [[nodiscard]] const LocationRecord& record() const noexcept {
    return record_;
  }
  [[nodiscard]] std::uint32_t mn() const noexcept { return mn_; }

  /// Serializes the full track state (flags, both fixes, estimator
  /// internals) as doubles for snapshotting. Configuration (mn, estimator
  /// choice) is NOT captured — load_state() requires a track constructed
  /// with identical configuration. Returns false when an estimator is
  /// attached but does not support state capture.
  [[nodiscard]] bool save_state(std::vector<double>& out) const;

  /// Restores state written by save_state() into an identically-configured
  /// track. Returns false (state unspecified) on malformed input.
  [[nodiscard]] bool load_state(const double*& it, const double* end);

 private:
  std::uint32_t mn_ = 0;
  bool has_report_ = false;
  LocationRecord record_;
  std::unique_ptr<estimation::LocationEstimator> estimator_;
};

/// Every MN's track, keyed by raw node id. Not thread-safe: the serving
/// directory guards each shard's store with the shard mutex.
class TrackStore {
 public:
  /// `prototype` (not owned; may be nullptr to disable estimation; must
  /// outlive the store) is cloned into each track on its first LU.
  explicit TrackStore(
      const estimation::LocationEstimator* prototype) noexcept
      : prototype_(prototype) {}

  /// Applies an LU to the MN's track (MnTrack::apply_update), creating the
  /// track on the MN's first LU. A rejected first LU leaves no track.
  bool apply_update(std::uint32_t mn, SimTime t, geo::Vec2 position,
                    geo::Vec2 velocity);

  /// Called with each estimate advance() records.
  using OnEstimate = std::function<void(std::uint32_t mn, geo::Vec2)>;

  /// Refreshes every stale track's view with its estimator forecast at `t`
  /// (MnTrack::advance) and returns the number of estimates recorded. When
  /// the calling thread captures an event log, the cursor is pointed at
  /// each stale MN's tick record first, so the estimator chain (horizon
  /// clamp, map matcher) can annotate what it did.
  std::size_t advance(SimTime t, const OnEstimate& on_estimate = nullptr);

  /// Re-creates one track from snapshot words (MnTrack::load_state).
  /// Returns it, or nullptr (nothing inserted) when the MN already has a
  /// track or the state is malformed.
  const MnTrack* restore(std::uint32_t mn, const double*& it,
                         const double* end);

  /// The MN's track; nullptr when it never reported.
  [[nodiscard]] const MnTrack* find(std::uint32_t mn) const;
  [[nodiscard]] std::size_t size() const noexcept { return tracks_.size(); }
  /// Every track, sorted by MN.
  [[nodiscard]] std::vector<const MnTrack*> sorted() const;
  /// Visits every track in storage order (cheaper than sorted()).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [mn, track] : tracks_) fn(track);
  }

 private:
  [[nodiscard]] MnTrack make_track(std::uint32_t mn) const;

  const estimation::LocationEstimator* prototype_;
  std::unordered_map<std::uint32_t, MnTrack> tracks_;
};

}  // namespace mgrid::broker
