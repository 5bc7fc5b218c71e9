// Location tracking core shared by the federation broker
// (broker/location_db + broker/grid_broker) and the online serving layer
// (serve/directory).
//
// MnTrack owns everything the broker knows about one MN: the last reported
// fix, the current view (reported or estimated) and the per-MN location
// estimator. TrackStore is the location DB itself: every MN's track,
// created on its first LU, and the one per-tick estimate refresh over them.
// broker::LocationDb is a TrackStore behind the MnId API; each
// serve::ShardedDirectory shard is a TrackStore plus its cell index, so the
// serving layer's estimation behaviour is the federation broker's by
// construction, not by copy.
//
// Storage. A TrackStore keeps its tracks by value in one contiguous slot
// vector behind a util::MnSlotIndex: slots 0, 1, 2, ... in first-seen
// order, ids below 2^20 resolved through a flat array, any other uint32 id
// (0xFFFFFFFF included) through the index's hash fallback. A per-slot
// presence flag says whether the slot holds a track: a rejected first LU,
// or a failed restore, leaves its slot absent, and size(), find(),
// for_each() and sorted() see present tracks only. advance() sweeps the
// slots in slot order.
//
// Inline estimator. An MnTrack holds its estimator in one closed
// std::variant: the five shipped base estimators (last_known,
// dead_reckoning, brown_polar, brown_cartesian, ses) inline, anything else
// (ar, the horizon clamp, the map matcher, a test double) behind a
// unique_ptr. The alternative is picked once, when the track is created,
// from the prototype's exact dynamic type: a base estimator is copied in,
// only the rest is cloned onto the heap. Calls on an inline alternative
// bind to the final class, so the per-tick forecast neither chases a
// pointer nor dispatches virtually.
//
// Pointer validity. The slot vector grows by relocation, so a pointer or
// reference from find(), restore(), track() or sorted() is valid only
// until the next apply_update() or restore() on the same store. Use it at
// once; the serving directory does so under the shard lock.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <variant>
#include <vector>

#include "estimation/basic_estimators.h"
#include "estimation/brown_estimator.h"
#include "estimation/estimator.h"
#include "geo/vec2.h"
#include "util/mn_slots.h"
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
  /// `mn` is the raw node id (used for event-log annotations).
  /// `prototype` (not owned; may be nullptr to disable estimation for this
  /// track) is copied into the track: inline when its exact type is one of
  /// the five base estimators, through clone() otherwise.
  MnTrack(std::uint32_t mn, const estimation::LocationEstimator* prototype);

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
    return has_report_ && record_.current_view.t < t && has_estimator();
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
  [[nodiscard]] bool has_estimator() const noexcept {
    return !std::holds_alternative<std::monostate>(estimator_);
  }
  /// True when the estimator lives behind a pointer (a chain, AR or any
  /// type other than the five base estimators).
  [[nodiscard]] bool estimator_on_heap() const noexcept {
    return std::holds_alternative<HeapEstimator>(estimator_);
  }
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
  using HeapEstimator = std::unique_ptr<estimation::LocationEstimator>;
  using Estimator =
      std::variant<std::monostate, estimation::LastKnownEstimator,
                   estimation::DeadReckoningEstimator,
                   estimation::BrownPolarEstimator,
                   estimation::BrownCartesianEstimator,
                   estimation::SesEstimator, HeapEstimator>;

  /// The variant alternative for `prototype`, built straight from it.
  static Estimator copy_estimator(
      const estimation::LocationEstimator* prototype);

  /// Calls `fn` with the attached estimator: an inline one as its final
  /// type (so the call binds statically), the heap one as a
  /// LocationEstimator. Requires has_estimator().
  template <typename Fn>
  decltype(auto) with_estimator(Fn&& fn) {
    return visit_estimator(estimator_, fn);
  }
  template <typename Fn>
  decltype(auto) with_estimator(Fn&& fn) const {
    return visit_estimator(estimator_, fn);
  }
  template <typename Variant, typename Fn>
  static decltype(auto) visit_estimator(Variant& estimator, Fn& fn) {
    using Base = std::conditional_t<std::is_const_v<Variant>,
                                    const estimation::LocationEstimator,
                                    estimation::LocationEstimator>;
    using Result = std::invoke_result_t<Fn&, Base&>;
    return std::visit(
        [&fn](auto& e) -> Result {
          using E = std::remove_cvref_t<decltype(e)>;
          if constexpr (std::is_same_v<E, std::monostate>) {
            std::abort();  // callers check has_estimator() first
          } else if constexpr (std::is_same_v<E, HeapEstimator>) {
            return fn(*e);
          } else {
            return fn(e);
          }
        },
        estimator);
  }

  std::uint32_t mn_ = 0;
  bool has_report_ = false;
  LocationRecord record_;
  Estimator estimator_;
};

/// Every MN's track, in slots (see the file comment). Not thread-safe: the
/// serving directory guards each shard's store with the shard mutex.
class TrackStore {
 public:
  static constexpr std::uint32_t kNoSlot = util::MnSlotIndex::kNoSlot;

  /// `prototype` (not owned; may be nullptr to disable estimation; must
  /// outlive the store) is copied into each track on its first LU.
  explicit TrackStore(const estimation::LocationEstimator* prototype)
      : prototype_(prototype) {}

  /// Applies an LU to the MN's track (MnTrack::apply_update), creating the
  /// track on the MN's first LU. A rejected first LU leaves no track.
  bool apply_update(std::uint32_t mn, SimTime t, geo::Vec2 position,
                    geo::Vec2 velocity);

  /// Called with the slot of each track advance() refreshes and its
  /// estimate.
  using OnEstimate = std::function<void(std::uint32_t slot, geo::Vec2)>;

  /// Refreshes every stale track's view with its estimator forecast at `t`
  /// (MnTrack::advance), in slot order, and returns the number of
  /// estimates recorded. When the calling thread captures an event log,
  /// the cursor is pointed at each stale MN's tick record first, so the
  /// estimator chain (horizon clamp, map matcher) can annotate what it did.
  std::size_t advance(SimTime t, const OnEstimate& on_estimate = nullptr);

  /// Re-creates one track from snapshot words (MnTrack::load_state).
  /// Returns it, or nullptr (no track left behind) when the MN already has
  /// a track or the state is malformed.
  const MnTrack* restore(std::uint32_t mn, const double*& it,
                         const double* end);

  /// The MN's track; nullptr when it has none.
  [[nodiscard]] const MnTrack* find(std::uint32_t mn) const {
    const std::uint32_t slot = slot_of(mn);
    return slot == kNoSlot ? nullptr : &tracks_[slot];
  }
  /// Slot of the MN's track; kNoSlot when it has none.
  [[nodiscard]] std::uint32_t slot_of(std::uint32_t mn) const noexcept {
    const std::uint32_t slot = slots_.find(MnId{mn});
    return slot != kNoSlot && present_[slot] ? slot : kNoSlot;
  }
  /// The track in a present slot.
  [[nodiscard]] const MnTrack& track(std::uint32_t slot) const {
    return tracks_[slot];
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Every track, sorted by MN.
  [[nodiscard]] std::vector<const MnTrack*> sorted() const;
  /// Visits every track in slot order (cheaper than sorted()).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t slot = 0; slot < tracks_.size(); ++slot) {
      if (present_[slot]) fn(tracks_[slot]);
    }
  }

 private:
  /// The MN's slot, holding its track or, when the slot is absent, a fresh
  /// one built from the prototype (still absent).
  std::uint32_t open_slot(std::uint32_t mn);
  void mark_present(std::uint32_t slot) noexcept {
    if (present_[slot] == 0) {
      present_[slot] = 1;
      ++size_;
    }
  }

  const estimation::LocationEstimator* prototype_;
  util::MnSlotIndex slots_;
  std::vector<MnTrack> tracks_;        ///< by slot
  std::vector<std::uint8_t> present_;  ///< by slot: 1 when it holds a track
  std::size_t size_ = 0;
};

}  // namespace mgrid::broker
