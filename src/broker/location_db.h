// Location database (paper Fig. 3: the grid broker's location DB).
//
// A broker::TrackStore (see broker/location_core.h) behind the MnId API:
// per MN the last *reported* fix, the broker's *current view* (reported or
// estimated) and — when an estimator prototype is attached — the per-MN
// location estimator, held inline in the track's slot. The online serving
// layer's directory shards are the same store.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "broker/location_core.h"
#include "geo/vec2.h"
#include "util/types.h"

namespace mgrid::broker {

class LocationDb {
 public:
  /// `estimator_prototype` (not owned; may be nullptr, must outlive the DB)
  /// is copied per MN on its first update so advance_estimates() /
  /// belief_at() can forecast.
  explicit LocationDb(
      const estimation::LocationEstimator* estimator_prototype = nullptr)
      : store_(estimator_prototype) {}
  /// The leading argument is ignored: it was the per-MN fix-history limit,
  /// and perfledger/bench_ledger.cpp still constructs
  /// `LocationDb(128, prototype)`.
  LocationDb(std::size_t /*unused*/,
             const estimation::LocationEstimator* estimator_prototype)
      : LocationDb(estimator_prototype) {}

  /// Stores a received LU and makes it the current view. Returns false
  /// (and changes nothing) when the LU is rejected (non-finite field, or
  /// `t` precedes the MN's last received fix — impossible on the in-order
  /// federation channel, but the shared core rejects it for the serving
  /// layer's sake); a rejected first LU leaves the MN unknown. Throws
  /// std::invalid_argument on an invalid MnId.
  bool record_update(MnId mn, SimTime t, geo::Vec2 position,
                     geo::Vec2 velocity);

  /// Refreshes the view of every known MN whose current view is older
  /// than `t` by recording its estimator forecast (no-op per MN when
  /// estimation is disabled). Returns the number of estimates recorded.
  std::size_t advance_estimates(SimTime t) { return store_.advance(t); }

  [[nodiscard]] bool knows(MnId mn) const noexcept {
    return store_.find(mn.value()) != nullptr;
  }
  /// Record for an MN; nullopt when never reported.
  [[nodiscard]] std::optional<LocationRecord> lookup(MnId mn) const;
  /// Best belief about the MN's position *at time t* (the received fix when
  /// fresh or estimation is disabled, otherwise the estimator forecast);
  /// nullopt when never reported.
  [[nodiscard]] std::optional<geo::Vec2> belief_at(MnId mn, SimTime t) const;
  /// Staleness of the last *received* fix at time `now` (+inf when never
  /// reported).
  [[nodiscard]] Duration staleness(MnId mn, SimTime now) const;

  /// All known MNs, sorted by id (deterministic iteration for callers).
  [[nodiscard]] std::vector<MnId> known_nodes() const;
  /// Visits every MN's track in slot order (no sort, no copy). `fn` must
  /// not update the DB: a track reference is valid only until the next
  /// record_update().
  template <typename Fn>
  void for_each_track(Fn&& fn) const {
    store_.for_each(std::forward<Fn>(fn));
  }
  [[nodiscard]] std::size_t size() const noexcept { return store_.size(); }

 private:
  TrackStore store_;
};

}  // namespace mgrid::broker
