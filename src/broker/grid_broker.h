// Grid broker (paper Fig. 3 right-hand side).
//
// Receives filtered LUs from the ADF, stores them in the LocationDb and —
// when an MN's LU was filtered this tick — asks its Location Estimator (LE)
// for the node's position instead. With estimation disabled the broker's
// view is simply the last received fix (the paper's "without LE" lines).
#pragma once

#include <memory>
#include <vector>

#include "broker/location_db.h"
#include "estimation/estimator.h"
#include "util/mn_slots.h"
#include "util/types.h"

namespace mgrid::broker {

struct BrokerStats {
  std::uint64_t updates_received = 0;
  std::uint64_t estimates_made = 0;
  std::uint64_t keepalives_received = 0;
};

class GridBroker {
 public:
  /// `estimator_prototype` is copied per MN; pass nullptr to disable
  /// location estimation entirely.
  explicit GridBroker(
      std::unique_ptr<estimation::LocationEstimator> estimator_prototype =
          nullptr);

  /// Ingests a received (non-filtered) LU. `battery_fraction` is the
  /// remaining battery the device piggybacked (1.0 when unreported).
  void on_location_update(MnId mn, SimTime t, geo::Vec2 position,
                          geo::Vec2 velocity, double battery_fraction = 1.0);

  /// Last reported battery fraction (1.0 for unknown nodes).
  [[nodiscard]] double battery_fraction(MnId mn) const;

  /// Records a liveness-only contact (keepalive beacon): the node is alive
  /// but its position did not change enough to report.
  void on_keepalive(MnId mn, SimTime t);

  /// Called once per sampling tick after all LUs for `t` were delivered:
  /// refreshes the view of every known MN that did NOT report at `t` (via
  /// the LE when enabled; otherwise the stale fix simply remains current).
  void on_tick(SimTime t);

  /// Broker's current belief about an MN's position (nullopt when the MN
  /// has never reported).
  [[nodiscard]] std::optional<geo::Vec2> position_view(MnId mn) const;

  /// Broker's best belief about the MN's position *at time t* (>= the last
  /// received fix): the received fix itself when fresh, otherwise the LE
  /// forecast (or the stale fix when estimation is disabled). nullopt when
  /// the MN has never reported.
  [[nodiscard]] std::optional<geo::Vec2> belief_at(MnId mn, SimTime t) const;
  [[nodiscard]] const LocationDb& db() const noexcept { return db_; }
  [[nodiscard]] Duration staleness(MnId mn, SimTime now) const {
    return db_.staleness(mn, now);
  }

  [[nodiscard]] bool estimation_enabled() const noexcept {
    return prototype_ != nullptr;
  }
  [[nodiscard]] const BrokerStats& stats() const noexcept { return stats_; }

  /// Seconds since the last contact of any kind (LU or keepalive); +inf
  /// for unknown nodes. This is the liveness signal — with distance
  /// filtering, LU staleness alone cannot distinguish a parked node from a
  /// dead one.
  [[nodiscard]] Duration contact_staleness(MnId mn, SimTime now) const;

  /// Nodes the broker has heard from before whose last contact is older
  /// than `timeout` at `now` (sorted by id). These are presumed dead /
  /// disconnected and should not be scheduled.
  [[nodiscard]] std::vector<MnId> silent_nodes(SimTime now,
                                               Duration timeout) const;

 private:
  // Declared before db_: the DB copies the prototype per MN and keeps a
  // non-owning pointer to it.
  std::unique_ptr<estimation::LocationEstimator> prototype_;
  LocationDb db_;
  /// Per contacted MN (LU or keepalive), by slot: its last contact and the
  /// battery fraction its last LU reported (1.0 before any LU).
  struct Contact {
    SimTime last_time = 0.0;
    double battery = 1.0;
  };
  /// The MN's contact record, created on first contact.
  Contact& contact(MnId mn);

  util::MnSlotIndex contact_slots_;
  std::vector<Contact> contacts_;
  BrokerStats stats_;
};

}  // namespace mgrid::broker
