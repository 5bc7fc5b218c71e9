#include "broker/grid_broker.h"

#include <algorithm>
#include <limits>

#include "obs/eventlog.h"
#include "obs/metrics.h"

namespace mgrid::broker {

namespace {

struct BrokerMetrics {
  obs::Counter updates;
  obs::Counter estimates;
  obs::Counter keepalives;
  obs::Gauge db_size;

  explicit BrokerMetrics(obs::MetricsRegistry& registry) {
    updates = registry.counter("mgrid_broker_updates_total", {},
                               "Location updates ingested by the broker");
    estimates = registry.counter(
        "mgrid_broker_estimates_total", {},
        "Positions filled in by the location estimator on ticks");
    keepalives = registry.counter("mgrid_broker_keepalives_total", {},
                                  "Liveness beacons received");
    db_size = registry.gauge("mgrid_broker_db_size", {},
                             "MNs tracked in the location database");
  }
};

BrokerMetrics& broker_metrics() {
  return obs::instruments<BrokerMetrics>();
}

}  // namespace

GridBroker::GridBroker(
    std::unique_ptr<estimation::LocationEstimator> estimator_prototype)
    : prototype_(std::move(estimator_prototype)), db_(prototype_.get()) {}

void GridBroker::on_location_update(MnId mn, SimTime t, geo::Vec2 position,
                                    geo::Vec2 velocity,
                                    double battery_fraction) {
  db_.record_update(mn, t, position, velocity);
  Contact& record = contact(mn);
  record.last_time = t;
  record.battery = battery_fraction;
  ++stats_.updates_received;
  if (obs::enabled()) broker_metrics().updates.inc();
}

void GridBroker::on_tick(SimTime t) {
  // Refreshing the DB-size gauge once per tick keeps it off the per-LU path.
  if (obs::enabled()) {
    broker_metrics().db_size.set(static_cast<double>(db_.size()));
  }
  if (prototype_ == nullptr) return;  // view stays at the last fix
  const std::size_t made = db_.advance_estimates(t);
  stats_.estimates_made += made;
  if (obs::enabled() && made > 0) {
    broker_metrics().estimates.inc(made);
  }
}

GridBroker::Contact& GridBroker::contact(MnId mn) {
  const std::uint32_t slot = contact_slots_.insert(mn);
  if (slot == contacts_.size()) contacts_.emplace_back();
  return contacts_[slot];
}

double GridBroker::battery_fraction(MnId mn) const {
  const std::uint32_t slot = contact_slots_.find(mn);
  return slot == util::MnSlotIndex::kNoSlot ? 1.0 : contacts_[slot].battery;
}

void GridBroker::on_keepalive(MnId mn, SimTime t) {
  contact(mn).last_time = t;
  ++stats_.keepalives_received;
  if (obs::enabled()) broker_metrics().keepalives.inc();
}

Duration GridBroker::contact_staleness(MnId mn, SimTime now) const {
  const std::uint32_t slot = contact_slots_.find(mn);
  if (slot == util::MnSlotIndex::kNoSlot) {
    return std::numeric_limits<double>::infinity();
  }
  return now - contacts_[slot].last_time;
}

std::vector<MnId> GridBroker::silent_nodes(SimTime now,
                                           Duration timeout) const {
  std::vector<MnId> out;
  for (std::uint32_t slot = 0; slot < contacts_.size(); ++slot) {
    if (now - contacts_[slot].last_time > timeout) {
      out.push_back(contact_slots_.mn(slot));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<geo::Vec2> GridBroker::belief_at(MnId mn, SimTime t) const {
  return db_.belief_at(mn, t);
}

std::optional<geo::Vec2> GridBroker::position_view(MnId mn) const {
  const std::optional<LocationRecord> record = db_.lookup(mn);
  if (!record) return std::nullopt;
  return record->current_view.position;
}

}  // namespace mgrid::broker
