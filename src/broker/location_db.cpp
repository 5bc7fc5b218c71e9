#include "broker/location_db.h"

#include <limits>
#include <stdexcept>

namespace mgrid::broker {

bool LocationDb::record_update(MnId mn, SimTime t, geo::Vec2 position,
                               geo::Vec2 velocity) {
  if (!mn.valid()) {
    throw std::invalid_argument("LocationDb::record_update: invalid MnId");
  }
  return store_.apply_update(mn.value(), t, position, velocity);
}

std::optional<LocationRecord> LocationDb::lookup(MnId mn) const {
  const MnTrack* track = store_.find(mn.value());
  if (track == nullptr) return std::nullopt;
  return track->record();
}

std::optional<geo::Vec2> LocationDb::belief_at(MnId mn, SimTime t) const {
  const MnTrack* track = store_.find(mn.value());
  if (track == nullptr) return std::nullopt;
  return track->belief_at(t);
}

Duration LocationDb::staleness(MnId mn, SimTime now) const {
  const MnTrack* track = store_.find(mn.value());
  if (track == nullptr) return std::numeric_limits<double>::infinity();
  return now - track->last_reported_time();
}

std::vector<MnId> LocationDb::known_nodes() const {
  std::vector<MnId> out;
  out.reserve(store_.size());
  for (const MnTrack* track : store_.sorted()) out.push_back(MnId{track->mn()});
  return out;
}

}  // namespace mgrid::broker
