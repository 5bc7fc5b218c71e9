// HLA-lite interactions.
//
// The paper runs its mobile grid on an HLA 1.3 federation; interactions are
// HLA's timestamped publish/subscribe messages. Ours carry an interned topic
// id, a timestamp, the sending federate and a polymorphic payload. Delivery
// order is total and deterministic: (timestamp, sender, per-sender
// sequence).
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <typeinfo>

#include "util/types.h"

namespace mgrid::sim {

struct TopicTag {};
/// Dense id of an interaction topic. A federation interns each topic name
/// once (Federation::topic) and numbers topics 0, 1, 2, ... in first-use
/// order; federates resolve the ids they need in on_join().
using TopicId = detail::TypedId<TopicTag>;

/// Base class for interaction payloads. Concrete payloads are `final`
/// structs deriving from this; receivers recover them with
/// Interaction::payload_as.
struct InteractionPayload {
  virtual ~InteractionPayload() = default;
};

struct Interaction {
  TopicId topic;
  FederateId sender;
  SimTime timestamp = 0.0;
  /// Per-sender sequence number (assigned by the federation at send time).
  std::uint64_t sequence = 0;
  std::shared_ptr<const InteractionPayload> payload;

  /// Typed payload access; nullptr when the payload is of another type.
  /// `T` must be final, so an exact type match is the whole test and no
  /// class hierarchy is walked.
  template <typename T>
  [[nodiscard]] const T* payload_as() const noexcept {
    static_assert(std::is_base_of_v<InteractionPayload, T>,
                  "payload_as: T must derive from InteractionPayload");
    static_assert(std::is_final_v<T>, "payload_as: T must be final");
    const InteractionPayload* p = payload.get();
    if (p == nullptr || typeid(*p) != typeid(T)) return nullptr;
    return static_cast<const T*>(p);
  }
};

/// Total delivery order: (timestamp, sender, sequence). Strict weak order.
struct InteractionOrder {
  bool operator()(const Interaction& a, const Interaction& b) const noexcept {
    if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
    if (a.sender != b.sender) return a.sender < b.sender;
    return a.sequence < b.sequence;
  }
};

/// Convenience for building payloads.
template <typename T, typename... Args>
std::shared_ptr<const InteractionPayload> make_payload(Args&&... args) {
  return std::make_shared<const T>(std::forward<Args>(args)...);
}

}  // namespace mgrid::sim
