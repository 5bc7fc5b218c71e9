// HLA-lite object management: registered object instances with reflected
// attributes.
//
// HLA federations carry two kinds of data: transient *interactions*
// (sim/interaction.h) and persistent *objects* whose attribute updates are
// reflected to subscribers. This registry implements the object half:
// a federate registers an instance of an object class, updates named
// attributes, and every federate subscribed to that class observes the
// updates (delivered with the same conservative timestamp order as
// interactions — reflection rides ON the interaction bus, so both
// executors stay deterministic).
//
// Attribute values are double/Vec2/string variants — enough for the mobile
// grid's object state (positions, speeds, names) without a serialisation
// layer.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "geo/vec2.h"
#include "sim/interaction.h"
#include "util/types.h"

namespace mgrid::sim {

/// Attribute value types supported by the reflection layer.
using AttributeValue = std::variant<double, geo::Vec2, std::string>;

/// Handle of a registered object instance (unique per federation).
using ObjectInstanceId = std::uint32_t;
inline constexpr ObjectInstanceId kInvalidObject =
    std::numeric_limits<ObjectInstanceId>::max();

/// Topic prefix used by the reflection layer on the interaction bus.
inline constexpr std::string_view kObjectTopicPrefix = "hla.object.";

/// Interaction payload carrying one object event.
struct ObjectEvent final : InteractionPayload {
  enum class Kind { kDiscover, kReflect, kRemove };

  Kind kind = Kind::kReflect;
  ObjectInstanceId instance = kInvalidObject;
  std::string object_class;
  std::string instance_name;  // set on discover
  /// Updated attributes (reflect) — name -> value.
  std::vector<std::pair<std::string, AttributeValue>> attributes;
};

/// A federate-local view of all discovered instances of the classes the
/// federate subscribed to. Feed every received ObjectEvent through
/// apply(); query current attribute state at any time.
class ObjectView {
 public:
  struct Instance {
    ObjectInstanceId id = kInvalidObject;
    std::string object_class;
    std::string name;
    FederateId owner;
    std::map<std::string, AttributeValue, std::less<>> attributes;
    SimTime last_update = 0.0;
    bool removed = false;
  };

  /// Applies a received event (call from Federate::receive()).
  void apply(const Interaction& interaction);

  [[nodiscard]] std::size_t live_count() const noexcept;
  /// Instance by id; nullptr when never discovered.
  [[nodiscard]] const Instance* find(ObjectInstanceId id) const noexcept;
  /// First live instance with this name; nullptr when absent.
  [[nodiscard]] const Instance* find_by_name(
      std::string_view name) const noexcept;
  /// All live instances of a class, ordered by id.
  [[nodiscard]] std::vector<const Instance*> instances_of(
      std::string_view object_class) const;

  /// Typed attribute accessors (nullopt when absent or of another type).
  [[nodiscard]] std::optional<double> attribute_double(
      ObjectInstanceId id, std::string_view name) const;
  [[nodiscard]] std::optional<geo::Vec2> attribute_vec2(
      ObjectInstanceId id, std::string_view name) const;
  [[nodiscard]] std::optional<std::string> attribute_string(
      ObjectInstanceId id, std::string_view name) const;

 private:
  std::map<ObjectInstanceId, Instance> instances_;
};

/// Builds the interaction topic for an object class.
[[nodiscard]] std::string object_topic(std::string_view object_class);

/// Publisher side: owned by the federate that registers objects. Emits
/// discover/reflect/remove events through the owning federate's send()
/// (passed in as a callback so this helper stays decoupled from Federate).
class ObjectPublisher {
 public:
  using SendFn = std::function<void(std::string topic, SimTime timestamp,
                                    std::shared_ptr<const InteractionPayload>)>;

  /// `self` is the owning federate's id (used to mint federation-unique
  /// instance ids); `send` must forward to Federate::send, interning the
  /// topic name through Federate::topic().
  ObjectPublisher(FederateId self, SendFn send);

  /// Registers an instance; emits a kDiscover event at `timestamp`.
  ObjectInstanceId register_object(std::string object_class,
                                   std::string instance_name,
                                   SimTime timestamp);
  /// Emits a kReflect event with the given attribute updates. Throws
  /// std::out_of_range for an unknown/removed instance.
  void update_attributes(
      ObjectInstanceId instance,
      std::vector<std::pair<std::string, AttributeValue>> attributes,
      SimTime timestamp);
  /// Emits a kRemove event and forgets the instance locally.
  void remove_object(ObjectInstanceId instance, SimTime timestamp);

  [[nodiscard]] std::size_t owned_count() const noexcept {
    return classes_.size();
  }

 private:
  FederateId self_;
  SendFn send_;
  std::uint32_t next_local_ = 0;
  std::map<ObjectInstanceId, std::string> classes_;  // owned instances
};

}  // namespace mgrid::sim
