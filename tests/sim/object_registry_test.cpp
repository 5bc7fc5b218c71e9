#include "sim/object_registry.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/federation.h"

namespace mgrid::sim {
namespace {

/// Owns a vehicle object and reflects its position each grant.
class TrackPublisher final : public Federate {
 public:
  TrackPublisher() : Federate("publisher") {}

  void on_start(SimTime t0) override {
    publisher_.emplace(id(), [this](std::string topic, SimTime ts,
                                    std::shared_ptr<const InteractionPayload>
                                        payload) {
      send(this->topic(topic), ts, std::move(payload));
    });
    vehicle_ = publisher_->register_object("vehicle", "shuttle-1", t0);
  }

  void on_time_grant(SimTime t) override {
    if (removed_) return;  // the instance is gone; nothing to reflect
    position_.x += 5.0;
    publisher_->update_attributes(
        *vehicle_,
        {{"position", AttributeValue{position_}},
         {"speed", AttributeValue{5.0}},
         {"driver", AttributeValue{std::string("kim")}}},
        t);
    if (t >= remove_at_ && !removed_) {
      publisher_->remove_object(*vehicle_, t);
      removed_ = true;
    }
  }

  std::optional<ObjectPublisher> publisher_;
  std::optional<ObjectInstanceId> vehicle_;
  geo::Vec2 position_{0, 0};
  SimTime remove_at_ = 1e18;
  bool removed_ = false;
};

/// Subscribes to vehicle objects and maintains an ObjectView.
class TrackSubscriber final : public Federate {
 public:
  TrackSubscriber() : Federate("subscriber") {}
  void on_join() override { subscribe(object_topic("vehicle")); }
  void receive(const Interaction& interaction) override {
    view_.apply(interaction);
  }
  ObjectView view_;
};

TEST(ObjectRegistry, TopicComposition) {
  EXPECT_EQ(object_topic("vehicle"), "hla.object.vehicle");
}

TEST(ObjectRegistry, PublisherValidation) {
  EXPECT_THROW(ObjectPublisher(FederateId::invalid(), [](auto...) {}),
               std::invalid_argument);
  EXPECT_THROW(ObjectPublisher(FederateId{0}, nullptr),
               std::invalid_argument);
  ObjectPublisher publisher(FederateId{0}, [](auto...) {});
  EXPECT_THROW((void)publisher.register_object("", "x", 0.0),
               std::invalid_argument);
  EXPECT_THROW(publisher.update_attributes(99, {}, 0.0), std::out_of_range);
  EXPECT_THROW(publisher.remove_object(99, 0.0), std::out_of_range);
}

TEST(ObjectRegistry, InstanceIdsAreFederationUnique) {
  std::vector<ObjectInstanceId> ids;
  ObjectPublisher a(FederateId{1},
                    [](std::string, SimTime,
                       std::shared_ptr<const InteractionPayload>) {});
  ObjectPublisher b(FederateId{2},
                    [](std::string, SimTime,
                       std::shared_ptr<const InteractionPayload>) {});
  ids.push_back(a.register_object("c", "x", 0.0));
  ids.push_back(a.register_object("c", "y", 0.0));
  ids.push_back(b.register_object("c", "z", 0.0));
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_NE(ids[0], ids[2]);
  EXPECT_NE(ids[1], ids[2]);
}

TEST(ObjectRegistry, DiscoverReflectRemoveFlowsThroughFederation) {
  Federation federation;
  auto publisher = std::make_shared<TrackPublisher>();
  auto subscriber = std::make_shared<TrackSubscriber>();
  federation.join(publisher);
  federation.join(subscriber);
  federation.run(0.0, 5.0, 1.0);

  const ObjectView& view = subscriber->view_;
  EXPECT_EQ(view.live_count(), 1u);
  const ObjectView::Instance* shuttle = view.find_by_name("shuttle-1");
  ASSERT_NE(shuttle, nullptr);
  EXPECT_EQ(shuttle->object_class, "vehicle");
  EXPECT_EQ(shuttle->owner, publisher->id());
  // The reflect with timestamp 4 is the last delivered (ts-5 is in flight).
  const auto position = view.attribute_vec2(shuttle->id, "position");
  ASSERT_TRUE(position.has_value());
  EXPECT_EQ(position->x, 20.0);
  EXPECT_EQ(view.attribute_double(shuttle->id, "speed"), 5.0);
  EXPECT_EQ(view.attribute_string(shuttle->id, "driver"), "kim");
  EXPECT_EQ(shuttle->last_update, 4.0);
}

TEST(ObjectRegistry, TypedAccessorsRejectWrongTypes) {
  Federation federation;
  auto publisher = std::make_shared<TrackPublisher>();
  auto subscriber = std::make_shared<TrackSubscriber>();
  federation.join(publisher);
  federation.join(subscriber);
  federation.run(0.0, 3.0, 1.0);
  const ObjectView::Instance* shuttle =
      subscriber->view_.find_by_name("shuttle-1");
  ASSERT_NE(shuttle, nullptr);
  EXPECT_FALSE(
      subscriber->view_.attribute_double(shuttle->id, "position").has_value());
  EXPECT_FALSE(
      subscriber->view_.attribute_vec2(shuttle->id, "driver").has_value());
  EXPECT_FALSE(
      subscriber->view_.attribute_string(shuttle->id, "speed").has_value());
  EXPECT_FALSE(
      subscriber->view_.attribute_double(shuttle->id, "missing").has_value());
  EXPECT_FALSE(
      subscriber->view_.attribute_double(9999, "speed").has_value());
}

TEST(ObjectRegistry, RemovedInstancesDisappearFromLiveQueries) {
  Federation federation;
  auto publisher = std::make_shared<TrackPublisher>();
  publisher->remove_at_ = 3.0;
  auto subscriber = std::make_shared<TrackSubscriber>();
  federation.join(publisher);
  federation.join(subscriber);
  federation.run(0.0, 6.0, 1.0);
  EXPECT_EQ(subscriber->view_.live_count(), 0u);
  EXPECT_EQ(subscriber->view_.find_by_name("shuttle-1"), nullptr);
  EXPECT_TRUE(subscriber->view_.instances_of("vehicle").empty());
  // The record itself still exists (marked removed).
  const auto ids = publisher->vehicle_;
  ASSERT_TRUE(ids.has_value());
  const ObjectView::Instance* ghost = subscriber->view_.find(*ids);
  ASSERT_NE(ghost, nullptr);
  EXPECT_TRUE(ghost->removed);
}

TEST(ObjectRegistry, NonSubscribersSeeNothing) {
  Federation federation;
  auto publisher = std::make_shared<TrackPublisher>();
  auto bystander = std::make_shared<TrackSubscriber>();
  // Re-subscribe the bystander to a different class.
  class Other final : public Federate {
   public:
    Other() : Federate("other") {}
    void on_join() override { subscribe(object_topic("pedestrian")); }
    void receive(const Interaction& interaction) override {
      view_.apply(interaction);
    }
    ObjectView view_;
  };
  auto other = std::make_shared<Other>();
  federation.join(publisher);
  federation.join(other);
  federation.run(0.0, 3.0, 1.0);
  EXPECT_EQ(other->view_.live_count(), 0u);
  (void)bystander;
}

}  // namespace
}  // namespace mgrid::sim
