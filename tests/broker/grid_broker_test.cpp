#include "broker/grid_broker.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "estimation/estimator.h"

namespace mgrid::broker {
namespace {

TEST(GridBroker, WithoutEstimatorViewIsLastFix) {
  GridBroker broker;  // no estimator
  EXPECT_FALSE(broker.estimation_enabled());
  broker.on_location_update(MnId{1}, 1.0, {10, 0}, {2, 0});
  broker.on_tick(5.0);  // no-op without LE
  EXPECT_EQ(broker.position_view(MnId{1}), (geo::Vec2{10, 0}));
  EXPECT_EQ(broker.stats().updates_received, 1u);
  EXPECT_EQ(broker.stats().estimates_made, 0u);
}

TEST(GridBroker, UnknownNodeHasNoView) {
  GridBroker broker;
  EXPECT_FALSE(broker.position_view(MnId{3}).has_value());
}

TEST(GridBroker, EstimatorFillsFilteredTicks) {
  GridBroker broker(estimation::make_estimator("dead_reckoning"));
  EXPECT_TRUE(broker.estimation_enabled());
  broker.on_location_update(MnId{1}, 0.0, {0, 0}, {2, 0});
  broker.on_location_update(MnId{1}, 1.0, {2, 0}, {2, 0});
  // Tick 2 and 3 without updates: the view should dead-reckon forward.
  broker.on_tick(2.0);
  EXPECT_NEAR(broker.position_view(MnId{1})->x, 4.0, 1e-9);
  broker.on_tick(3.0);
  EXPECT_NEAR(broker.position_view(MnId{1})->x, 6.0, 1e-9);
  EXPECT_EQ(broker.stats().estimates_made, 2u);
  // The DB records the estimates as estimated fixes.
  EXPECT_TRUE(broker.db().lookup(MnId{1})->current_view.estimated);
}

TEST(GridBroker, FreshUpdateSuppressesEstimation) {
  GridBroker broker(estimation::make_estimator("dead_reckoning"));
  broker.on_location_update(MnId{1}, 0.0, {0, 0}, {1, 0});
  broker.on_location_update(MnId{1}, 1.0, {1, 0}, {1, 0});
  broker.on_tick(1.0);  // update for t=1 already present
  EXPECT_EQ(broker.stats().estimates_made, 0u);
  EXPECT_FALSE(broker.db().lookup(MnId{1})->current_view.estimated);
}

TEST(GridBroker, PerNodeEstimatorsAreIndependent) {
  GridBroker broker(estimation::make_estimator("dead_reckoning"));
  broker.on_location_update(MnId{1}, 0.0, {0, 0}, {1, 0});
  broker.on_location_update(MnId{2}, 0.0, {0, 0}, {0, 3});
  broker.on_tick(2.0);
  EXPECT_NEAR(broker.position_view(MnId{1})->x, 2.0, 1e-9);
  EXPECT_NEAR(broker.position_view(MnId{1})->y, 0.0, 1e-9);
  EXPECT_NEAR(broker.position_view(MnId{2})->y, 6.0, 1e-9);
}

TEST(GridBroker, StalenessComesFromReceivedFixes) {
  GridBroker broker(estimation::make_estimator("last_known"));
  broker.on_location_update(MnId{1}, 2.0, {0, 0}, {});
  broker.on_tick(7.0);
  EXPECT_EQ(broker.staleness(MnId{1}, 7.0), 5.0);  // estimates don't refresh
}

TEST(GridBroker, ContactsAnySetOfIdsInAnyOrder) {
  // First contacts in scrambled id order, one id far past the dense range
  // and one node heard only through keepalives.
  GridBroker broker;
  const MnId sparse{0xFFFFFF00u};
  broker.on_location_update(MnId{9}, 1.0, {0, 0}, {}, 0.5);
  broker.on_keepalive(sparse, 2.0);
  broker.on_location_update(MnId{3}, 3.0, {0, 0}, {}, 0.25);
  broker.on_keepalive(MnId{7}, 4.0);
  broker.on_location_update(MnId{9}, 5.0, {0, 0}, {}, 0.75);

  EXPECT_EQ(broker.battery_fraction(MnId{9}), 0.75);
  EXPECT_EQ(broker.battery_fraction(MnId{3}), 0.25);
  EXPECT_EQ(broker.battery_fraction(MnId{7}), 1.0);  // no LU yet
  EXPECT_EQ(broker.battery_fraction(sparse), 1.0);
  EXPECT_EQ(broker.battery_fraction(MnId{4}), 1.0);  // never heard
  EXPECT_EQ(broker.contact_staleness(sparse, 10.0), 8.0);
  EXPECT_TRUE(std::isinf(broker.contact_staleness(MnId{4}, 10.0)));

  EXPECT_EQ(broker.silent_nodes(10.0, 5.5),
            (std::vector<MnId>{MnId{3}, MnId{7}, sparse}));
  EXPECT_EQ(broker.silent_nodes(10.0, 0.0),
            (std::vector<MnId>{MnId{3}, MnId{7}, MnId{9}, sparse}));
}

}  // namespace
}  // namespace mgrid::broker
