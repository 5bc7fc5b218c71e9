#include "broker/location_db.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "estimation/estimator.h"

namespace mgrid::broker {
namespace {

TEST(LocationDb, Validation) {
  LocationDb db;
  EXPECT_THROW(db.record_update(MnId::invalid(), 0.0, {0, 0}, {0, 0}),
               std::invalid_argument);
}

TEST(LocationDb, UnknownNodeLookups) {
  LocationDb db;
  EXPECT_FALSE(db.knows(MnId{1}));
  EXPECT_FALSE(db.lookup(MnId{1}).has_value());
  EXPECT_TRUE(std::isinf(db.staleness(MnId{1}, 100.0)));
  EXPECT_TRUE(db.known_nodes().empty());
}

TEST(LocationDb, RecordUpdateSetsReportedAndView) {
  LocationDb db;
  db.record_update(MnId{1}, 5.0, {1, 2}, {0.5, 0.0});
  ASSERT_TRUE(db.knows(MnId{1}));
  const auto record = db.lookup(MnId{1});
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->last_reported.position, (geo::Vec2{1, 2}));
  EXPECT_EQ(record->last_reported.velocity, (geo::Vec2{0.5, 0.0}));
  EXPECT_EQ(record->current_view.position, (geo::Vec2{1, 2}));
  EXPECT_FALSE(record->current_view.estimated);
  EXPECT_EQ(db.staleness(MnId{1}, 8.0), 3.0);
}

TEST(LocationDb, EstimateUpdatesViewNotReported) {
  const std::unique_ptr<estimation::LocationEstimator> prototype =
      estimation::make_estimator("dead_reckoning");
  LocationDb db(prototype.get());
  db.record_update(MnId{1}, 5.0, {1, 2}, {0.5, 0.5});
  EXPECT_EQ(db.advance_estimates(6.0), 1u);
  const auto record = db.lookup(MnId{1});
  EXPECT_EQ(record->last_reported.position, (geo::Vec2{1, 2}));
  EXPECT_EQ(record->current_view.position, (geo::Vec2{1.5, 2.5}));
  EXPECT_EQ(record->current_view.t, 6.0);
  EXPECT_TRUE(record->current_view.estimated);
  // Staleness keys off the last *received* fix.
  EXPECT_EQ(db.staleness(MnId{1}, 10.0), 5.0);
}

TEST(LocationDb, SecondAdvanceToOneTickIsANoOp) {
  const std::unique_ptr<estimation::LocationEstimator> prototype =
      estimation::make_estimator("brown_polar");
  LocationDb db(prototype.get());
  for (std::uint32_t mn = 0; mn < 6; ++mn) {
    for (int k = 1; k <= 4; ++k) {
      const double t = static_cast<double>(k);
      db.record_update(MnId{mn}, t, {3.0 * t + mn, -2.0 * t}, {3.0, -2.0});
    }
  }
  db.record_update(MnId{0}, 7.0, {21.0, -14.0}, {3.0, -2.0});
  // Five tracks are stale at 7; MN 0 reported at 7.
  EXPECT_EQ(db.advance_estimates(7.0), 5u);
  std::vector<LocationRecord> swept;
  std::vector<geo::Vec2> beliefs;
  for (const MnId mn : db.known_nodes()) {
    swept.push_back(*db.lookup(mn));
    beliefs.push_back(*db.belief_at(mn, 9.0));
  }

  EXPECT_EQ(db.advance_estimates(7.0), 0u);
  EXPECT_EQ(db.advance_estimates(6.5), 0u);  // an earlier tick, too
  const std::vector<MnId> nodes = db.known_nodes();
  ASSERT_EQ(nodes.size(), swept.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const LocationRecord again = *db.lookup(nodes[i]);
    EXPECT_EQ(again.current_view.t, swept[i].current_view.t);
    EXPECT_EQ(again.current_view.position, swept[i].current_view.position);
    EXPECT_EQ(again.current_view.estimated, swept[i].current_view.estimated);
    EXPECT_EQ(*db.belief_at(nodes[i], 9.0), beliefs[i]);
  }
  EXPECT_EQ(db.advance_estimates(8.0), 6u);
}

TEST(LocationDb, RejectedFirstUpdateLeavesNoTrack) {
  LocationDb db;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(db.record_update(MnId{3}, 1.0, {nan, 0.0}, {0.0, 0.0}));
  EXPECT_FALSE(db.record_update(MnId{3}, nan, {0.0, 0.0}, {0.0, 0.0}));
  EXPECT_FALSE(db.knows(MnId{3}));
  EXPECT_FALSE(db.lookup(MnId{3}).has_value());
  EXPECT_TRUE(std::isinf(db.staleness(MnId{3}, 5.0)));
  EXPECT_TRUE(db.known_nodes().empty());
  EXPECT_EQ(db.size(), 0u);

  // A later good LU creates the track; a bad one after it keeps it.
  EXPECT_TRUE(db.record_update(MnId{3}, 2.0, {1.0, 1.0}, {0.0, 0.0}));
  EXPECT_FALSE(db.record_update(MnId{3}, 3.0, {nan, 1.0}, {0.0, 0.0}));
  EXPECT_TRUE(db.knows(MnId{3}));
  EXPECT_EQ(db.lookup(MnId{3})->current_view.position, (geo::Vec2{1.0, 1.0}));
}

TEST(LocationDb, KnownNodesSorted) {
  LocationDb db;
  db.record_update(MnId{7}, 0.0, {}, {});
  db.record_update(MnId{2}, 0.0, {}, {});
  db.record_update(MnId{5}, 0.0, {}, {});
  const auto nodes = db.known_nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0], MnId{2});
  EXPECT_EQ(nodes[1], MnId{5});
  EXPECT_EQ(nodes[2], MnId{7});
  EXPECT_EQ(db.size(), 3u);
}

}  // namespace
}  // namespace mgrid::broker
