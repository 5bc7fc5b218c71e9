#include "core/distance_filter.h"

#include <gtest/gtest.h>

namespace mgrid::core {
namespace {

TEST(DistanceFilter, Validation) {
  DistanceFilter filter;
  EXPECT_THROW((void)filter.apply(MnId::invalid(), {0, 0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)filter.apply(MnId{1}, {0, 0}, -0.5),
               std::invalid_argument);
}

TEST(DistanceFilter, FirstSampleAlwaysTransmits) {
  DistanceFilter filter;
  const auto decision = filter.apply(MnId{1}, {5, 5}, 100.0);
  EXPECT_TRUE(decision.transmit);
  EXPECT_EQ(decision.moved, 0.0);
  EXPECT_EQ(filter.transmitted(), 1u);
}

TEST(DistanceFilter, FiltersWithinThreshold) {
  DistanceFilter filter;
  filter.apply(MnId{1}, {0, 0}, 2.0);
  const auto decision = filter.apply(MnId{1}, {1.0, 0.0}, 2.0);
  EXPECT_FALSE(decision.transmit);
  EXPECT_EQ(decision.moved, 1.0);
  EXPECT_EQ(filter.filtered(), 1u);
}

TEST(DistanceFilter, ThresholdIsStrictlyExceeded) {
  DistanceFilter filter;
  filter.apply(MnId{1}, {0, 0}, 2.0);
  // moved == dth -> still filtered (must strictly exceed).
  EXPECT_FALSE(filter.apply(MnId{1}, {2.0, 0.0}, 2.0).transmit);
  EXPECT_TRUE(filter.apply(MnId{1}, {2.01, 0.0}, 2.0).transmit);
}

TEST(DistanceFilter, DisplacementAccumulatesAcrossFilteredSamples) {
  // A slow mover eventually reports: distance is measured from the last
  // TRANSMITTED position, not the previous sample.
  DistanceFilter filter;
  filter.apply(MnId{1}, {0, 0}, 2.5);
  int transmissions = 0;
  for (int i = 1; i <= 10; ++i) {
    if (filter.apply(MnId{1}, {i * 1.0, 0.0}, 2.5).transmit) ++transmissions;
  }
  // Transmits at x=3, 6, 9 (each > 2.5 from the previous anchor).
  EXPECT_EQ(transmissions, 3);
  EXPECT_EQ(filter.last_transmitted(MnId{1}), (geo::Vec2{9.0, 0.0}));
}

TEST(DistanceFilter, ZeroThresholdTransmitsAnyMovement) {
  DistanceFilter filter;
  filter.apply(MnId{1}, {0, 0}, 0.0);
  EXPECT_TRUE(filter.apply(MnId{1}, {0.001, 0.0}, 0.0).transmit);
  EXPECT_FALSE(filter.apply(MnId{1}, {0.001, 0.0}, 0.0).transmit);  // same spot
}

TEST(DistanceFilter, NodesAreIndependent) {
  DistanceFilter filter;
  filter.apply(MnId{1}, {0, 0}, 5.0);
  filter.apply(MnId{2}, {100, 100}, 5.0);
  EXPECT_FALSE(filter.apply(MnId{1}, {1, 0}, 5.0).transmit);
  EXPECT_FALSE(filter.apply(MnId{2}, {101, 100}, 5.0).transmit);
  EXPECT_EQ(filter.tracked_count(), 2u);
}

TEST(DistanceFilter, ForceTransmitMovesAnchor) {
  DistanceFilter filter;
  filter.apply(MnId{1}, {0, 0}, 10.0);
  const double moved = filter.force_transmit(MnId{1}, {3, 4});
  EXPECT_EQ(moved, 5.0);
  EXPECT_EQ(filter.last_transmitted(MnId{1}), (geo::Vec2{3, 4}));
  EXPECT_EQ(filter.transmitted(), 2u);
  // Unknown node: force_transmit introduces it.
  EXPECT_EQ(filter.force_transmit(MnId{9}, {1, 1}), 0.0);
}

TEST(DistanceFilter, ForgetDropsAnchor) {
  DistanceFilter filter;
  filter.apply(MnId{1}, {0, 0}, 1.0);
  filter.forget(MnId{1});
  EXPECT_FALSE(filter.last_transmitted(MnId{1}).has_value());
  // Reappearing counts as a first sighting again.
  EXPECT_TRUE(filter.apply(MnId{1}, {0, 0}, 1.0).transmit);
}

TEST(DistanceFilter, AnyValidIdIsTracked) {
  // Ids past the direct slot range take the hash fallback.
  DistanceFilter filter;
  for (const MnId mn : {MnId{0}, MnId{1u << 20}, MnId{0xFFFFFFFEu}}) {
    EXPECT_TRUE(filter.apply(mn, {0.0, 0.0}, 1.0).transmit);
    EXPECT_FALSE(filter.apply(mn, {0.5, 0.0}, 1.0).transmit);
    EXPECT_TRUE(filter.apply(mn, {2.0, 0.0}, 1.0).transmit);
    EXPECT_EQ(filter.last_transmitted(mn), (geo::Vec2{2.0, 0.0}));
  }
  EXPECT_EQ(filter.tracked_count(), 3u);
  filter.forget(MnId{1u << 20});
  filter.forget(MnId{1u << 20});  // twice: still one fewer
  filter.forget(MnId{77});        // never seen
  EXPECT_EQ(filter.tracked_count(), 2u);
  EXPECT_FALSE(filter.last_transmitted(MnId{1u << 20}).has_value());
  EXPECT_FALSE(filter.last_transmitted(MnId{77}).has_value());
  // A forgotten node is new again: its next sample always transmits.
  EXPECT_TRUE(filter.apply(MnId{1u << 20}, {2.0, 0.0}, 1.0).transmit);
  EXPECT_EQ(filter.tracked_count(), 3u);
}

TEST(DistanceFilter, ErrorBoundProperty) {
  // Invariant the broker relies on: between transmissions, the node is
  // never farther than DTH from its last transmitted position.
  DistanceFilter filter;
  const double dth = 3.0;
  geo::Vec2 p{0, 0};
  filter.apply(MnId{1}, p, dth);
  for (int i = 0; i < 100; ++i) {
    p.x += 0.7;
    p.y += (i % 2 == 0) ? 0.3 : -0.3;
    const auto decision = filter.apply(MnId{1}, p, dth);
    if (!decision.transmit) {
      EXPECT_LE(geo::distance(*filter.last_transmitted(MnId{1}), p), dth);
    } else {
      EXPECT_EQ(*filter.last_transmitted(MnId{1}), p);
    }
  }
}

}  // namespace
}  // namespace mgrid::core
