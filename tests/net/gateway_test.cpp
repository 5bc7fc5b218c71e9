#include "net/gateway.h"

#include <gtest/gtest.h>

#include "geo/campus.h"

namespace mgrid::net {
namespace {

class GatewayTest : public testing::Test {
 protected:
  geo::CampusMap campus_ = geo::CampusMap::default_campus();
  GatewayNetwork network_{campus_};
};

TEST_F(GatewayTest, OneGatewayPerRegion) {
  EXPECT_EQ(network_.gateway_count(), campus_.region_count());
  for (const geo::Region& region : campus_.regions()) {
    const GatewayId gw = network_.gateway_for_region(region.id());
    EXPECT_EQ(network_.gateway(gw).coverage, region.id());
  }
}

TEST_F(GatewayTest, BuildingsGetAccessPointsRoadsGetBaseStations) {
  for (const geo::Region& region : campus_.regions()) {
    const WirelessGateway& gw =
        network_.gateway(network_.gateway_for_region(region.id()));
    if (region.is_building()) {
      EXPECT_EQ(gw.kind, GatewayKind::kAccessPoint);
      EXPECT_EQ(gw.name.substr(0, 3), "ap.");
    } else {
      EXPECT_EQ(gw.kind, GatewayKind::kBaseStation);
      EXPECT_EQ(gw.name.substr(0, 3), "bs.");
    }
  }
}

TEST_F(GatewayTest, ServingGatewayMatchesRegionContainment) {
  const geo::Region* b1 = campus_.find_region("B1");
  ASSERT_NE(b1, nullptr);
  const GatewayId gw = network_.serving_gateway(b1->representative_point());
  EXPECT_EQ(network_.gateway(gw).coverage, b1->id());
}

TEST_F(GatewayTest, OpenGroundFallsBackToNearestRegion) {
  const geo::Vec2 open{200.0, 150.0};
  const GatewayId gw = network_.serving_gateway(open);
  EXPECT_TRUE(gw.valid());  // always served by someone
}

TEST_F(GatewayTest, AssociationAndHandover) {
  const MnId mn{7};
  const geo::Region* b1 = campus_.find_region("B1");
  const geo::Region* b2 = campus_.find_region("B2");
  ASSERT_NE(b1, nullptr);
  ASSERT_NE(b2, nullptr);

  EXPECT_FALSE(network_.association(mn).has_value());
  auto first = network_.update_association(mn, b1->id());
  EXPECT_FALSE(first.handover);  // first association is not a handover
  EXPECT_EQ(network_.handover_count(), 0u);

  auto same = network_.update_association(mn, b1->id());
  EXPECT_FALSE(same.handover);

  auto moved = network_.update_association(mn, b2->id());
  EXPECT_TRUE(moved.handover);
  EXPECT_NE(moved.gateway, first.gateway);
  EXPECT_EQ(network_.handover_count(), 1u);
  EXPECT_EQ(network_.association(mn), moved.gateway);
}

TEST_F(GatewayTest, LoadCountsAssociatedNodes) {
  const geo::Region* b3 = campus_.find_region("B3");
  ASSERT_NE(b3, nullptr);
  const GatewayId gw = network_.gateway_for_region(b3->id());
  EXPECT_EQ(network_.load(gw), 0u);
  network_.update_association(MnId{1}, b3->id());
  network_.update_association(MnId{2}, b3->id());
  EXPECT_EQ(network_.load(gw), 2u);
}

TEST_F(GatewayTest, LookupValidation) {
  EXPECT_THROW((void)network_.gateway(GatewayId{99}), std::out_of_range);
  EXPECT_THROW((void)network_.gateway_for_region(RegionId{99}),
               std::out_of_range);
}

TEST(GatewayKindNames, ToString) {
  EXPECT_EQ(to_string(GatewayKind::kAccessPoint), "access_point");
  EXPECT_EQ(to_string(GatewayKind::kBaseStation), "base_station");
}

}  // namespace
}  // namespace mgrid::net
