// Wireless gateways: the base stations (roads) and access points
// (buildings) that relay MN traffic into the wired grid (paper Fig. 3).
//
// GatewayNetwork owns one gateway per campus region, associates each MN with
// the gateway covering its position (nearest-region fallback for open
// ground) and counts handovers.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "geo/campus.h"
#include "util/mn_slots.h"
#include "util/types.h"

namespace mgrid::net {

enum class GatewayKind {
  kAccessPoint,  ///< wireless LAN inside a building
  kBaseStation,  ///< cellular coverage of roads/gates
};

[[nodiscard]] std::string_view to_string(GatewayKind kind) noexcept;

struct WirelessGateway {
  GatewayId id;
  std::string name;
  GatewayKind kind = GatewayKind::kBaseStation;
  RegionId coverage;  ///< region this gateway serves
};

class GatewayNetwork {
 public:
  /// Builds one gateway per region of `campus` (APs for buildings, base
  /// stations for roads and gates). The campus must outlive the network.
  explicit GatewayNetwork(const geo::CampusMap& campus);

  [[nodiscard]] std::size_t gateway_count() const noexcept {
    return gateways_.size();
  }
  [[nodiscard]] const WirelessGateway& gateway(GatewayId id) const;
  [[nodiscard]] const std::vector<WirelessGateway>& gateways() const noexcept {
    return gateways_;
  }
  [[nodiscard]] const geo::CampusMap& campus() const noexcept {
    return campus_;
  }
  /// Gateway serving the given region.
  [[nodiscard]] GatewayId gateway_for_region(RegionId region) const;

  /// Region whose gateway serves a node at `p`: the region containing it,
  /// else the nearest region.
  [[nodiscard]] RegionId serving_region(geo::Vec2 p) const;
  /// Gateway that would serve a node at `p` (serving_region's gateway).
  [[nodiscard]] GatewayId serving_gateway(geo::Vec2 p) const;

  /// Records the region the MN's current position lies in (its
  /// serving_region()); re-associates if that is another gateway's
  /// coverage. Returns the serving gateway and whether a handover happened.
  /// Throws std::out_of_range for a region without a gateway.
  struct AssociationResult {
    GatewayId gateway;
    bool handover = false;
  };
  AssociationResult update_association(MnId mn, RegionId region);

  /// Current association of an MN (nullopt before its first update).
  [[nodiscard]] std::optional<GatewayId> association(MnId mn) const;
  /// Number of MNs currently associated with `gw`.
  [[nodiscard]] std::size_t load(GatewayId gw) const;
  [[nodiscard]] std::uint64_t handover_count() const noexcept {
    return handovers_;
  }

 private:
  const geo::CampusMap& campus_;
  std::vector<WirelessGateway> gateways_;
  std::vector<GatewayId> by_region_;  // by RegionId
  util::MnSlotIndex slots_;
  std::vector<GatewayId> associations_;  // by slot
  std::uint64_t handovers_ = 0;
};

}  // namespace mgrid::net
