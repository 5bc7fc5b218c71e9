#include "net/gateway.h"

#include <algorithm>
#include <stdexcept>

#include "obs/eventlog.h"
#include "obs/metrics.h"

namespace mgrid::net {

namespace {

struct GatewayMetrics {
  obs::Counter handovers;
  obs::Gauge associations;

  explicit GatewayMetrics(obs::MetricsRegistry& registry) {
    handovers = registry.counter("mgrid_net_handovers_total", {},
                                 "MN re-associations between gateways");
    associations = registry.gauge("mgrid_net_associations", {},
                                  "MNs currently associated with a gateway");
  }
};

GatewayMetrics& gateway_metrics() {
  return obs::instruments<GatewayMetrics>();
}

}  // namespace

std::string_view to_string(GatewayKind kind) noexcept {
  switch (kind) {
    case GatewayKind::kAccessPoint:
      return "access_point";
    case GatewayKind::kBaseStation:
      return "base_station";
  }
  return "unknown";
}

GatewayNetwork::GatewayNetwork(const geo::CampusMap& campus)
    : campus_(campus) {
  if (campus.region_count() == 0) {
    throw std::invalid_argument("GatewayNetwork: campus has no regions");
  }
  for (const geo::Region& region : campus.regions()) {
    WirelessGateway gw;
    gw.id = GatewayId{static_cast<GatewayId::value_type>(gateways_.size())};
    gw.kind = region.is_building() ? GatewayKind::kAccessPoint
                                   : GatewayKind::kBaseStation;
    gw.name = (gw.kind == GatewayKind::kAccessPoint ? "ap." : "bs.") +
              region.name();
    gw.coverage = region.id();
    if (by_region_.size() <= region.id().value()) {
      by_region_.resize(region.id().value() + 1);
    }
    by_region_[region.id().value()] = gw.id;
    gateways_.push_back(std::move(gw));
  }
}

const WirelessGateway& GatewayNetwork::gateway(GatewayId id) const {
  if (!id.valid() || id.value() >= gateways_.size()) {
    throw std::out_of_range("GatewayNetwork::gateway: bad id");
  }
  return gateways_[id.value()];
}

GatewayId GatewayNetwork::gateway_for_region(RegionId region) const {
  if (!region.valid() || region.value() >= by_region_.size() ||
      !by_region_[region.value()].valid()) {
    throw std::out_of_range("GatewayNetwork::gateway_for_region: unknown");
  }
  return by_region_[region.value()];
}

RegionId GatewayNetwork::serving_region(geo::Vec2 p) const {
  const std::optional<RegionId> region = campus_.locate(p);
  return region ? *region : campus_.nearest_region(p);
}

GatewayId GatewayNetwork::serving_gateway(geo::Vec2 p) const {
  return gateway_for_region(serving_region(p));
}

GatewayNetwork::AssociationResult GatewayNetwork::update_association(
    MnId mn, RegionId region) {
  const GatewayId serving = gateway_for_region(region);
  const std::uint32_t slot = slots_.insert(mn);
  AssociationResult result{serving, false};
  if (slot == associations_.size()) {
    associations_.push_back(serving);
    if (obs::enabled()) {
      gateway_metrics().associations.set(
          static_cast<double>(associations_.size()));
    }
  } else if (associations_[slot] != serving) {
    associations_[slot] = serving;
    ++handovers_;
    result.handover = true;
    if (obs::enabled()) gateway_metrics().handovers.inc();
  }
  if (obs::eventlog_enabled()) {
    obs::evt::gateway(static_cast<std::int64_t>(serving.value()),
                      result.handover);
  }
  return result;
}

std::optional<GatewayId> GatewayNetwork::association(MnId mn) const {
  const std::uint32_t slot = slots_.find(mn);
  if (slot == util::MnSlotIndex::kNoSlot) return std::nullopt;
  return associations_[slot];
}

std::size_t GatewayNetwork::load(GatewayId gw) const {
  return static_cast<std::size_t>(
      std::count(associations_.begin(), associations_.end(), gw));
}

}  // namespace mgrid::net
