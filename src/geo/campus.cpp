#include "geo/campus.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace mgrid::geo {

namespace {

/// Target index cells per region, and a cap per axis so a pathological
/// hand-built map cannot blow the index up.
constexpr double kCellsPerRegion = 16.0;
constexpr std::uint32_t kMaxCellsPerAxis = 256;

struct Box {
  double min_x, min_y, max_x, max_y;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// An axis-aligned box holding every point Region::contains accepts. A
/// rect's box is the rect itself, since contains compares against its
/// bounds directly. A road's box is its centreline's box grown by half the
/// width plus a relative slack far above the rounding error of the
/// point-to-polyline distance. A region with a non-finite coordinate gets
/// the whole plane, which only costs precision, never a miss.
Box index_box(const Region& region) {
  Box box{kInf, kInf, -kInf, -kInf};
  if (const Rect* rect = region.rect()) {
    box = {rect->min().x, rect->min().y, rect->max().x, rect->max().y};
  } else {
    double scale = 0.0;
    for (Vec2 p : region.centreline()->points()) {
      box = {std::min(box.min_x, p.x), std::min(box.min_y, p.y),
             std::max(box.max_x, p.x), std::max(box.max_y, p.y)};
      scale = std::max({scale, std::abs(p.x), std::abs(p.y)});
    }
    const double half = region.road_width() * 0.5;
    const double grow = half + 1e-9 * (1.0 + scale + half);
    box = {box.min_x - grow, box.min_y - grow, box.max_x + grow,
           box.max_y + grow};
  }
  if (!(std::isfinite(box.min_x) && std::isfinite(box.min_y) &&
        std::isfinite(box.max_x) && std::isfinite(box.max_y))) {
    return {-kInf, -kInf, kInf, kInf};
  }
  return box;
}

/// "<prefix><i>_<j>", built by appending: GCC 12 at -O3 flags the
/// `"literal" + std::string` form with a false -Wrestrict.
std::string grid_name(const char* prefix, std::size_t i, std::size_t j) {
  std::string name = prefix;
  name += std::to_string(i);
  name += '_';
  name += std::to_string(j);
  return name;
}

/// Cells along one axis for cells of edge `cell` (0: a single cell).
std::uint32_t cells_along(double extent, double cell) {
  if (!(cell > 0.0)) return 1;
  const double n = std::ceil(extent / cell);
  return static_cast<std::uint32_t>(
      std::clamp(n, 1.0, static_cast<double>(kMaxCellsPerAxis)));
}

}  // namespace

RegionId CampusMap::append_region(Region region) {
  const RegionId expected{static_cast<RegionId::value_type>(regions_.size())};
  if (region.id() != expected) {
    throw std::invalid_argument(
        "CampusMap::add_region: region ids must be dense and in order");
  }
  regions_.push_back(std::move(region));
  return expected;
}

RegionId CampusMap::add_region(Region region) {
  const RegionId id = append_region(std::move(region));
  build_index();
  return id;
}

void CampusMap::build_index() {
  std::vector<Box> boxes;
  boxes.reserve(regions_.size());
  Box bounds{kInf, kInf, -kInf, -kInf};
  for (const Region& r : regions_) {
    const Box& b = boxes.emplace_back(index_box(r));
    bounds = {std::min(bounds.min_x, b.min_x), std::min(bounds.min_y, b.min_y),
              std::max(bounds.max_x, b.max_x), std::max(bounds.max_y, b.max_y)};
  }
  index_min_x_ = bounds.min_x;
  index_min_y_ = bounds.min_y;
  index_max_x_ = bounds.max_x;
  index_max_y_ = bounds.max_y;

  // Square cells, about kCellsPerRegion of them per region; a degenerate
  // (zero-extent) axis gets one cell, an unbounded map a single cell.
  const double width = bounds.max_x - bounds.min_x;
  const double height = bounds.max_y - bounds.min_y;
  double cell = 0.0;
  if (std::isfinite(width) && std::isfinite(height)) {
    const double target =
        kCellsPerRegion * static_cast<double>(regions_.size());
    cell = width > 0.0 && height > 0.0 ? std::sqrt(width * height / target)
                                       : std::max(width, height) / target;
  }
  cells_x_ = cells_along(width, cell);
  cells_y_ = cells_along(height, cell);
  cells_per_x_ = cells_x_ > 1 ? cells_x_ / width : 0.0;
  cells_per_y_ = cells_y_ > 1 ? cells_y_ / height : 0.0;

  // Regions in locate's precedence order, so each cell's list comes out
  // already ordered: buildings, then roads, then gates, each by id.
  std::vector<std::uint32_t> order;
  order.reserve(regions_.size());
  for (RegionKind kind :
       {RegionKind::kBuilding, RegionKind::kRoad, RegionKind::kGate}) {
    for (std::uint32_t i = 0; i < regions_.size(); ++i) {
      if (regions_[i].kind() == kind) order.push_back(i);
    }
  }

  // CSR in two sweeps over the boxes: count per cell, then fill. A box is
  // mapped to cells by the same cell_x/cell_y as the query, and both are
  // monotone in the coordinate, so every point of a box lands in one of
  // the box's cells.
  const std::size_t cell_count = std::size_t{cells_x_} * cells_y_;
  const auto for_each_cell = [this, &boxes](std::uint32_t region,
                                            auto&& visit) {
    const Box& b = boxes[region];
    const std::uint32_t x1 = cell_x(b.max_x);
    const std::uint32_t y1 = cell_y(b.max_y);
    for (std::uint32_t y = cell_y(b.min_y); y <= y1; ++y) {
      for (std::uint32_t x = cell_x(b.min_x); x <= x1; ++x) {
        visit(std::size_t{y} * cells_x_ + x);
      }
    }
  };
  cell_offsets_.assign(cell_count + 1, 0);
  for (std::uint32_t region : order) {
    for_each_cell(region, [this](std::size_t c) { ++cell_offsets_[c + 1]; });
  }
  for (std::size_t c = 0; c < cell_count; ++c) {
    cell_offsets_[c + 1] += cell_offsets_[c];
  }
  cell_regions_.resize(cell_offsets_.back());
  std::vector<std::uint32_t> fill(cell_offsets_.begin(),
                                  cell_offsets_.end() - 1);
  for (std::uint32_t region : order) {
    for_each_cell(region, [this, &fill, region](std::size_t c) {
      cell_regions_[fill[c]++] = region;
    });
  }
}

std::uint32_t CampusMap::cell_x(double x) const noexcept {
  // x >= index_min_x_ here, so the product is >= 0 (or NaN on an unbounded
  // single-cell map, which the comparison sends to the last cell).
  const double f = (x - index_min_x_) * cells_per_x_;
  return f < static_cast<double>(cells_x_) ? static_cast<std::uint32_t>(f)
                                           : cells_x_ - 1;
}

std::uint32_t CampusMap::cell_y(double y) const noexcept {
  const double f = (y - index_min_y_) * cells_per_y_;
  return f < static_cast<double>(cells_y_) ? static_cast<std::uint32_t>(f)
                                           : cells_y_ - 1;
}

const Region& CampusMap::region(RegionId id) const {
  if (!id.valid() || id.value() >= regions_.size()) {
    throw std::out_of_range("CampusMap::region: bad region id");
  }
  return regions_[id.value()];
}

const Region* CampusMap::find_region(std::string_view name) const noexcept {
  for (const Region& r : regions_) {
    if (r.name() == name) return &r;
  }
  return nullptr;
}

std::vector<RegionId> CampusMap::regions_of_kind(RegionKind kind) const {
  std::vector<RegionId> out;
  for (const Region& r : regions_) {
    if (r.kind() == kind) out.push_back(r.id());
  }
  return out;
}

std::optional<RegionId> CampusMap::locate(Vec2 p) const noexcept {
  // Off the indexed bounds (NaN included) no region can contain p.
  if (!(p.x >= index_min_x_ && p.x <= index_max_x_ && p.y >= index_min_y_ &&
        p.y <= index_max_y_)) {
    return std::nullopt;
  }
  // The cell's candidates are in precedence order: buildings first (an
  // entrance belongs to its building), then roads, then gates.
  const std::size_t cell = std::size_t{cell_y(p.y)} * cells_x_ + cell_x(p.x);
  for (std::uint32_t i = cell_offsets_[cell]; i < cell_offsets_[cell + 1];
       ++i) {
    const Region& r = regions_[cell_regions_[i]];
    if (r.contains(p)) return r.id();
  }
  return std::nullopt;
}

RegionId CampusMap::nearest_region(Vec2 p) const {
  if (regions_.empty()) {
    throw std::logic_error("CampusMap::nearest_region: no regions");
  }
  RegionId best = regions_.front().id();
  double best_d = std::numeric_limits<double>::infinity();
  for (const Region& r : regions_) {
    const double d = r.distance_to(p);
    if (d < best_d) {
      best_d = d;
      best = r.id();
    }
  }
  return best;
}

NodeIndex CampusMap::entrance_of(RegionId building) const noexcept {
  for (NodeIndex i = 0; i < graph_.node_count(); ++i) {
    const GraphNode& node = graph_.node(i);
    if (node.kind == NodeKind::kEntrance && node.region == building) return i;
  }
  return kInvalidNode;
}

Rect CampusMap::bounds() const {
  if (regions_.empty()) return Rect({0, 0}, {0, 0});
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = min_x;
  double max_x = -min_x;
  double max_y = -min_x;
  auto absorb = [&](Vec2 p) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  };
  for (const Region& r : regions_) {
    if (const Rect* rect = r.rect()) {
      absorb(rect->min());
      absorb(rect->max());
    } else if (const Polyline* line = r.centreline()) {
      for (Vec2 p : line->points()) absorb(p);
    }
  }
  return Rect({min_x, min_y}, {max_x, max_y}).inflated(10.0);
}

CampusMap CampusMap::grid_campus(std::size_t blocks_x, std::size_t blocks_y,
                                 double block_size, double road_width) {
  if (blocks_x == 0 || blocks_y == 0) {
    throw std::invalid_argument("grid_campus: needs at least 1x1 blocks");
  }
  if (!(block_size > 0.0) || !(road_width > 0.0) ||
      road_width >= block_size) {
    throw std::invalid_argument("grid_campus: invalid sizes");
  }
  CampusMap campus;
  auto next_id = [&campus] {
    return RegionId{static_cast<RegionId::value_type>(campus.region_count())};
  };
  const double width = static_cast<double>(blocks_x) * block_size;
  const double height = static_cast<double>(blocks_y) * block_size;

  // Roads: vertical RVi at x = i*block, horizontal RHj at y = j*block.
  std::vector<RegionId> vertical_roads;
  for (std::size_t i = 0; i <= blocks_x; ++i) {
    const double x = static_cast<double>(i) * block_size;
    vertical_roads.push_back(campus.append_region(Region(
        next_id(), "RV" + std::to_string(i), RegionKind::kRoad,
        Polyline({{x, 0.0}, {x, height}}), road_width)));
  }
  for (std::size_t j = 0; j <= blocks_y; ++j) {
    const double y = static_cast<double>(j) * block_size;
    campus.append_region(Region(next_id(), "RH" + std::to_string(j),
                             RegionKind::kRoad,
                             Polyline({{0.0, y}, {width, y}}), road_width));
  }

  // Buildings: one per block interior, inset far enough that the building
  // clears the road corridors.
  const double margin = std::max(road_width, block_size * 0.2);
  std::vector<std::vector<RegionId>> buildings(
      blocks_x, std::vector<RegionId>(blocks_y));
  for (std::size_t i = 0; i < blocks_x; ++i) {
    for (std::size_t j = 0; j < blocks_y; ++j) {
      const double x0 = static_cast<double>(i) * block_size + margin;
      const double y0 = static_cast<double>(j) * block_size + margin;
      buildings[i][j] = campus.append_region(Region(
          next_id(),
          grid_name("B", i, j),
          RegionKind::kBuilding,
          Rect({x0, y0}, {x0 + block_size - 2.0 * margin,
                          y0 + block_size - 2.0 * margin})));
    }
  }

  // Gates on the south edge (SW and SE corners).
  const RegionId gate_a = campus.append_region(
      Region(next_id(), "GateA", RegionKind::kGate,
             Rect({-10.0, -10.0}, {10.0, 10.0})));
  const RegionId gate_b = campus.append_region(
      Region(next_id(), "GateB", RegionKind::kGate,
             Rect({width - 10.0, -10.0}, {width + 10.0, 10.0})));

  // Graph: intersections, per-block mid nodes on vertical roads (entrance
  // anchors), entrances, gates.
  WaypointGraph& g = campus.graph();
  std::vector<std::vector<NodeIndex>> intersections(
      blocks_x + 1, std::vector<NodeIndex>(blocks_y + 1));
  for (std::size_t i = 0; i <= blocks_x; ++i) {
    for (std::size_t j = 0; j <= blocks_y; ++j) {
      const geo::Vec2 p{static_cast<double>(i) * block_size,
                        static_cast<double>(j) * block_size};
      NodeKind kind = NodeKind::kRoad;
      RegionId region;
      if (i == 0 && j == 0) {
        kind = NodeKind::kGate;
        region = gate_a;
      } else if (i == blocks_x && j == 0) {
        kind = NodeKind::kGate;
        region = gate_b;
      }
      intersections[i][j] = g.add_node(
          {p, kind, grid_name("X", i, j),
           region});
    }
  }
  // Horizontal edges.
  for (std::size_t i = 0; i < blocks_x; ++i) {
    for (std::size_t j = 0; j <= blocks_y; ++j) {
      g.add_edge(intersections[i][j], intersections[i + 1][j]);
    }
  }
  // Vertical roads carry a mid node per block row (the entrance anchor).
  for (std::size_t i = 0; i <= blocks_x; ++i) {
    for (std::size_t j = 0; j < blocks_y; ++j) {
      const double x = static_cast<double>(i) * block_size;
      const double y_mid = (static_cast<double>(j) + 0.5) * block_size;
      const NodeIndex mid = g.add_node(
          {{x, y_mid}, NodeKind::kRoad,
           grid_name("M", i, j),
           vertical_roads[i]});
      g.add_edge(intersections[i][j], mid);
      g.add_edge(mid, intersections[i][j + 1]);
      // The building east of this road (if any) gets its entrance here.
      if (i < blocks_x) {
        const Rect* rect = campus.region(buildings[i][j]).rect();
        const NodeIndex door = g.add_node(
            {{rect->min().x, y_mid}, NodeKind::kEntrance,
             grid_name("B", i, j) + ".door",
             buildings[i][j]});
        g.add_edge(mid, door);
      }
    }
  }
  campus.build_index();
  return campus;
}

CampusMap CampusMap::default_campus() {
  CampusMap campus;
  auto next_id = [&campus] {
    return RegionId{static_cast<RegionId::value_type>(campus.region_count())};
  };

  constexpr double kRoadWidth = 10.0;

  // --- Roads -------------------------------------------------------------
  // R1: east-west main road; R2/R4: south gate approaches; R3/R5: north
  // spurs toward the lab / lecture buildings.
  const RegionId r1 = campus.append_region(Region(
      next_id(), "R1", RegionKind::kRoad,
      Polyline({{120.0, 220.0}, {450.0, 220.0}}), kRoadWidth));
  const RegionId r2 = campus.append_region(Region(
      next_id(), "R2", RegionKind::kRoad,
      Polyline({{300.0, 0.0}, {300.0, 220.0}}), kRoadWidth));
  const RegionId r3 = campus.append_region(Region(
      next_id(), "R3", RegionKind::kRoad,
      Polyline({{450.0, 220.0}, {450.0, 400.0}}), kRoadWidth));
  const RegionId r4 = campus.append_region(Region(
      next_id(), "R4", RegionKind::kRoad,
      Polyline({{120.0, 0.0}, {120.0, 220.0}}), kRoadWidth));
  const RegionId r5 = campus.append_region(Region(
      next_id(), "R5", RegionKind::kRoad,
      Polyline({{300.0, 220.0}, {300.0, 400.0}}), kRoadWidth));
  (void)r1;
  (void)r3;
  (void)r4;
  (void)r2;
  (void)r5;

  // --- Buildings ----------------------------------------------------------
  const RegionId b1 = campus.append_region(Region(
      next_id(), "B1", RegionKind::kBuilding,
      Rect({55.0, 260.0}, {140.0, 320.0})));
  const RegionId b2 = campus.append_region(Region(
      next_id(), "B2", RegionKind::kBuilding,
      Rect({180.0, 40.0}, {260.0, 100.0})));
  const RegionId b3 = campus.append_region(Region(
      next_id(), "B3", RegionKind::kBuilding,
      Rect({480.0, 240.0}, {560.0, 300.0})));
  const RegionId b4 = campus.append_region(Region(
      next_id(), "B4", RegionKind::kBuilding,  // the library
      Rect({200.0, 240.0}, {280.0, 300.0})));
  const RegionId b5 = campus.append_region(Region(
      next_id(), "B5", RegionKind::kBuilding,
      Rect({340.0, 60.0}, {420.0, 120.0})));
  const RegionId b6 = campus.append_region(Region(
      next_id(), "B6", RegionKind::kBuilding,  // lecture hall
      Rect({320.0, 330.0}, {400.0, 390.0})));

  // --- Gates ----------------------------------------------------------------
  const RegionId gate_a = campus.append_region(Region(
      next_id(), "GateA", RegionKind::kGate,
      Rect({110.0, -10.0}, {130.0, 10.0})));
  const RegionId gate_b = campus.append_region(Region(
      next_id(), "GateB", RegionKind::kGate,
      Rect({290.0, -10.0}, {310.0, 10.0})));

  // --- Routing graph --------------------------------------------------------
  WaypointGraph& g = campus.graph();
  const NodeIndex nA =
      g.add_node({{120.0, 0.0}, NodeKind::kGate, "gateA", gate_a});
  const NodeIndex nB =
      g.add_node({{300.0, 0.0}, NodeKind::kGate, "gateB", gate_b});
  const NodeIndex i1 =
      g.add_node({{120.0, 220.0}, NodeKind::kRoad, "R4xR1"});
  const NodeIndex i2 =
      g.add_node({{300.0, 220.0}, NodeKind::kRoad, "R2xR1xR5"});
  const NodeIndex i3 =
      g.add_node({{450.0, 220.0}, NodeKind::kRoad, "R1xR3"});
  const NodeIndex n5 = g.add_node({{300.0, 400.0}, NodeKind::kRoad, "R5end"});
  const NodeIndex n3 = g.add_node({{450.0, 400.0}, NodeKind::kRoad, "R3end"});
  // Road waypoints that anchor building entrances.
  const NodeIndex r2a = g.add_node({{300.0, 70.0}, NodeKind::kRoad, "R2a"});
  const NodeIndex r2b = g.add_node({{300.0, 90.0}, NodeKind::kRoad, "R2b"});
  const NodeIndex r3a = g.add_node({{450.0, 270.0}, NodeKind::kRoad, "R3a"});
  const NodeIndex r5a = g.add_node({{300.0, 270.0}, NodeKind::kRoad, "R5a"});
  const NodeIndex r5b = g.add_node({{300.0, 360.0}, NodeKind::kRoad, "R5b"});
  // Building entrances (positioned on the building edge facing the road).
  const NodeIndex e1 =
      g.add_node({{120.0, 260.0}, NodeKind::kEntrance, "B1.door", b1});
  const NodeIndex e2 =
      g.add_node({{260.0, 70.0}, NodeKind::kEntrance, "B2.door", b2});
  const NodeIndex e3 =
      g.add_node({{480.0, 270.0}, NodeKind::kEntrance, "B3.door", b3});
  const NodeIndex e4 =
      g.add_node({{280.0, 270.0}, NodeKind::kEntrance, "B4.door", b4});
  const NodeIndex e5 =
      g.add_node({{340.0, 90.0}, NodeKind::kEntrance, "B5.door", b5});
  const NodeIndex e6 =
      g.add_node({{320.0, 360.0}, NodeKind::kEntrance, "B6.door", b6});

  // R4: gate A north to the main road; B1 hangs off the intersection.
  g.add_edge(nA, i1);
  g.add_edge(i1, e1);
  // R2: gate B north past B2/B5 anchors to the central intersection.
  g.add_edge(nB, r2a);
  g.add_edge(r2a, r2b);
  g.add_edge(r2b, i2);
  g.add_edge(r2a, e2);
  g.add_edge(r2b, e5);
  // R1: main road.
  g.add_edge(i1, i2);
  g.add_edge(i2, i3);
  // R5: north spur past the library (B4) and lecture hall (B6).
  g.add_edge(i2, r5a);
  g.add_edge(r5a, r5b);
  g.add_edge(r5b, n5);
  g.add_edge(r5a, e4);
  g.add_edge(r5b, e6);
  // R3: north spur past the lab (B3).
  g.add_edge(i3, r3a);
  g.add_edge(r3a, n3);
  g.add_edge(r3a, e3);

  campus.build_index();
  return campus;
}

}  // namespace mgrid::geo
