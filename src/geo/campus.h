// The synthetic university campus (paper Fig. 1 substitute).
//
// 11 mobile-grid access regions — roads R1..R5 and buildings B1..B6 — plus
// gates A and B on the south edge, wired into a waypoint routing graph. The
// default layout mirrors the paper's description: gates on the south side,
// the library (B4) reached from gate B via R2, lecture/lab buildings off the
// northern road spurs.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "geo/graph.h"
#include "geo/region.h"
#include "util/types.h"

namespace mgrid::geo {

class CampusMap {
 public:
  /// Builds the default campus described above.
  static CampusMap default_campus();

  /// Generates a Manhattan-grid campus of `blocks_x` x `blocks_y` city
  /// blocks (block edge `block_size` metres): (blocks_x+1) vertical and
  /// (blocks_y+1) horizontal roads, one building per block interior with an
  /// entrance onto its western road, and two gates on the south edge. Used
  /// by the scalability experiments — the Table-1 workload recipe scales
  /// with the region count. Throws std::invalid_argument for zero blocks
  /// or non-positive sizes.
  static CampusMap grid_campus(std::size_t blocks_x, std::size_t blocks_y,
                               double block_size = 120.0,
                               double road_width = 10.0);

  /// Builder used by tests / custom scenarios. Regions must be added before
  /// graph nodes referring to them.
  CampusMap() = default;

  /// Appends a region (ids must be dense and in order) and rebuilds the
  /// region index, so locate() sees it at once.
  RegionId add_region(Region region);
  WaypointGraph& graph() noexcept { return graph_; }
  [[nodiscard]] const WaypointGraph& graph() const noexcept { return graph_; }

  [[nodiscard]] std::size_t region_count() const noexcept {
    return regions_.size();
  }
  [[nodiscard]] const Region& region(RegionId id) const;
  [[nodiscard]] const std::vector<Region>& regions() const noexcept {
    return regions_;
  }
  /// First region with the given name; nullptr when absent.
  [[nodiscard]] const Region* find_region(std::string_view name) const noexcept;

  [[nodiscard]] std::vector<RegionId> regions_of_kind(RegionKind kind) const;
  [[nodiscard]] std::vector<RegionId> roads() const {
    return regions_of_kind(RegionKind::kRoad);
  }
  [[nodiscard]] std::vector<RegionId> buildings() const {
    return regions_of_kind(RegionKind::kBuilding);
  }

  /// Region containing p. Buildings take precedence over roads (an entrance
  /// point belongs to the building), roads over gates, and a lower id over
  /// a higher one of the same kind. nullopt when p lies on none of the
  /// regions (open ground, off the map, non-finite). Reads one cell of the
  /// region index, so the cost does not grow with the region count.
  [[nodiscard]] std::optional<RegionId> locate(Vec2 p) const noexcept;

  /// Geometry of locate's region index: the indexed bounds (inverted on an
  /// empty map) split into cells_x x cells_y equal cells. For tests and
  /// diagnostics.
  struct IndexShape {
    double min_x, min_y, max_x, max_y;
    std::uint32_t cells_x, cells_y;
  };
  [[nodiscard]] IndexShape index_shape() const noexcept {
    return {index_min_x_, index_min_y_, index_max_x_, index_max_y_,
            cells_x_, cells_y_};
  }

  /// Region whose boundary is closest to p (always defined).
  [[nodiscard]] RegionId nearest_region(Vec2 p) const;

  /// Entrance graph node of a building region; kInvalidNode if none.
  [[nodiscard]] NodeIndex entrance_of(RegionId building) const noexcept;

  /// Overall bounding rectangle of all regions (with a small margin).
  [[nodiscard]] Rect bounds() const;

 private:
  /// Appends without re-indexing; the factories index once at the end.
  RegionId append_region(Region region);
  /// Rebuilds the uniform-grid region index from scratch in one pass.
  void build_index();
  [[nodiscard]] std::uint32_t cell_x(double x) const noexcept;
  [[nodiscard]] std::uint32_t cell_y(double y) const noexcept;

  std::vector<Region> regions_;
  WaypointGraph graph_;

  // Region index: a uniform grid over the union of the regions' bounding
  // boxes. Cell c = cy * cells_x_ + cx holds the regions whose box meets
  // it, in locate's precedence order, as
  // cell_regions_[cell_offsets_[c] .. cell_offsets_[c + 1]) (CSR). The
  // empty map's inverted bounds reject every point.
  double index_min_x_ = std::numeric_limits<double>::infinity();
  double index_min_y_ = std::numeric_limits<double>::infinity();
  double index_max_x_ = -std::numeric_limits<double>::infinity();
  double index_max_y_ = -std::numeric_limits<double>::infinity();
  double cells_per_x_ = 0.0;  // cells per metre; 0 for a single column
  double cells_per_y_ = 0.0;
  std::uint32_t cells_x_ = 1;
  std::uint32_t cells_y_ = 1;
  std::vector<std::uint32_t> cell_offsets_;
  std::vector<std::uint32_t> cell_regions_;
};

}  // namespace mgrid::geo
