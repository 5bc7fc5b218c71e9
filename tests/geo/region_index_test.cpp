// CampusMap::locate answers from a uniform-grid region index. These tests
// hold it to a plain linear scan over every region — the definition of
// locate's precedence — on the generated campuses, on a hand-built map with
// overlapping regions, on lattices that hit region and cell edges exactly,
// and on far-off and non-finite points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "geo/campus.h"
#include "util/rng.h"

namespace mgrid::geo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The reference: buildings, then roads, then gates, each in id order.
std::optional<RegionId> scan_locate(const CampusMap& campus, Vec2 p) {
  for (RegionKind kind :
       {RegionKind::kBuilding, RegionKind::kRoad, RegionKind::kGate}) {
    for (const Region& r : campus.regions()) {
      if (r.kind() == kind && r.contains(p)) return r.id();
    }
  }
  return std::nullopt;
}

/// v and its two nearest representable neighbours on each side.
void add_with_neighbours(std::vector<double>& out, double v) {
  double lo = v;
  double hi = v;
  out.push_back(v);
  for (int i = 0; i < 2; ++i) {
    lo = std::nextafter(lo, -kInf);
    hi = std::nextafter(hi, kInf);
    out.push_back(lo);
    out.push_back(hi);
  }
}

/// Lattice coordinates along one axis: a uniform sweep past the indexed
/// bounds, every cell edge and every region edge (rect sides, road
/// corridor sides and centreline vertices), each with its ulp neighbours.
std::vector<double> lattice_axis(const CampusMap& campus, bool x_axis,
                                 double step) {
  const CampusMap::IndexShape shape = campus.index_shape();
  const double lo = x_axis ? shape.min_x : shape.min_y;
  const double hi = x_axis ? shape.max_x : shape.max_y;
  const std::uint32_t cells = x_axis ? shape.cells_x : shape.cells_y;
  std::vector<double> out;
  for (double v = lo - 3.0 * step; v <= hi + 3.0 * step; v += step) {
    out.push_back(v);
  }
  for (std::uint32_t c = 0; c <= cells; ++c) {
    add_with_neighbours(out, lo + (hi - lo) * c / cells);
  }
  for (const Region& r : campus.regions()) {
    if (const Rect* rect = r.rect()) {
      add_with_neighbours(out, x_axis ? rect->min().x : rect->min().y);
      add_with_neighbours(out, x_axis ? rect->max().x : rect->max().y);
    } else {
      const double half = r.road_width() * 0.5;
      for (Vec2 p : r.centreline()->points()) {
        const double v = x_axis ? p.x : p.y;
        add_with_neighbours(out, v);
        add_with_neighbours(out, v - half);
        add_with_neighbours(out, v + half);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Compares index and scan over the full lattice; returns how many lattice
/// points lay in some region (so a test can tell it probed real regions).
std::size_t expect_lattice_matches(const CampusMap& campus, double step) {
  const std::vector<double> xs = lattice_axis(campus, true, step);
  const std::vector<double> ys = lattice_axis(campus, false, step);
  std::size_t inside = 0;
  std::size_t mismatches = 0;
  for (double x : xs) {
    for (double y : ys) {
      const Vec2 p{x, y};
      const std::optional<RegionId> expected = scan_locate(campus, p);
      if (expected) ++inside;
      if (campus.locate(p) != expected && ++mismatches <= 5) {
        ADD_FAILURE() << "locate(" << x << ", " << y << ") differs from scan";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  return inside;
}

void expect_random_matches(const CampusMap& campus, std::uint64_t seed) {
  const CampusMap::IndexShape shape = campus.index_shape();
  util::RngStream rng(seed);
  for (int i = 0; i < 20000; ++i) {
    const Vec2 p{rng.uniform(shape.min_x - 20.0, shape.max_x + 20.0),
                 rng.uniform(shape.min_y - 20.0, shape.max_y + 20.0)};
    ASSERT_EQ(campus.locate(p), scan_locate(campus, p))
        << "(" << p.x << ", " << p.y << ")";
  }
  // Points sampled inside each region, where overlaps decide precedence.
  for (const Region& region : campus.regions()) {
    for (int i = 0; i < 200; ++i) {
      const Vec2 p = region.sample(rng);
      ASSERT_EQ(campus.locate(p), scan_locate(campus, p)) << region.name();
    }
  }
}

void expect_far_and_non_finite_miss(const CampusMap& campus) {
  for (const Vec2 p :
       {Vec2{1e300, 0.0}, Vec2{-1e300, 50.0}, Vec2{50.0, 1e12},
        Vec2{-5e6, -5e6}, Vec2{kInf, 0.0}, Vec2{-kInf, 0.0}, Vec2{0.0, kInf},
        Vec2{0.0, -kInf}, Vec2{kInf, kInf}, Vec2{-kInf, -kInf},
        Vec2{kNaN, 0.0}, Vec2{0.0, kNaN}, Vec2{kNaN, kNaN},
        Vec2{kNaN, kInf}, Vec2{120.0, kNaN}, Vec2{kNaN, 220.0}}) {
    EXPECT_EQ(scan_locate(campus, p), std::nullopt);
    EXPECT_EQ(campus.locate(p), std::nullopt) << p.x << ", " << p.y;
  }
}

TEST(RegionIndex, DefaultCampusMatchesScan) {
  const CampusMap campus = CampusMap::default_campus();
  EXPECT_GT(expect_lattice_matches(campus, 1.0), 0u);
  expect_random_matches(campus, 1);
  expect_far_and_non_finite_miss(campus);
}

TEST(RegionIndex, GridCampusTenByTenMatchesScan) {
  const CampusMap campus = CampusMap::grid_campus(10, 10);
  EXPECT_GT(expect_lattice_matches(campus, 2.0), 0u);
  expect_random_matches(campus, 2);
  expect_far_and_non_finite_miss(campus);
}

TEST(RegionIndex, GridCampusThreeByFiveMatchesScan) {
  const CampusMap campus = CampusMap::grid_campus(3, 5);
  EXPECT_GT(expect_lattice_matches(campus, 1.0), 0u);
  expect_random_matches(campus, 3);
  expect_far_and_non_finite_miss(campus);
}

TEST(RegionIndex, IndexIsSplitIntoCells) {
  // The generated campuses get a real grid, not one cell holding every
  // region, and the bounds hold every region.
  for (const CampusMap& campus :
       {CampusMap::default_campus(), CampusMap::grid_campus(10, 10)}) {
    const CampusMap::IndexShape shape = campus.index_shape();
    EXPECT_GT(shape.cells_x, 4u);
    EXPECT_GT(shape.cells_y, 4u);
    const Rect bounds = campus.bounds();
    EXPECT_LE(bounds.min().x, shape.min_x);
    EXPECT_LE(bounds.min().y, shape.min_y);
    EXPECT_GE(bounds.max().x, shape.max_x);
    EXPECT_GE(bounds.max().y, shape.max_y);
  }
}

TEST(RegionIndex, EmptyMapLocatesNothing) {
  const CampusMap campus;
  EXPECT_EQ(campus.locate({0.0, 0.0}), std::nullopt);
  expect_far_and_non_finite_miss(campus);
}

TEST(RegionIndex, HandBuiltOverlapsMatchScanAsRegionsArrive) {
  // Overlapping regions of every kind, added in mixed kind order, with
  // locate called between additions: each addition must take effect at
  // once, and the precedence (kind, then id) must hold in the overlaps.
  CampusMap campus;
  std::vector<Region> regions;
  regions.emplace_back(RegionId{0}, "G0", RegionKind::kGate,
                       Rect({-5.0, -5.0}, {25.0, 25.0}));
  regions.emplace_back(RegionId{1}, "R-diag", RegionKind::kRoad,
                       Polyline({{0.0, 0.0}, {100.0, 100.0}, {200.0, 40.0}}),
                       12.0);
  regions.emplace_back(RegionId{2}, "B-wide", RegionKind::kBuilding,
                       Rect({40.0, 30.0}, {120.0, 90.0}));
  regions.emplace_back(RegionId{3}, "B-inner", RegionKind::kBuilding,
                       Rect({60.0, 50.0}, {80.0, 70.0}));
  regions.emplace_back(RegionId{4}, "R-flat", RegionKind::kRoad,
                       Polyline({{-30.0, 60.0}, {250.0, 60.0}}), 7.5);
  regions.emplace_back(RegionId{5}, "G1", RegionKind::kGate,
                       Rect({190.0, 30.0}, {215.0, 75.0}));
  regions.emplace_back(RegionId{6}, "B-far", RegionKind::kBuilding,
                       Rect({400.0, -200.0}, {430.0, -170.0}));
  regions.emplace_back(RegionId{7}, "R-stub", RegionKind::kRoad,
                       Polyline({{150.0, 150.0}, {150.0, 150.0}}), 4.0);
  regions.emplace_back(RegionId{8}, "B-point", RegionKind::kBuilding,
                       Rect({10.0, 10.0}, {10.0, 10.0}));

  const Vec2 probe{70.0, 60.0};  // inside B-wide, B-inner and R-flat
  std::size_t inside = 0;
  for (Region& region : regions) {
    (void)campus.locate(probe);  // a lookup before the next region lands
    campus.add_region(std::move(region));
    inside = expect_lattice_matches(campus, 1.0);
    expect_far_and_non_finite_miss(campus);
  }
  EXPECT_GT(inside, 0u);
  expect_random_matches(campus, 4);
  // The overlaps resolve as documented.
  EXPECT_EQ(campus.locate(probe), RegionId{2});                // B-wide < B-inner
  EXPECT_EQ(campus.locate({100.0, 100.0}), RegionId{1});       // road only
  EXPECT_EQ(campus.locate({20.0, 20.0}), RegionId{1});         // road over gate
  EXPECT_EQ(campus.locate({24.0, 5.0}), RegionId{0});          // gate only
  EXPECT_EQ(campus.locate({10.0, 10.0}), RegionId{8});         // building first
  EXPECT_EQ(campus.locate({200.0, 60.0}), RegionId{4});        // road over gate
  EXPECT_EQ(campus.locate({150.0, 151.9}), RegionId{7});       // point road
  EXPECT_EQ(campus.locate({415.0, -185.0}), RegionId{6});      // far building
  EXPECT_EQ(campus.locate({300.0, -100.0}), std::nullopt);     // open ground
}

TEST(RegionIndex, CopiesLocateLikeTheOriginal) {
  const CampusMap original = CampusMap::grid_campus(4, 3);
  const CampusMap copy = original;  // NOLINT(performance-unnecessary-copy-initialization)
  util::RngStream rng(5);
  const Rect bounds = original.bounds();
  for (int i = 0; i < 5000; ++i) {
    const Vec2 p{rng.uniform(bounds.min().x, bounds.max().x),
                 rng.uniform(bounds.min().y, bounds.max().y)};
    ASSERT_EQ(copy.locate(p), original.locate(p));
  }
}

}  // namespace
}  // namespace mgrid::geo
