#include "serve/directory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "estimation/estimator.h"
#include "geo/vec2.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace mgrid::serve {
namespace {

DirectoryOptions small_options(std::size_t shards = 4) {
  DirectoryOptions options;
  options.shards = shards;
  options.cell_size = 25.0;
  return options;
}

TEST(ShardedDirectory, ValidatesOptions) {
  EXPECT_THROW(ShardedDirectory(DirectoryOptions{0, 25.0}),
               std::invalid_argument);
  EXPECT_THROW(ShardedDirectory(DirectoryOptions{4, 0.0}),
               std::invalid_argument);
}

TEST(ShardedDirectory, UpdateLookupRoundTrip) {
  ShardedDirectory directory(small_options());
  EXPECT_FALSE(directory.lookup(7).has_value());

  EXPECT_TRUE(directory.update(7, 1.0, {10.0, 20.0}, {1.0, 0.0}));
  const std::optional<DirectoryEntry> entry = directory.lookup(7);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->mn, 7u);
  EXPECT_EQ(entry->t, 1.0);
  EXPECT_EQ(entry->position.x, 10.0);
  EXPECT_EQ(entry->position.y, 20.0);
  EXPECT_FALSE(entry->estimated);
  EXPECT_EQ(directory.size(), 1u);
}

TEST(ShardedDirectory, RejectsTimestampRegression) {
  ShardedDirectory directory(small_options());
  EXPECT_TRUE(directory.update(3, 5.0, {1.0, 1.0}, {0.0, 0.0}));
  EXPECT_FALSE(directory.update(3, 4.0, {2.0, 2.0}, {0.0, 0.0}));
  EXPECT_EQ(directory.lookup(3)->position.x, 1.0);
}

TEST(ShardedDirectory, ApplyBatchMatchesIndividualUpdates) {
  ShardedDirectory one_by_one(small_options());
  ShardedDirectory batched(small_options());
  std::vector<ShardedDirectory::LuApply> batch;
  for (std::uint32_t mn = 0; mn < 40; ++mn) {
    const geo::Vec2 p{static_cast<double>(mn), static_cast<double>(2 * mn)};
    ASSERT_TRUE(one_by_one.update(mn, 1.0, p, {0.5, 0.5}));
    batch.push_back({mn, 1.0, p, {0.5, 0.5}});
  }
  EXPECT_EQ(batched.apply_batch(batch), 40u);
  for (std::uint32_t mn = 0; mn < 40; ++mn) {
    const auto a = one_by_one.lookup(mn);
    const auto b = batched.lookup(mn);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->position.x, b->position.x);
    EXPECT_EQ(a->position.y, b->position.y);
  }
  // A stale LU inside a batch is skipped, not applied.
  EXPECT_EQ(batched.apply_batch({{5, 0.5, {99.0, 99.0}, {0.0, 0.0}}}), 0u);
  EXPECT_EQ(batched.lookup(5)->position.x, 5.0);
}

TEST(ShardedDirectory, EstimatesAdvanceStaleTracks) {
  ShardedDirectory directory(small_options(),
                             estimation::make_estimator("dead_reckoning"));
  ASSERT_TRUE(directory.update(1, 1.0, {0.0, 0.0}, {2.0, 0.0}));
  // Dead reckoning extrapolates along the reported velocity.
  EXPECT_EQ(directory.advance_estimates(3.0), 1u);
  const std::optional<DirectoryEntry> entry = directory.lookup(1);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->estimated);
  EXPECT_NEAR(entry->position.x, 4.0, 1e-12);
  EXPECT_EQ(entry->t, 3.0);

  // belief_at answers without mutating.
  const std::optional<geo::Vec2> belief = directory.belief_at(1, 5.0);
  ASSERT_TRUE(belief.has_value());
  EXPECT_NEAR(belief->x, 8.0, 1e-12);
  EXPECT_TRUE(directory.lookup(1)->t == 3.0);

  // A fresh track (reported at or after t) is not advanced; the stale MN 1
  // still is, so exactly one estimate is recorded.
  ASSERT_TRUE(directory.update(2, 10.0, {5.0, 5.0}, {1.0, 1.0}));
  EXPECT_EQ(directory.advance_estimates(10.0), 1u);
  EXPECT_FALSE(directory.lookup(2)->estimated);
}

TEST(ShardedDirectory, RegionQueryMatchesBruteForce) {
  ShardedDirectory directory(small_options(3));
  std::vector<geo::Vec2> positions;
  // Deterministic scatter over a 300x300 field crossing many cells.
  for (std::uint32_t mn = 0; mn < 200; ++mn) {
    const geo::Vec2 p{std::fmod(static_cast<double>(mn) * 37.5, 300.0),
                      std::fmod(static_cast<double>(mn) * 91.25, 300.0)};
    positions.push_back(p);
    ASSERT_TRUE(directory.update(mn, 1.0, p, {0.0, 0.0}));
  }
  const geo::Vec2 center{150.0, 150.0};
  const double radius = 80.0;
  const std::vector<Neighbor> hits = directory.query_region(center, radius);

  std::vector<std::uint32_t> expected;
  for (std::uint32_t mn = 0; mn < 200; ++mn) {
    if (geo::distance(positions[mn], center) <= radius) {
      expected.push_back(mn);
    }
  }
  ASSERT_EQ(hits.size(), expected.size());
  // Sorted by (distance, mn) and within radius.
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_LE(hits[i].distance, radius);
    if (i > 0) {
      EXPECT_TRUE(hits[i - 1].distance < hits[i].distance ||
                  (hits[i - 1].distance == hits[i].distance &&
                   hits[i - 1].mn < hits[i].mn));
    }
  }
  std::vector<std::uint32_t> got;
  for (const Neighbor& hit : hits) got.push_back(hit.mn);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);

  // max_results truncates after sorting.
  const std::vector<Neighbor> top3 = directory.query_region(center, radius, 3);
  ASSERT_EQ(top3.size(), std::min<std::size_t>(3, hits.size()));
  for (std::size_t i = 0; i < top3.size(); ++i) {
    EXPECT_EQ(top3[i].mn, hits[i].mn);
  }
}

/// Euclidean distance that stays exact where the squares overflow.
double exact_distance(geo::Vec2 a, geo::Vec2 b) {
  const double d = geo::distance(a, b);
  return std::isinf(d) ? std::hypot(a.x - b.x, a.y - b.y) : d;
}

std::vector<Neighbor> brute_nearest(const std::vector<geo::Vec2>& positions,
                                    geo::Vec2 center, std::size_t k) {
  std::vector<Neighbor> expected;
  for (std::uint32_t mn = 0; mn < positions.size(); ++mn) {
    expected.push_back(
        {mn, exact_distance(positions[mn], center), positions[mn]});
  }
  std::sort(expected.begin(), expected.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.mn < b.mn;
            });
  expected.resize(std::min(k, expected.size()));
  return expected;
}

/// 50 MNs spread along a 500 m x 20 m strip.
std::vector<geo::Vec2> strip_positions() {
  std::vector<geo::Vec2> positions;
  for (std::uint32_t mn = 0; mn < 50; ++mn) {
    positions.push_back({static_cast<double>(mn) * 10.0 + 3.0,
                         std::fmod(static_cast<double>(mn) * 7.0, 20.0)});
  }
  return positions;
}

TEST(ShardedDirectory, KNearestMatchesBruteForce) {
  ShardedDirectory directory(small_options(5));
  std::vector<geo::Vec2> positions;
  for (std::uint32_t mn = 0; mn < 150; ++mn) {
    const geo::Vec2 p{std::fmod(static_cast<double>(mn) * 53.0, 400.0),
                      std::fmod(static_cast<double>(mn) * 17.0, 400.0)};
    positions.push_back(p);
    ASSERT_TRUE(directory.update(mn, 1.0, p, {0.0, 0.0}));
  }
  // Inside the map, on its edges, and 1e3..1e7 m off it on every side.
  std::vector<geo::Vec2> centers = {{200.0, 200.0}, {0.0, 0.0},
                                    {399.0, 1.0},   {-500.0, 1000.0},
                                    {375.0, 399.0}, {0.0, 200.0}};
  for (const double far : {1e3, 1e4, 1e5, 1e6, 1e7}) {
    centers.push_back({-far, 200.0});
    centers.push_back({200.0, far});
    centers.push_back({far, -far});
    centers.push_back({-far, far / 3.0});
  }
  for (const geo::Vec2 center : centers) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{150},
                                std::size_t{500}}) {
      const std::vector<Neighbor> got = directory.k_nearest(center, k);
      const std::vector<Neighbor> expected =
          brute_nearest(positions, center, k);
      ASSERT_EQ(got.size(), expected.size())
          << "center (" << center.x << "," << center.y << ") k " << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].mn, expected[i].mn)
            << "center (" << center.x << "," << center.y << ") k " << k
            << " rank " << i;
        EXPECT_EQ(got[i].distance, expected[i].distance);
      }
    }
  }
  EXPECT_TRUE(directory.k_nearest({0.0, 0.0}, 0).empty());
}

TEST(ShardedDirectory, RegionIndexFollowsMovement) {
  ShardedDirectory directory(small_options());
  ASSERT_TRUE(directory.update(9, 1.0, {10.0, 10.0}, {0.0, 0.0}));
  ASSERT_TRUE(directory.update(9, 2.0, {210.0, 210.0}, {0.0, 0.0}));
  EXPECT_TRUE(directory.query_region({10.0, 10.0}, 30.0).empty());
  const std::vector<Neighbor> hits = directory.query_region({210.0, 210.0}, 5.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].mn, 9u);
}

TEST(ShardedDirectory, SnapshotSortedByMn) {
  ShardedDirectory directory(small_options(3));
  for (const std::uint32_t mn : {17u, 3u, 250u, 8u, 101u}) {
    ASSERT_TRUE(directory.update(mn, 1.0,
                                 {static_cast<double>(mn), 0.0}, {0.0, 0.0}));
  }
  const std::vector<DirectoryEntry> entries = directory.snapshot();
  ASSERT_EQ(entries.size(), 5u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].mn, entries[i].mn);
  }
}

TEST(ShardedDirectory, ConcurrentUpdatesAndQueriesAreSafe) {
  // Writers hammer disjoint MN ranges while readers run lookups and spatial
  // queries; run under TSan in the sanitizer matrix for the real assertion.
  ShardedDirectory directory(small_options(8));
  constexpr std::uint32_t kPerThread = 200;
  constexpr int kWriters = 4;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&directory, w] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        const std::uint32_t mn =
            static_cast<std::uint32_t>(w) * kPerThread + i;
        for (double t = 1.0; t <= 3.0; t += 1.0) {
          directory.update(mn, t,
                           {static_cast<double>(mn % 100) + t,
                            static_cast<double>(mn % 50)},
                           {1.0, 0.0});
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&directory] {
      for (int pass = 0; pass < 50; ++pass) {
        (void)directory.lookup(static_cast<std::uint32_t>(pass * 13 % 800));
        (void)directory.query_region({50.0, 25.0}, 40.0, 16);
        (void)directory.k_nearest({50.0, 25.0}, 5);
        (void)directory.size();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(directory.size(), kWriters * kPerThread);
  const std::vector<DirectoryEntry> entries = directory.snapshot();
  for (const DirectoryEntry& entry : entries) {
    EXPECT_EQ(entry.t, 3.0);
  }
}

TEST(ShardedDirectory, KNearestFromFarCentreIsFast) {
  // The ring walk once started at ring 0 and visited every cell of every
  // ring up to the shard's bounding box: seconds for a centre 50 km out.
  DirectoryOptions options;
  options.shards = 4;
  ShardedDirectory directory(options);
  const std::vector<geo::Vec2> positions = strip_positions();
  for (std::uint32_t mn = 0; mn < positions.size(); ++mn) {
    ASSERT_TRUE(directory.update(mn, 1.0, positions[mn], {0.0, 0.0}));
  }
  const auto start = std::chrono::steady_clock::now();
  const std::vector<Neighbor> got = directory.k_nearest({-5e4, 10.0}, 3);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 1.0);
  const std::vector<Neighbor> expected =
      brute_nearest(positions, {-5e4, 10.0}, 3);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].mn, expected[i].mn);
  }
}

TEST(ShardedDirectory, RejectsNonFiniteUpdates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ShardedDirectory directory(small_options());
  EXPECT_FALSE(directory.update(1, nan, {0.0, 0.0}, {0.0, 0.0}));
  EXPECT_FALSE(directory.update(1, 1.0, {nan, 0.0}, {0.0, 0.0}));
  EXPECT_FALSE(directory.update(1, 1.0, {0.0, -inf}, {0.0, 0.0}));
  EXPECT_FALSE(directory.update(1, 1.0, {0.0, 0.0}, {inf, 0.0}));
  EXPECT_FALSE(directory.update(1, inf, {0.0, 0.0}, {0.0, nan}));
  EXPECT_FALSE(directory.lookup(1).has_value());
  EXPECT_EQ(directory.apply_batch({{2, 1.0, {1.0, 1.0}, {0.0, 0.0}},
                                   {3, 1.0, {nan, 1.0}, {0.0, 0.0}},
                                   {4, nan, {1.0, 1.0}, {0.0, 0.0}}}),
            1u);
  EXPECT_FALSE(directory.lookup(3).has_value());
  EXPECT_FALSE(directory.lookup(4).has_value());
}

TEST(ShardedDirectory, NonFiniteUpdateDoesNotPoisonTheEstimator) {
  // Twin MNs get the same valid LUs; MN 1 is also sent a NaN fix first.
  ShardedDirectory directory(small_options(),
                             estimation::make_estimator("brown_polar"));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(directory.update(1, 1.0, {0.0, 0.0}, {1.0, 0.5}));
  ASSERT_TRUE(directory.update(2, 1.0, {0.0, 0.0}, {1.0, 0.5}));
  EXPECT_FALSE(directory.update(1, 2.0, {nan, nan}, {1.0, 0.5}));
  for (int step = 2; step <= 5; ++step) {
    const double t = static_cast<double>(step);
    const geo::Vec2 p{t - 1.0, 0.5 * (t - 1.0)};
    ASSERT_TRUE(directory.update(1, t, p, {1.0, 0.5}));
    ASSERT_TRUE(directory.update(2, t, p, {1.0, 0.5}));
  }
  EXPECT_EQ(directory.advance_estimates(8.0), 2u);
  const std::optional<DirectoryEntry> poisoned = directory.lookup(1);
  const std::optional<DirectoryEntry> clean = directory.lookup(2);
  ASSERT_TRUE(poisoned && clean);
  EXPECT_TRUE(std::isfinite(poisoned->position.x));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(poisoned->position.x),
            std::bit_cast<std::uint64_t>(clean->position.x));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(poisoned->position.y),
            std::bit_cast<std::uint64_t>(clean->position.y));
  // The forecast moved past the last fix at (4, 2).
  EXPECT_GT(clean->position.x, 4.5);
}

TEST(ShardedDirectory, SpatialQueriesRejectNonFiniteInput) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ShardedDirectory directory(small_options());
  const std::vector<geo::Vec2> positions = strip_positions();
  for (std::uint32_t mn = 0; mn < positions.size(); ++mn) {
    ASSERT_TRUE(directory.update(mn, 1.0, positions[mn], {0.0, 0.0}));
  }
  EXPECT_TRUE(directory.query_region({250.0, 10.0}, inf).empty());
  EXPECT_TRUE(directory.query_region({250.0, 10.0}, nan).empty());
  EXPECT_TRUE(directory.query_region({nan, 10.0}, 100.0).empty());
  EXPECT_TRUE(directory.query_region({250.0, -inf}, 100.0).empty());
  EXPECT_TRUE(directory.k_nearest({nan, 0.0}, 3).empty());
  EXPECT_TRUE(directory.k_nearest({0.0, inf}, 3).empty());
  // Finite input still works.
  EXPECT_EQ(directory.query_region({250.0, 10.0}, 1e4).size(), 50u);
}

TEST(ShardedDirectory, HugeCoordinatesSaturateCellIndex) {
  // Finite positions and radii far beyond the int32 cell grid land on its
  // edge cells; queries stay exact because distances use real positions.
  ShardedDirectory directory(small_options(2));
  const std::vector<geo::Vec2> positions = {
      {1e300, -1e300}, {-1e300, 1e300}, {1e15, 1e15}, {0.0, 0.0},
      {-1e15, 5.0},    {1e12, 1e12 + 10.0}};
  for (std::uint32_t mn = 0; mn < positions.size(); ++mn) {
    ASSERT_TRUE(directory.update(mn, 1.0, positions[mn], {0.0, 0.0}));
  }
  const std::vector<Neighbor> edge =
      directory.query_region({1e300, -1e300}, 1.0);
  ASSERT_EQ(edge.size(), 1u);
  EXPECT_EQ(edge[0].mn, 0u);
  // A radius spanning the whole int32 grid on both axes.
  EXPECT_EQ(directory.query_region({0.0, 0.0}, 1e16).size(), 4u);
  EXPECT_EQ(directory.query_region({0.0, 0.0}, 1e300).size(), 4u);
  for (const geo::Vec2 center :
       {geo::Vec2{0.0, 0.0}, geo::Vec2{1e12, 1e12}, geo::Vec2{-1e15, 0.0},
        geo::Vec2{1e300, -1e300}, geo::Vec2{5e14, -3e14}}) {
    const std::vector<Neighbor> got = directory.k_nearest(center, 3);
    const std::vector<Neighbor> expected = brute_nearest(positions, center, 3);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].mn, expected[i].mn)
          << "center (" << center.x << "," << center.y << ") rank " << i;
    }
  }
}

/// Feeds `directory` a seeded LU stream: each tick a random subset of MNs
/// reports, then every stale track is advanced. Returns the per-tick
/// estimate counts.
std::vector<std::size_t> run_seeded_stream(ShardedDirectory& directory,
                                           std::uint64_t seed) {
  util::RngStream rng(seed);
  constexpr std::uint32_t kNodes = 400;
  std::vector<geo::Vec2> position(kNodes);
  std::vector<geo::Vec2> velocity(kNodes);
  for (std::uint32_t mn = 0; mn < kNodes; ++mn) {
    position[mn] = {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    velocity[mn] = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
  }
  std::vector<std::size_t> made;
  for (int tick = 1; tick <= 32; ++tick) {
    const double t = static_cast<double>(tick);
    std::vector<ShardedDirectory::LuApply> batch;
    for (std::uint32_t mn = 0; mn < kNodes; ++mn) {
      if (rng.chance(0.1)) {
        velocity[mn] = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
      }
      position[mn] = position[mn] + velocity[mn];
      if (tick == 1 || rng.chance(0.4)) {
        batch.push_back({mn, t, position[mn], velocity[mn]});
      }
    }
    directory.apply_batch(batch);
    made.push_back(directory.advance_estimates(t + 0.5));
  }
  return made;
}

std::map<std::uint32_t, std::vector<std::uint64_t>> track_words(
    const ShardedDirectory& directory) {
  std::map<std::uint32_t, std::vector<std::uint64_t>> words;
  directory.for_each_track([&words](const broker::MnTrack& track) {
    std::vector<double> state;
    ASSERT_TRUE(track.save_state(state));
    std::vector<std::uint64_t>& bits = words[track.mn()];
    for (const double v : state) {
      bits.push_back(std::bit_cast<std::uint64_t>(v));
    }
  });
  return words;
}

TEST(ShardedDirectory, ParallelAdvanceMatchesSerialBitForBit) {
  ShardedDirectory serial(small_options(1),
                          estimation::make_estimator("brown_polar"));
  ShardedDirectory sharded(small_options(8),
                           estimation::make_estimator("brown_polar"));
  const std::vector<std::size_t> serial_made = run_seeded_stream(serial, 11);
  EXPECT_EQ(run_seeded_stream(sharded, 11), serial_made);
  EXPECT_GT(serial_made.back(), 0u);

  const std::vector<DirectoryEntry> a = serial.snapshot();
  const std::vector<DirectoryEntry> b = sharded.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mn, b[i].mn);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].t),
              std::bit_cast<std::uint64_t>(b[i].t));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].position.x),
              std::bit_cast<std::uint64_t>(b[i].position.x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].position.y),
              std::bit_cast<std::uint64_t>(b[i].position.y));
    EXPECT_EQ(a[i].estimated, b[i].estimated);
  }
  EXPECT_EQ(track_words(serial), track_words(sharded));
  // The region index moved with every estimate.
  const std::vector<Neighbor> near_a = serial.k_nearest({500.0, 500.0}, 25);
  const std::vector<Neighbor> near_b = sharded.k_nearest({500.0, 500.0}, 25);
  ASSERT_EQ(near_a.size(), near_b.size());
  for (std::size_t i = 0; i < near_a.size(); ++i) {
    EXPECT_EQ(near_a[i].mn, near_b[i].mn);
  }
}

/// mgrid_serve_estimates_total in `registry`.
double estimates_total(const obs::MetricsRegistry& registry) {
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const obs::MetricSample* sample =
      snapshot.find("mgrid_serve_estimates_total");
  return sample == nullptr ? 0.0 : sample->value;
}

TEST(ShardedDirectory, SecondAdvanceToOneTickIsANoOp) {
  const obs::ScopedEnable on;
  obs::MetricsRegistry registry;
  const obs::ScopedRegistry scoped(registry);
  ShardedDirectory directory(small_options(8),
                             estimation::make_estimator("brown_polar"));
  run_seeded_stream(directory, 5);
  ASSERT_GT(directory.advance_estimates(40.0), 0u);
  const double counted = estimates_total(registry);
  const auto words = track_words(directory);

  // Every view is already at 40: a repeated sweep, or one to an earlier
  // time, records nothing, counts nothing and leaves every word alone.
  EXPECT_EQ(directory.advance_estimates(40.0), 0u);
  EXPECT_EQ(directory.advance_estimates(39.0), 0u);
  EXPECT_EQ(estimates_total(registry), counted);
  EXPECT_EQ(track_words(directory), words);
  EXPECT_EQ(directory.advance_estimates(41.0), directory.size());
}

TEST(ShardedDirectory, ConcurrentAdvancesBesideWritesAndReads) {
  // Two threads sweep at the same t while a writer applies batches and a
  // reader runs lookups and k-nearest; run under TSan in the sanitizer
  // matrix for the real assertion. The writer's LUs are fresh at t, so
  // after every round each track's view is at t, and a further sweep at t
  // leaves every view where it was.
  ShardedDirectory directory(small_options(8),
                             estimation::make_estimator("brown_polar"));
  constexpr std::uint32_t kNodes = 600;
  for (int round = 1; round <= 12; ++round) {
    const double t = static_cast<double>(round);
    std::vector<ShardedDirectory::LuApply> batch;
    for (std::uint32_t mn = static_cast<std::uint32_t>(round) % 3; mn < kNodes;
         mn += 3) {
      batch.push_back({mn, t,
                       {static_cast<double>(mn % 40) * 10.0 + t,
                        static_cast<double>(mn / 40) * 10.0},
                       {1.0, 0.0}});
    }
    std::vector<std::thread> threads;
    for (int sweeper = 0; sweeper < 2; ++sweeper) {
      threads.emplace_back(
          [&directory, t] { (void)directory.advance_estimates(t); });
    }
    threads.emplace_back([&directory, &batch] {
      for (std::size_t i = 0; i < batch.size(); i += 50) {
        directory.apply_batch(
            {batch.begin() + static_cast<std::ptrdiff_t>(i),
             batch.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(i + 50, batch.size()))});
      }
    });
    threads.emplace_back([&directory] {
      for (std::uint32_t mn = 0; mn < 200; ++mn) {
        (void)directory.lookup(mn * 3);
        if (mn % 20 == 0) (void)directory.k_nearest({200.0, 70.0}, 8);
      }
    });
    for (std::thread& thread : threads) thread.join();
    const std::vector<DirectoryEntry> swept = directory.snapshot();
    for (const DirectoryEntry& entry : swept) {
      ASSERT_EQ(entry.t, t) << "mn " << entry.mn;
    }
    (void)directory.advance_estimates(t);
    const std::vector<DirectoryEntry> again = directory.snapshot();
    ASSERT_EQ(again.size(), swept.size());
    for (std::size_t i = 0; i < swept.size(); ++i) {
      ASSERT_EQ(again[i].position.x, swept[i].position.x);
      ASSERT_EQ(again[i].position.y, swept[i].position.y);
    }
  }
  EXPECT_EQ(directory.size(), kNodes);
}

/// Forecasts like dead reckoning, but throws once asked past t = 10.
class ThrowingEstimator final : public estimation::LocationEstimator {
 public:
  void observe(SimTime t, geo::Vec2 position,
               std::optional<geo::Vec2> velocity_hint) override {
    t_ = t;
    position_ = position;
    velocity_ = velocity_hint.value_or(geo::Vec2{});
  }
  [[nodiscard]] geo::Vec2 estimate(SimTime t) const override {
    if (t > 10.0) throw std::runtime_error("estimator failed");
    return position_ + velocity_ * (t - t_);
  }
  void reset() override { *this = ThrowingEstimator(); }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "throwing";
  }
  [[nodiscard]] std::unique_ptr<LocationEstimator> clone() const override {
    return std::make_unique<ThrowingEstimator>(*this);
  }

 private:
  SimTime t_ = 0.0;
  geo::Vec2 position_;
  geo::Vec2 velocity_;
};

TEST(ShardedDirectory, SweepErrorReachesTheCaller) {
  ShardedDirectory directory(small_options(8),
                             std::make_unique<ThrowingEstimator>());
  for (std::uint32_t mn = 0; mn < 64; ++mn) {
    ASSERT_TRUE(directory.update(mn, 1.0, {0.0, 0.0}, {1.0, 0.0}));
  }
  EXPECT_EQ(directory.advance_estimates(2.0), 64u);
  // Every shard throws; each sweep still finishes and reports the error.
  EXPECT_THROW((void)directory.advance_estimates(11.0), std::runtime_error);
  EXPECT_THROW((void)directory.advance_estimates(12.0), std::runtime_error);
  EXPECT_EQ(directory.advance_estimates(3.0), 64u);
  EXPECT_NEAR(directory.lookup(5)->position.x, 2.0, 1e-12);
}

TEST(ShardedDirectory, DestroysBeforeAndAfterFirstAdvance) {
  { ShardedDirectory untouched(small_options(8)); }
  for (int i = 0; i < 20; ++i) {
    ShardedDirectory directory(small_options(8),
                               estimation::make_estimator("dead_reckoning"));
    ASSERT_TRUE(directory.update(1, 1.0, {0.0, 0.0}, {1.0, 0.0}));
    EXPECT_EQ(directory.advance_estimates(2.0), 1u);
  }
}

}  // namespace
}  // namespace mgrid::serve
