#include "core/clustering.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace mgrid::core {
namespace {

MotionFeatures features_of(double speed, double heading = 0.0) {
  MotionFeatures f;
  f.mean_speed = speed;
  f.heading = heading;
  f.samples = 8;
  return f;
}

TEST(Clustering, ParamValidation) {
  ClusteringParams bad;
  bad.alpha = 0.0;
  EXPECT_THROW(SequentialClusterer{bad}, std::invalid_argument);
  bad = {};
  bad.direction_weight = -1.0;
  EXPECT_THROW(SequentialClusterer{bad}, std::invalid_argument);
}

TEST(Clustering, SimilarNodesShareACluster) {
  SequentialClusterer clusterer;
  const ClusterId a = clusterer.assign(MnId{1}, features_of(1.0));
  const ClusterId b = clusterer.assign(MnId{2}, features_of(1.2));
  EXPECT_EQ(a, b);
  EXPECT_EQ(clusterer.cluster_count(), 1u);
  EXPECT_EQ(clusterer.cluster(a).size, 2u);
  EXPECT_NEAR(clusterer.cluster(a).mean_speed(), 1.1, 1e-12);
}

TEST(Clustering, DissimilarSpeedsCreateNewClusters) {
  SequentialClusterer clusterer;  // alpha = 0.8
  clusterer.assign(MnId{1}, features_of(1.0));
  const ClusterId fast = clusterer.assign(MnId{2}, features_of(7.0));
  EXPECT_EQ(clusterer.cluster_count(), 2u);
  EXPECT_NEAR(clusterer.cluster(fast).mean_speed(), 7.0, 1e-12);
}

TEST(Clustering, AlphaBoundIsInclusive) {
  ClusteringParams params;
  params.alpha = 1.0;
  params.direction_weight = 0.0;  // pure speed distance
  SequentialClusterer clusterer(params);
  clusterer.assign(MnId{1}, features_of(2.0));
  // Distance exactly 1.0 == alpha -> joins.
  const ClusterId joined = clusterer.assign(MnId{2}, features_of(3.0));
  EXPECT_EQ(clusterer.cluster_count(), 1u);
  EXPECT_NEAR(clusterer.cluster(joined).mean_speed(), 2.5, 1e-12);
  // Distance from the (updated) centroid 2.5 beyond alpha -> new cluster.
  clusterer.assign(MnId{3}, features_of(4.0));
  EXPECT_EQ(clusterer.cluster_count(), 2u);
}

TEST(Clustering, DirectionSeparatesEqualSpeeds) {
  ClusteringParams params;
  params.alpha = 0.5;
  params.direction_weight = 1.0;
  SequentialClusterer clusterer(params);
  clusterer.assign(MnId{1}, features_of(1.0, 0.0));           // east
  clusterer.assign(MnId{2}, features_of(1.0, 3.14159));       // west
  EXPECT_EQ(clusterer.cluster_count(), 2u);
}

TEST(Clustering, ZeroDirectionWeightIgnoresHeading) {
  ClusteringParams params;
  params.alpha = 0.5;
  params.direction_weight = 0.0;
  SequentialClusterer clusterer(params);
  clusterer.assign(MnId{1}, features_of(1.0, 0.0));
  clusterer.assign(MnId{2}, features_of(1.0, 3.14159));
  EXPECT_EQ(clusterer.cluster_count(), 1u);
}

TEST(Clustering, ReassignMovesNodeBetweenClusters) {
  SequentialClusterer clusterer;
  clusterer.assign(MnId{1}, features_of(1.0));
  clusterer.assign(MnId{2}, features_of(7.0));
  EXPECT_EQ(clusterer.cluster_count(), 2u);
  // Node 1 speeds up: it must migrate to the fast cluster, and the cluster
  // it vacates (now empty) retires.
  const ClusterId now = clusterer.assign(MnId{1}, features_of(7.2));
  EXPECT_EQ(clusterer.cluster_count(), 1u);
  EXPECT_EQ(now, *clusterer.cluster_of(MnId{2}));
  EXPECT_EQ(clusterer.cluster(now).size, 2u);
}

TEST(Clustering, EmptyClustersAreRetired) {
  SequentialClusterer clusterer;
  const ClusterId only = clusterer.assign(MnId{1}, features_of(1.0));
  clusterer.assign(MnId{2}, features_of(7.0));
  // Node 1 migrates away; its old cluster dies.
  clusterer.assign(MnId{1}, features_of(7.0));
  EXPECT_EQ(clusterer.cluster_count(), 1u);
  EXPECT_THROW((void)clusterer.cluster(only), std::out_of_range);
}

TEST(Clustering, RemoveRetiresNodeAndCluster) {
  SequentialClusterer clusterer;
  clusterer.assign(MnId{1}, features_of(1.0));
  EXPECT_TRUE(clusterer.remove(MnId{1}));
  EXPECT_FALSE(clusterer.remove(MnId{1}));
  EXPECT_EQ(clusterer.cluster_count(), 0u);
  EXPECT_EQ(clusterer.member_count(), 0u);
  EXPECT_FALSE(clusterer.cluster_of(MnId{1}).has_value());
}

TEST(Clustering, CentroidTracksMembershipChanges) {
  ClusteringParams params;
  params.alpha = 2.0;
  params.direction_weight = 0.0;
  SequentialClusterer clusterer(params);
  const ClusterId c = clusterer.assign(MnId{1}, features_of(1.0));
  clusterer.assign(MnId{2}, features_of(2.0));
  clusterer.assign(MnId{3}, features_of(3.0));
  EXPECT_NEAR(clusterer.cluster(c).mean_speed(), 2.0, 1e-12);
  clusterer.remove(MnId{3});
  EXPECT_NEAR(clusterer.cluster(c).mean_speed(), 1.5, 1e-12);
}

TEST(Clustering, MaxClustersForcesNearestAssignment) {
  ClusteringParams params;
  params.alpha = 0.1;
  params.max_clusters = 2;
  params.direction_weight = 0.0;
  SequentialClusterer clusterer(params);
  clusterer.assign(MnId{1}, features_of(1.0));
  clusterer.assign(MnId{2}, features_of(5.0));
  // Far from both, but the cap forces it into the nearest (5.0).
  const ClusterId forced = clusterer.assign(MnId{3}, features_of(9.0));
  EXPECT_EQ(clusterer.cluster_count(), 2u);
  EXPECT_EQ(forced, *clusterer.cluster_of(MnId{2}));
}

TEST(Clustering, RebuildIsDeterministicAndMerges) {
  ClusteringParams params;
  params.alpha = 1.0;
  params.direction_weight = 0.0;
  SequentialClusterer clusterer(params);
  // Insertion order 1.0, 3.0, 2.0 leaves two clusters whose centroids can
  // drift close together after reassignments.
  clusterer.assign(MnId{1}, features_of(1.0));
  clusterer.assign(MnId{2}, features_of(3.0));
  clusterer.assign(MnId{3}, features_of(2.0));
  clusterer.rebuild();
  // Rebuild in MnId order: 1.0 seeds c0; 2.0 joins (d=1<=alpha, centroid
  // 1.5); 3.0 is d=1.5 away -> new cluster... then the merge pass runs.
  const std::size_t after_first = clusterer.cluster_count();
  // A second rebuild from identical features must be a fixed point.
  clusterer.rebuild();
  EXPECT_EQ(clusterer.cluster_count(), after_first);
  EXPECT_EQ(clusterer.member_count(), 3u);
}

TEST(Clustering, RebuildRejectsNegativeMergeFraction) {
  SequentialClusterer clusterer;
  EXPECT_THROW(clusterer.rebuild(-0.5), std::invalid_argument);
}

TEST(Clustering, ClustersListedInIdOrder) {
  SequentialClusterer clusterer;
  clusterer.assign(MnId{1}, features_of(1.0));
  clusterer.assign(MnId{2}, features_of(5.0));
  clusterer.assign(MnId{3}, features_of(9.0));
  const auto clusters = clusterer.clusters();
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_LT(clusters[0].id, clusters[1].id);
  EXPECT_LT(clusters[1].id, clusters[2].id);
  EXPECT_EQ(clusterer.clusters_created(), 3u);
}

TEST(Clustering, InvalidMnRejected) {
  SequentialClusterer clusterer;
  EXPECT_THROW((void)clusterer.assign(MnId::invalid(), features_of(1.0)),
               std::invalid_argument);
}

TEST(Clustering, ClusterCountMatchesLiveClustersThroughout) {
  // cluster_count() is a running counter; it must equal the live list
  // after every assign, remove and rebuild, with and without a cap.
  for (const std::size_t cap : {std::size_t{0}, std::size_t{3}}) {
    ClusteringParams params;
    params.alpha = 0.4;
    params.max_clusters = cap;
    SequentialClusterer clusterer(params);
    util::RngStream rng(21 + cap);
    for (int step = 0; step < 4000; ++step) {
      const MnId mn{static_cast<MnId::value_type>(rng.index(40))};
      const double roll = rng.uniform(0.0, 1.0);
      if (roll < 0.25) {
        (void)clusterer.remove(mn);
      } else if (roll < 0.27) {
        clusterer.rebuild(rng.uniform(0.0, 2.0));
      } else {
        (void)clusterer.assign(mn, features_of(rng.uniform(0.0, 6.0),
                                               rng.uniform(-3.0, 3.0)));
      }
      const std::vector<ClusterInfo> live = clusterer.clusters();
      ASSERT_EQ(clusterer.cluster_count(), live.size()) << "step " << step;
      std::size_t members = 0;
      for (const ClusterInfo& info : live) members += info.size;
      ASSERT_EQ(clusterer.member_count(), members) << "step " << step;
      if (cap != 0) {
        ASSERT_LE(live.size(), cap);
      }
    }
  }
}

TEST(Clustering, RebuildOrderIsByMnIdNotArrival) {
  // The same members with the same features, first seen in opposite
  // orders (so held in different slots), rebuild to the same clusters bit
  // for bit. Ids straddle the direct-array range and the hash fallback.
  const std::vector<MnId> ids{MnId{3},          MnId{0},       MnId{1u << 20},
                              MnId{0xFFFFFFFEu}, MnId{(1u << 20) - 1},
                              MnId{42},         MnId{7}};
  std::vector<MotionFeatures> features;
  util::RngStream rng(5);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    features.push_back(features_of(rng.uniform(0.0, 3.0),
                                   rng.uniform(-3.0, 3.0)));
  }
  SequentialClusterer forward;
  SequentialClusterer backward;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    (void)forward.assign(ids[i], features[i]);
    const std::size_t j = ids.size() - 1 - i;
    (void)backward.assign(ids[j], features[j]);
  }
  forward.rebuild();
  backward.rebuild();
  const auto a = forward.clusters();
  const auto b = backward.clusters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].centroid.speed),
              std::bit_cast<std::uint64_t>(b[i].centroid.speed));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].centroid.dir_x),
              std::bit_cast<std::uint64_t>(b[i].centroid.dir_x));
  }
  for (const MnId mn : ids) {
    EXPECT_EQ(forward.cluster_of(mn), backward.cluster_of(mn));
    EXPECT_TRUE(forward.cluster_of(mn).has_value());
  }
  EXPECT_TRUE(forward.remove(MnId{0xFFFFFFFEu}));
  EXPECT_FALSE(forward.remove(MnId{0xFFFFFFFEu}));
  EXPECT_FALSE(forward.remove(MnId{12345}));
  EXPECT_EQ(forward.member_count(), ids.size() - 1);
}

/// The BSAS assignment with the full scan over every cluster slot ever
/// created, retired ones skipped one by one until a rebuild: the reference
/// the live-cluster scan must reproduce bit for bit.
class FullScanClusterer {
 public:
  explicit FullScanClusterer(ClusteringParams params) : params_(params) {}

  ClusterId assign(MnId mn, const MotionFeatures& features) {
    const ClusterFeature f =
        ClusterFeature::from_motion(features, params_.direction_weight);
    remove(mn);
    std::size_t best = kNone;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < clusters_.size(); ++i) {
      if (clusters_[i].size == 0) continue;
      const double d = f.distance_to(clusters_[i].centroid);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    std::size_t live = 0;
    for (const Cluster& c : clusters_) live += c.size > 0 ? 1 : 0;
    const bool cap_reached =
        params_.max_clusters != 0 && live >= params_.max_clusters;
    if (best == kNone || (best_d > params_.alpha && !cap_reached)) {
      best = clusters_.size();
      clusters_.emplace_back();
    }
    Cluster& c = clusters_[best];
    c.sum_speed += f.speed;
    c.sum_dir_x += f.dir_x;
    c.sum_dir_y += f.dir_y;
    ++c.size;
    refresh(c);
    members_[mn.value()] = {best, f};
    return ClusterId{static_cast<ClusterId::value_type>(best)};
  }

  void remove(MnId mn) {
    const auto it = members_.find(mn.value());
    if (it == members_.end()) return;
    Cluster& c = clusters_[it->second.first];
    const ClusterFeature& f = it->second.second;
    c.sum_speed -= f.speed;
    c.sum_dir_x -= f.dir_x;
    c.sum_dir_y -= f.dir_y;
    --c.size;
    refresh(c);
    members_.erase(it);
  }

  /// Live clusters as (id, size, centroid), ascending id.
  [[nodiscard]] std::vector<ClusterInfo> clusters() const {
    std::vector<ClusterInfo> out;
    for (std::size_t i = 0; i < clusters_.size(); ++i) {
      if (clusters_[i].size == 0) continue;
      out.push_back({ClusterId{static_cast<ClusterId::value_type>(i)},
                     clusters_[i].centroid, clusters_[i].size});
    }
    return out;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct Cluster {
    ClusterFeature centroid;
    std::size_t size = 0;
    double sum_speed = 0.0;
    double sum_dir_x = 0.0;
    double sum_dir_y = 0.0;
  };
  static void refresh(Cluster& c) {
    if (c.size == 0) return;
    const double n = static_cast<double>(c.size);
    c.centroid = {c.sum_speed / n, c.sum_dir_x / n, c.sum_dir_y / n};
  }

  ClusteringParams params_;
  std::vector<Cluster> clusters_;
  std::map<std::uint32_t, std::pair<std::size_t, ClusterFeature>> members_;
};

TEST(Clustering, LiveScanMatchesFullScanOverRandomChurn) {
  // Coarse speeds and headings make equal distances (ties) common; a small
  // population re-assigned at random retires and creates clusters all the
  // time, with no rebuild to compact the retired slots.
  for (const std::size_t cap : {std::size_t{0}, std::size_t{3}}) {
    ClusteringParams params;
    params.alpha = 0.6;
    params.max_clusters = cap;
    SequentialClusterer clusterer(params);
    FullScanClusterer reference(params);
    util::RngStream rng(17 + cap);
    for (int step = 0; step < 20000; ++step) {
      const MnId mn{static_cast<MnId::value_type>(rng.index(12))};
      if (rng.chance(0.2)) {
        clusterer.remove(mn);
        reference.remove(mn);
        continue;
      }
      const MotionFeatures f =
          features_of(0.5 * static_cast<double>(rng.index(8)),
                      0.25 * 3.14159 * static_cast<double>(rng.index(8)));
      ASSERT_EQ(clusterer.assign(mn, f), reference.assign(mn, f))
          << "step " << step;
    }
    const std::vector<ClusterInfo> got = clusterer.clusters();
    const std::vector<ClusterInfo> want = reference.clusters();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(clusterer.cluster_count(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(got[i].size, want[i].size);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].centroid.speed),
                std::bit_cast<std::uint64_t>(want[i].centroid.speed));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].centroid.dir_x),
                std::bit_cast<std::uint64_t>(want[i].centroid.dir_x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].centroid.dir_y),
                std::bit_cast<std::uint64_t>(want[i].centroid.dir_y));
    }
    // A rebuild compacts the ids and keeps the live list consistent.
    clusterer.rebuild();
    const std::vector<ClusterInfo> rebuilt = clusterer.clusters();
    EXPECT_EQ(clusterer.cluster_count(), rebuilt.size());
    for (const ClusterInfo& info : rebuilt) {
      EXPECT_EQ(clusterer.cluster(info.id).size, info.size);
    }
  }
}

TEST(ClusterFeature, DistanceIsEuclideanInEmbeddedSpace) {
  const ClusterFeature a = ClusterFeature::from_motion(features_of(1.0, 0.0),
                                                       /*w=*/2.0);
  const ClusterFeature b = ClusterFeature::from_motion(features_of(1.0, 0.0),
                                                       2.0);
  EXPECT_EQ(a.distance_to(b), 0.0);
  const ClusterFeature c = ClusterFeature::from_motion(features_of(4.0, 0.0),
                                                       2.0);
  EXPECT_NEAR(a.distance_to(c), 3.0, 1e-12);
}

}  // namespace
}  // namespace mgrid::core
