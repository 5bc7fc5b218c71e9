// Sequential (BSAS) clustering of moving MNs (paper §3.2.1, after
// Theodoridis & Koutroumbas, "Pattern Recognition").
//
// Every non-SS node is embedded as (speed, direction) and assigned to the
// nearest cluster if its distance to that cluster's centroid is within the
// similarity bound alpha; otherwise a new cluster is created. Centroids are
// running means over current members. The cluster's mean speed is what the
// ADF turns into a Distance Threshold.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/motion_features.h"
#include "util/mn_slots.h"
#include "util/types.h"

namespace mgrid::core {

struct ClusteringParams {
  /// Similarity bound alpha: max feature distance to join a cluster
  /// (m/s-equivalent units). Must be > 0.
  double alpha = 0.8;
  /// Direction weight in the feature embedding (m/s per unit chord, >= 0;
  /// 0 clusters on speed alone).
  double direction_weight = 0.5;
  /// Upper bound on live clusters (BSAS's q); 0 = unlimited. When the cap
  /// is hit, the nearest cluster absorbs the node even beyond alpha.
  std::size_t max_clusters = 0;
};

struct ClusterInfo {
  ClusterId id;
  ClusterFeature centroid;
  std::size_t size = 0;

  /// Mean speed of the members (the centroid's speed coordinate).
  [[nodiscard]] double mean_speed() const noexcept { return centroid.speed; }
};

class SequentialClusterer {
 public:
  explicit SequentialClusterer(ClusteringParams params = {});

  /// Assigns (or re-assigns) a node given its current features. Returns the
  /// cluster the node now belongs to.
  ClusterId assign(MnId mn, const MotionFeatures& features);

  /// Removes a node (e.g. it entered Stop State). Returns false when the
  /// node was not clustered. Empty clusters are retired.
  bool remove(MnId mn);

  /// Cluster of a node, if any.
  [[nodiscard]] std::optional<ClusterId> cluster_of(MnId mn) const;

  /// Cluster metadata; throws std::out_of_range for a retired/unknown id.
  [[nodiscard]] const ClusterInfo& cluster(ClusterId id) const;

  /// Live clusters, ordered by id.
  [[nodiscard]] std::vector<ClusterInfo> clusters() const;
  [[nodiscard]] std::size_t cluster_count() const noexcept {
    return clusters_.size();
  }
  [[nodiscard]] std::size_t member_count() const noexcept {
    return member_count_;
  }

  /// Reconstruction (paper step 6): re-assigns every member from scratch in
  /// MnId order using its latest features, then merges clusters whose
  /// centroids are within `merge_fraction * alpha`. Deterministic.
  void rebuild(double merge_fraction = 0.5);

  /// Total number of clusters ever created (monotone; for diagnostics).
  [[nodiscard]] std::uint64_t clusters_created() const noexcept {
    return clusters_created_;
  }

  [[nodiscard]] const ClusteringParams& params() const noexcept {
    return params_;
  }

 private:
  struct ClusterState {
    ClusterInfo info;
    // Running sums backing the centroid.
    double sum_speed = 0.0;
    double sum_dir_x = 0.0;
    double sum_dir_y = 0.0;
  };

  /// A node's cluster (invalid when unclustered) and the feature it joined
  /// with.
  struct Member {
    ClusterId cluster;
    ClusterFeature feature;
  };

  /// Appends a cluster with the next id; returns it.
  ClusterState& create_cluster(const ClusterFeature& seed);
  /// The live cluster `id` (which must be live).
  [[nodiscard]] ClusterState& live(ClusterId id);
  /// The live cluster `id`, or nullptr when it is retired or unknown.
  [[nodiscard]] const ClusterState* find(ClusterId id) const;
  void add_member(ClusterState& cluster, std::uint32_t slot,
                  const ClusterFeature& f);
  void remove_member(ClusterState& cluster, std::uint32_t slot);
  /// Slots of the current members of `cluster` (every member when
  /// invalid), in MnId order.
  [[nodiscard]] std::vector<std::uint32_t> members_by_mn(
      ClusterId cluster) const;
  void refresh_centroid(ClusterState& cluster) noexcept;
  [[nodiscard]] ClusterState* find_nearest(const ClusterFeature& f,
                                           double* out_distance);

  ClusteringParams params_;
  // The live clusters only, ascending by id: ids are handed out in creation
  // order and a retired cluster is erased, so storage is bounded by the
  // live clusters however many were created since the last rebuild.
  std::vector<ClusterState> clusters_;
  // Id of the next cluster created; restarts at 0 on rebuild().
  ClusterId::value_type next_id_ = 0;
  util::MnSlotIndex slots_;
  std::vector<Member> members_;  // by slot
  std::size_t member_count_ = 0;
  std::uint64_t clusters_created_ = 0;
};

}  // namespace mgrid::core
