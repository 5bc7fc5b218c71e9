#include "core/clustering.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/eventlog.h"

namespace mgrid::core {
namespace {

/// Orders a cluster before an id: lower_bound over the id-sorted storage.
constexpr auto kIdBelow = [](const auto& cluster, ClusterId id) {
  return cluster.info.id < id;
};

}  // namespace

SequentialClusterer::SequentialClusterer(ClusteringParams params)
    : params_(params) {
  if (!(params.alpha > 0.0)) {
    throw std::invalid_argument("SequentialClusterer: alpha must be > 0");
  }
  if (params.direction_weight < 0.0) {
    throw std::invalid_argument(
        "SequentialClusterer: direction_weight must be >= 0");
  }
}

SequentialClusterer::ClusterState& SequentialClusterer::create_cluster(
    const ClusterFeature& seed) {
  ClusterState& state = clusters_.emplace_back();
  state.info.id = ClusterId{next_id_++};  // the largest id so far: stays sorted
  state.info.centroid = seed;
  ++clusters_created_;
  return state;
}

SequentialClusterer::ClusterState& SequentialClusterer::live(ClusterId id) {
  return *std::lower_bound(clusters_.begin(), clusters_.end(), id, kIdBelow);
}

const SequentialClusterer::ClusterState* SequentialClusterer::find(
    ClusterId id) const {
  const auto it =
      std::lower_bound(clusters_.begin(), clusters_.end(), id, kIdBelow);
  return it != clusters_.end() && it->info.id == id ? &*it : nullptr;
}

void SequentialClusterer::add_member(ClusterState& cluster,
                                     std::uint32_t slot,
                                     const ClusterFeature& f) {
  cluster.sum_speed += f.speed;
  cluster.sum_dir_x += f.dir_x;
  cluster.sum_dir_y += f.dir_y;
  ++cluster.info.size;
  refresh_centroid(cluster);
  members_[slot] = Member{cluster.info.id, f};
  ++member_count_;
}

void SequentialClusterer::remove_member(ClusterState& cluster,
                                        std::uint32_t slot) {
  Member& member = members_[slot];
  const ClusterFeature& f = member.feature;
  cluster.sum_speed -= f.speed;
  cluster.sum_dir_x -= f.dir_x;
  cluster.sum_dir_y -= f.dir_y;
  --cluster.info.size;
  refresh_centroid(cluster);
  member.cluster = ClusterId::invalid();
  --member_count_;
  if (cluster.info.size == 0) {  // retire: `cluster` is an element
    clusters_.erase(clusters_.begin() + (&cluster - clusters_.data()));
  }
}

void SequentialClusterer::refresh_centroid(ClusterState& cluster) noexcept {
  if (cluster.info.size == 0) return;
  const double n = static_cast<double>(cluster.info.size);
  cluster.info.centroid.speed = cluster.sum_speed / n;
  cluster.info.centroid.dir_x = cluster.sum_dir_x / n;
  cluster.info.centroid.dir_y = cluster.sum_dir_y / n;
}

SequentialClusterer::ClusterState* SequentialClusterer::find_nearest(
    const ClusterFeature& f, double* out_distance) {
  // Ascending id order with a strict `<`: ties go to the lowest id.
  ClusterState* best = nullptr;
  double best_d = std::numeric_limits<double>::infinity();
  for (ClusterState& cluster : clusters_) {
    const double d = f.distance_to(cluster.info.centroid);
    if (d < best_d) {
      best_d = d;
      best = &cluster;
    }
  }
  if (out_distance != nullptr) *out_distance = best_d;
  return best;
}

ClusterId SequentialClusterer::assign(MnId mn,
                                      const MotionFeatures& features) {
  if (!mn.valid()) {
    throw std::invalid_argument("SequentialClusterer::assign: invalid MnId");
  }
  const ClusterFeature f =
      ClusterFeature::from_motion(features, params_.direction_weight);

  // Detach from the current cluster first so the node's stale feature does
  // not drag the centroid it is being compared against.
  const std::uint32_t slot = slots_.insert(mn);
  if (slot == members_.size()) members_.emplace_back();
  if (const ClusterId current = members_[slot].cluster; current.valid()) {
    remove_member(live(current), slot);
  }

  double nearest_distance = 0.0;
  ClusterState* nearest = find_nearest(f, &nearest_distance);
  const bool cap_reached =
      params_.max_clusters != 0 && cluster_count() >= params_.max_clusters;
  ClusterState& joined =
      nearest != nullptr &&
              (nearest_distance <= params_.alpha || cap_reached)
          ? *nearest
          : create_cluster(f);
  add_member(joined, slot, f);
  if (obs::eventlog_enabled()) {
    obs::evt::clustered(static_cast<std::int64_t>(joined.info.id.value()),
                        joined.info.centroid.speed);
  }
  return joined.info.id;
}

bool SequentialClusterer::remove(MnId mn) {
  const std::uint32_t slot = slots_.find(mn);
  if (slot == util::MnSlotIndex::kNoSlot) return false;
  const ClusterId current = members_[slot].cluster;
  if (!current.valid()) return false;
  remove_member(live(current), slot);
  return true;
}

std::optional<ClusterId> SequentialClusterer::cluster_of(MnId mn) const {
  const std::uint32_t slot = slots_.find(mn);
  if (slot == util::MnSlotIndex::kNoSlot ||
      !members_[slot].cluster.valid()) {
    return std::nullopt;
  }
  return members_[slot].cluster;
}

const ClusterInfo& SequentialClusterer::cluster(ClusterId id) const {
  const ClusterState* state = find(id);
  if (state == nullptr) {
    throw std::out_of_range("SequentialClusterer::cluster: unknown id");
  }
  return state->info;
}

std::vector<ClusterInfo> SequentialClusterer::clusters() const {
  std::vector<ClusterInfo> out;
  out.reserve(clusters_.size());
  for (const ClusterState& cluster : clusters_) out.push_back(cluster.info);
  return out;
}

std::vector<std::uint32_t> SequentialClusterer::members_by_mn(
    ClusterId cluster) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t slot = 0; slot < members_.size(); ++slot) {
    const ClusterId current = members_[slot].cluster;
    if (current.valid() && (!cluster.valid() || current == cluster)) {
      out.push_back(slot);
    }
  }
  std::sort(out.begin(), out.end(), [this](std::uint32_t a, std::uint32_t b) {
    return slots_.mn(a) < slots_.mn(b);
  });
  return out;
}

void SequentialClusterer::rebuild(double merge_fraction) {
  if (merge_fraction < 0.0) {
    throw std::invalid_argument(
        "SequentialClusterer::rebuild: merge_fraction must be >= 0");
  }
  // Snapshot members in MnId order for determinism; each keeps the
  // feature it last joined with.
  const std::vector<std::uint32_t> members = members_by_mn(ClusterId{});
  clusters_.clear();
  next_id_ = 0;
  for (const std::uint32_t slot : members) {
    members_[slot].cluster = ClusterId::invalid();
  }
  member_count_ = 0;
  for (const std::uint32_t slot : members) {
    const ClusterFeature f = members_[slot].feature;
    double nearest_distance = 0.0;
    ClusterState* nearest = find_nearest(f, &nearest_distance);
    const bool cap_reached =
        params_.max_clusters != 0 && cluster_count() >= params_.max_clusters;
    add_member(nearest != nullptr &&
                       (nearest_distance <= params_.alpha || cap_reached)
                   ? *nearest
                   : create_cluster(f),
               slot, f);
  }

  // Merge pass: absorb clusters whose centroids ended up closer than
  // merge_fraction * alpha (BSAS refinement).
  const double merge_radius = merge_fraction * params_.alpha;
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    for (std::size_t j = i + 1; j < clusters_.size();) {
      if (clusters_[i].info.centroid.distance_to(
              clusters_[j].info.centroid) > merge_radius) {
        ++j;
        continue;
      }
      // Move every member of j into i; the last move retires j, so the
      // next cluster slides into index j.
      for (const std::uint32_t slot : members_by_mn(clusters_[j].info.id)) {
        const ClusterFeature f = members_[slot].feature;
        remove_member(clusters_[j], slot);
        add_member(clusters_[i], slot, f);
      }
    }
  }
}

}  // namespace mgrid::core
