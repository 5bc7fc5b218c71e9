#include "core/clustering.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/eventlog.h"

namespace mgrid::core {

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

ClusterId SequentialClusterer::create_cluster(const ClusterFeature& seed) {
  const ClusterId id{static_cast<ClusterId::value_type>(clusters_.size())};
  ClusterState state;
  state.info.id = id;
  state.info.centroid = seed;
  clusters_.push_back(std::move(state));
  live_ids_.push_back(id.value());  // the largest id so far: stays sorted
  ++clusters_created_;
  return id;
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
  if (cluster.info.size == 0) {
    const ClusterId::value_type id = cluster.info.id.value();
    live_ids_.erase(std::lower_bound(live_ids_.begin(), live_ids_.end(), id));
    clusters_[id].reset();  // retire
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
  for (const ClusterId::value_type id : live_ids_) {
    ClusterState& cluster = *clusters_[id];
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
    remove_member(*clusters_[current.value()], slot);
  }

  double nearest_distance = 0.0;
  ClusterState* nearest = find_nearest(f, &nearest_distance);
  const bool cap_reached =
      params_.max_clusters != 0 && cluster_count() >= params_.max_clusters;
  ClusterId id;
  if (nearest != nullptr &&
      (nearest_distance <= params_.alpha || cap_reached)) {
    add_member(*nearest, slot, f);
    id = nearest->info.id;
  } else {
    id = create_cluster(f);
    add_member(*clusters_[id.value()], slot, f);
  }
  if (obs::eventlog_enabled()) {
    obs::evt::clustered(static_cast<std::int64_t>(id.value()),
                        clusters_[id.value()]->info.centroid.speed);
  }
  return id;
}

bool SequentialClusterer::remove(MnId mn) {
  const std::uint32_t slot = slots_.find(mn);
  if (slot == util::MnSlotIndex::kNoSlot) return false;
  const ClusterId current = members_[slot].cluster;
  if (!current.valid()) return false;
  remove_member(*clusters_[current.value()], slot);
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
  if (!id.valid() || id.value() >= clusters_.size() ||
      !clusters_[id.value()]) {
    throw std::out_of_range("SequentialClusterer::cluster: unknown id");
  }
  return clusters_[id.value()]->info;
}

std::vector<ClusterInfo> SequentialClusterer::clusters() const {
  std::vector<ClusterInfo> out;
  out.reserve(live_ids_.size());
  for (const ClusterId::value_type id : live_ids_) {
    out.push_back(clusters_[id]->info);
  }
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
  live_ids_.clear();
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
    if (nearest != nullptr &&
        (nearest_distance <= params_.alpha || cap_reached)) {
      add_member(*nearest, slot, f);
    } else {
      const ClusterId id = create_cluster(f);
      add_member(*clusters_[id.value()], slot, f);
    }
  }

  // Merge pass: absorb clusters whose centroids ended up closer than
  // merge_fraction * alpha (BSAS refinement).
  const double merge_radius = merge_fraction * params_.alpha;
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    if (!clusters_[i]) continue;
    for (std::size_t j = i + 1; j < clusters_.size(); ++j) {
      if (!clusters_[j]) continue;
      if (clusters_[i]->info.centroid.distance_to(
              clusters_[j]->info.centroid) > merge_radius) {
        continue;
      }
      // Move every member of j into i.
      for (const std::uint32_t slot :
           members_by_mn(clusters_[j]->info.id)) {
        const ClusterFeature f = members_[slot].feature;
        remove_member(*clusters_[j], slot);
        add_member(*clusters_[i], slot, f);
      }
    }
  }
}

}  // namespace mgrid::core
