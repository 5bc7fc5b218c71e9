#include "cluster/ring.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace mgrid::cluster {

namespace {

/// The successor index never exceeds 2^16 buckets (256 KiB).
constexpr unsigned kMaxBucketBits = 16;

}  // namespace

HashRing::HashRing(RingOptions options) : options_(options) {
  if (options_.vnodes == 0) options_.vnodes = 1;
  if (options_.probes == 0) options_.probes = 1;
}

bool HashRing::add_node(const std::string& name) {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), name);
  if (it != nodes_.end() && *it == name) return false;
  nodes_.insert(it, name);
  rebuild_points();
  ++version_;
  return true;
}

bool HashRing::remove_node(const std::string& name) {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), name);
  if (it == nodes_.end() || *it != name) return false;
  nodes_.erase(it);
  rebuild_points();
  ++version_;
  return true;
}

std::size_t HashRing::owner_index(std::uint32_t mn) const {
  if (points_.empty()) {
    throw std::logic_error("HashRing::owner on an empty ring");
  }
  // Multi-probe lookup: the key hashes to `probes` positions; the winner is
  // the point with the smallest forward (clockwise) distance over all of
  // them. Ties break by (point, node index) so every process agrees.
  const std::uint64_t key = key_hash(mn);
  const std::size_t count = points_.size();
  std::uint64_t best_distance = 0;
  const std::pair<std::uint64_t, std::uint32_t>* best = nullptr;
  for (std::size_t p = 0; p < options_.probes; ++p) {
    const std::uint64_t probe =
        util::splitmix64(key + p * 0x9E3779B97F4A7C15ull);
    // The successor (first point > probe) is at or after the first point of
    // the probe's bucket, and every point in between is <= probe, so a
    // forward scan from there finds it; buckets average 1/8 of a point.
    std::size_t i = bucket_first_[probe >> bucket_shift_];
    while (i < count && points_[i].first <= probe) ++i;
    if (i == count) i = 0;  // wrap past 2^64
    const auto& point = points_[i];
    const std::uint64_t distance = point.first - probe;  // mod-2^64 wraps
    if (best == nullptr || distance < best_distance ||
        (distance == best_distance && point < *best)) {
      best_distance = distance;
      best = &point;
    }
  }
  return best->second;
}

const std::string& HashRing::owner(std::uint32_t mn) const {
  return nodes_[owner_index(mn)];
}

bool HashRing::contains(const std::string& name) const {
  return std::binary_search(nodes_.begin(), nodes_.end(), name);
}

std::uint64_t HashRing::key_hash(std::uint32_t mn) noexcept {
  return util::splitmix64(mn);
}

void HashRing::rebuild_points() {
  points_.clear();
  points_.reserve(nodes_.size() * options_.vnodes);
  for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
    for (std::size_t v = 0; v < options_.vnodes; ++v) {
      const std::uint64_t point = util::splitmix64(
          util::fnv1a64(nodes_[n] + "#" + std::to_string(v)));
      points_.emplace_back(point, n);
    }
  }
  // nodes_ is sorted by name, so the index order is the name order and ties
  // break deterministically regardless of insertion order.
  std::sort(points_.begin(), points_.end());

  // Bucket index: 2^b equal arcs of the circle, b the smallest value with
  // 2^b >= 8 x points (capped), so a bucket holds 1/8 of a point on average.
  // bucket_first_[k] is the first point >= bucket k's low edge k << shift.
  bucket_first_.clear();
  if (points_.empty()) return;
  unsigned bits = 0;
  while (bits < kMaxBucketBits &&
         (std::size_t{1} << bits) < 8 * points_.size()) {
    ++bits;
  }
  bucket_shift_ = 64 - bits;
  const std::size_t buckets = std::size_t{1} << bits;
  bucket_first_.resize(buckets);
  std::size_t i = 0;
  for (std::size_t k = 0; k < buckets; ++k) {
    const std::uint64_t low_edge = std::uint64_t{k} << bucket_shift_;
    while (i < points_.size() && points_[i].first < low_edge) ++i;
    bucket_first_[k] = static_cast<std::uint32_t>(i);
  }
}

std::vector<std::uint32_t> moved_mns(const HashRing& before,
                                     const HashRing& after,
                                     const std::vector<std::uint32_t>& mns) {
  std::vector<std::uint32_t> moved;
  for (const std::uint32_t mn : mns) {
    if (before.owner(mn) != after.owner(mn)) moved.push_back(mn);
  }
  return moved;
}

}  // namespace mgrid::cluster
