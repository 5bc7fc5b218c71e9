// Consistent-hash ring: stable MN -> shard-node assignment.
//
// Each node contributes `vnodes` points on a 64-bit hash circle; an MN is
// owned by the node whose point is the first at or after the MN's key hash
// (wrapping past 2^64). The classic properties follow:
//
//   spread    a plain ring at 64 vnodes still has ~1/sqrt(64) = 12.5%
//             arc-length deviation, so lookups are *multi-probe*: the key
//             hashes to `probes` positions and the owner is the point with
//             the smallest forward distance over all of them. Dense regions
//             of the circle win probes that sparse regions would have
//             captured, which concentrates load toward uniform — the ring
//             property test asserts within ±10% at 64 vnodes/node;
//   minimal   adding or removing one node only moves the keys that node
//   movement  gains or loses; assignments between two surviving nodes never
//   movement  change. Multi-probe preserves this exactly: new points can
//             only *shrink* a probe's forward distance (so a changed winner
//             is always the new node), and removing a node only *grows* the
//             probes it was winning. This is what makes shard join/leave a
//             bounded handoff (cluster/handoff.h) instead of a reshuffle.
//
// Lookup cost: each probe hashes once and lands in a bucket index over the
// circle (2^b equal arcs, 2^b >= 8 x points, capped at 2^16) that names the
// first point at or past the bucket's edge; the successor is then ~1 step
// away, so owner() is `probes` hashes plus `probes` bucket probes — no
// binary search. The index is derived from the points and rebuilt with them
// on every membership change, so it never affects which node wins.
//
// Hashes are fixed for the protocol's lifetime: vnode points are
// splitmix64(fnv1a64("<name>#<vnode>")) and probe p of key mn is
// splitmix64(splitmix64(mn) + p * 0x9E3779B97F4A7C15) — all frozen,
// platform-stable primitives (util/rng.h). Router and shards may compute
// ownership independently and always agree.
//
// Not synchronized: the ring is a small value type; the router guards its
// instance with its own mutex.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mgrid::cluster {

struct RingOptions {
  /// Virtual nodes per physical node (>= 1). More vnodes = tighter spread,
  /// linearly larger lookup table.
  std::size_t vnodes = 64;
  /// Lookup probes per key (>= 1). More probes = tighter spread, linearly
  /// more hashes and bucket probes per owner(); 1 degenerates to the
  /// classic ring.
  /// 21 is the multi-probe literature's sweet spot (~1.1x peak load even
  /// without vnodes).
  std::size_t probes = 21;
};

class HashRing {
 public:
  explicit HashRing(RingOptions options = {});

  /// Adds a node; false (ring unchanged) when the name is already present.
  /// Bumps version() on success.
  bool add_node(const std::string& name);
  /// Removes a node; false when absent. Bumps version() on success.
  bool remove_node(const std::string& name);

  /// Index into nodes() of the node owning `mn`. Requires a non-empty ring
  /// (throws std::logic_error otherwise — asking an empty ring is a driver
  /// bug).
  [[nodiscard]] std::size_t owner_index(std::uint32_t mn) const;
  /// The node owning `mn`: nodes()[owner_index(mn)].
  [[nodiscard]] const std::string& owner(std::uint32_t mn) const;

  /// Node names, sorted. Valid until the next add_node/remove_node.
  [[nodiscard]] const std::vector<std::string>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }

  /// Monotonic membership-change counter (starts at 0, +1 per successful
  /// add/remove). Surfaced in /statusz so operators can confirm every
  /// process converged on the same membership.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// The frozen key hash (splitmix64 of the MN id). Public so tests and
  /// handoff tooling reason about placement directly.
  [[nodiscard]] static std::uint64_t key_hash(std::uint32_t mn) noexcept;

 private:
  void rebuild_points();

  RingOptions options_;
  std::vector<std::string> nodes_;  ///< Sorted by name.
  /// Hash circle, sorted by point; the second element indexes nodes_ (an
  /// index, not a pointer, so the ring is trivially copyable). Ties
  /// (vanishingly rare) break by name so the table is deterministic
  /// regardless of insertion order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
  /// Successor index: bucket_first_[h >> bucket_shift_] is the first point
  /// >= that bucket's low edge. Rebuilt with points_.
  std::vector<std::uint32_t> bucket_first_;
  unsigned bucket_shift_ = 64;
  std::uint64_t version_ = 0;
};

/// The MNs in `mns` whose owner differs between two rings — exactly the
/// tracks a membership change hands off.
[[nodiscard]] std::vector<std::uint32_t> moved_mns(
    const HashRing& before, const HashRing& after,
    const std::vector<std::uint32_t>& mns);

}  // namespace mgrid::cluster
