#include "cluster/ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace mgrid::cluster {
namespace {

std::vector<std::uint32_t> all_mns(std::uint32_t count) {
  std::vector<std::uint32_t> mns(count);
  for (std::uint32_t i = 0; i < count; ++i) mns[i] = i;
  return mns;
}

TEST(HashRing, EmptyRingThrowsAndReportsEmpty) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.node_count(), 0u);
  EXPECT_EQ(ring.version(), 0u);
  EXPECT_THROW(static_cast<void>(ring.owner(7)), std::logic_error);
}

TEST(HashRing, MembershipAndVersion) {
  HashRing ring;
  EXPECT_TRUE(ring.add_node("a"));
  EXPECT_FALSE(ring.add_node("a"));  // duplicate: no version bump
  EXPECT_TRUE(ring.add_node("b"));
  EXPECT_EQ(ring.version(), 2u);
  EXPECT_TRUE(ring.contains("a"));
  EXPECT_FALSE(ring.contains("c"));
  EXPECT_TRUE(ring.remove_node("a"));
  EXPECT_FALSE(ring.remove_node("a"));
  EXPECT_EQ(ring.version(), 3u);
  EXPECT_EQ(ring.nodes(), std::vector<std::string>{"b"});
}

TEST(HashRing, SingleNodeOwnsEverything) {
  HashRing ring;
  ring.add_node("only");
  for (std::uint32_t mn = 0; mn < 1000; ++mn) {
    EXPECT_EQ(ring.owner(mn), "only");
  }
}

TEST(HashRing, OwnershipIsIndependentOfInsertionOrder) {
  HashRing forward;
  forward.add_node("alpha");
  forward.add_node("beta");
  forward.add_node("gamma");
  HashRing backward;
  backward.add_node("gamma");
  backward.add_node("alpha");
  backward.add_node("beta");
  for (std::uint32_t mn = 0; mn < 10000; ++mn) {
    EXPECT_EQ(forward.owner(mn), backward.owner(mn)) << "mn " << mn;
  }
}

// The ISSUE's spread property: at 64 vnodes per node, every node's share of
// a large key population stays within ±10% of uniform.
TEST(HashRing, KeySpreadWithinTenPercentOfUniform) {
  for (const std::size_t node_count : {2u, 3u, 4u, 8u}) {
    HashRing ring(RingOptions{64});
    for (std::size_t n = 0; n < node_count; ++n) {
      ring.add_node("shard-" + std::to_string(n));
    }
    constexpr std::uint32_t kKeys = 200000;
    std::map<std::string, std::uint32_t> owned;
    for (std::uint32_t mn = 0; mn < kKeys; ++mn) ++owned[ring.owner(mn)];
    const double uniform = static_cast<double>(kKeys) /
                           static_cast<double>(node_count);
    ASSERT_EQ(owned.size(), node_count) << node_count << " nodes";
    for (const auto& [name, count] : owned) {
      EXPECT_GE(count, 0.9 * uniform)
          << name << " underloaded at " << node_count << " nodes";
      EXPECT_LE(count, 1.1 * uniform)
          << name << " overloaded at " << node_count << " nodes";
    }
  }
}

// The minimal-movement property: a join only moves keys *to* the new node,
// a leave only moves keys *from* the departed node — assignments between
// surviving nodes never change.
TEST(HashRing, JoinMovesOnlyKeysGainedByTheNewNode) {
  HashRing before(RingOptions{64});
  before.add_node("a");
  before.add_node("b");
  before.add_node("c");
  HashRing after = before;
  after.add_node("d");

  const std::vector<std::uint32_t> mns = all_mns(50000);
  std::uint32_t moved = 0;
  for (const std::uint32_t mn : mns) {
    if (before.owner(mn) != after.owner(mn)) {
      EXPECT_EQ(after.owner(mn), "d") << "mn " << mn
                                      << " moved between survivors";
      ++moved;
    }
  }
  // The new node should own roughly a quarter; definitely not nothing and
  // definitely not keys it did not gain.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, mns.size() / 2);
  EXPECT_EQ(moved_mns(before, after, mns).size(), moved);
}

TEST(HashRing, LeaveMovesOnlyKeysOfTheDepartedNode) {
  HashRing before(RingOptions{64});
  before.add_node("a");
  before.add_node("b");
  before.add_node("c");
  before.add_node("d");
  HashRing after = before;
  after.remove_node("d");

  for (std::uint32_t mn = 0; mn < 50000; ++mn) {
    if (before.owner(mn) == "d") {
      EXPECT_NE(after.owner(mn), "d");
    } else {
      EXPECT_EQ(before.owner(mn), after.owner(mn))
          << "mn " << mn << " moved although its owner survived";
    }
  }
}

TEST(HashRing, JoinThenLeaveRoundTripsExactly) {
  HashRing ring(RingOptions{64});
  ring.add_node("a");
  ring.add_node("b");
  const HashRing baseline = ring;
  ring.add_node("c");
  ring.remove_node("c");
  for (std::uint32_t mn = 0; mn < 20000; ++mn) {
    EXPECT_EQ(ring.owner(mn), baseline.owner(mn));
  }
  EXPECT_EQ(ring.version(), baseline.version() + 2);
}

/// Brute-force ring built only from the documented frozen hashes: points are
/// splitmix64(fnv1a64("<name>#<v>")), probe p of key mn is
/// splitmix64(splitmix64(mn) + p * 0x9E3779B97F4A7C15), each probe's
/// successor is found by a linear scan, and the winner is the smallest
/// (forward distance, point, node index).
class ReferenceRing {
 public:
  ReferenceRing(std::vector<std::string> names, std::size_t vnodes,
                std::size_t probes)
      : names_(std::move(names)), probes_(probes) {
    std::sort(names_.begin(), names_.end());
    for (std::uint32_t n = 0; n < names_.size(); ++n) {
      for (std::size_t v = 0; v < vnodes; ++v) {
        points_.emplace_back(
            util::splitmix64(util::fnv1a64(names_[n] + "#" +
                                           std::to_string(v))),
            n);
      }
    }
  }

  [[nodiscard]] static std::uint64_t probe(std::uint32_t mn, std::size_t p) {
    return util::splitmix64(util::splitmix64(mn) + p * 0x9E3779B97F4A7C15ull);
  }

  [[nodiscard]] std::uint64_t max_point() const {
    std::uint64_t max = 0;
    for (const auto& point : points_) max = std::max(max, point.first);
    return max;
  }

  [[nodiscard]] std::size_t owner_index(std::uint32_t mn) const {
    using Point = std::pair<std::uint64_t, std::uint32_t>;
    const Point* best = nullptr;
    std::uint64_t best_distance = 0;
    for (std::size_t p = 0; p < probes_; ++p) {
      const std::uint64_t h = probe(mn, p);
      // Successor: the first point strictly after h going clockwise, so a
      // point equal to h is the farthest one (a full turn away).
      const Point* successor = nullptr;
      for (const Point& point : points_) {
        if (successor == nullptr ||
            point.first - h - 1 < successor->first - h - 1 ||
            (point.first == successor->first && point < *successor)) {
          successor = &point;
        }
      }
      const std::uint64_t distance = successor->first - h;
      if (best == nullptr || distance < best_distance ||
          (distance == best_distance && *successor < *best)) {
        best = successor;
        best_distance = distance;
      }
    }
    return best->second;
  }

  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

 private:
  std::vector<std::string> names_;
  std::size_t probes_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
};

// The bucket-indexed lookup must pick exactly the node the linear-scan
// reference picks, on every ring shape the cluster can run, including keys
// at the ends of the id range and keys whose probes wrap past 2^64.
TEST(HashRing, OwnerMatchesTheBruteForceReference) {
  for (std::size_t node_count = 1; node_count <= 17; ++node_count) {
    std::vector<std::string> names;
    for (std::size_t n = 0; n < node_count; ++n) {
      names.push_back("node-" + std::to_string(n * 7919 % 101));
    }
    for (const std::size_t vnodes : {1u, 8u, 64u, 256u}) {
      for (const std::size_t probes : {1u, 21u}) {
        HashRing ring(RingOptions{vnodes, probes});
        for (const std::string& name : names) ring.add_node(name);
        const ReferenceRing reference(names, vnodes, probes);
        ASSERT_EQ(ring.nodes(), reference.names());

        std::vector<std::uint32_t> keys = {
            0, 1, std::numeric_limits<std::uint32_t>::max(),
            std::numeric_limits<std::uint32_t>::max() - 1};
        // Keys with at least one probe past the last point: their successor
        // wraps to the first point on the circle.
        const std::uint64_t last = reference.max_point();
        std::size_t wrapping = 0;
        for (std::uint32_t mn = 2; mn < 1000000 && wrapping < 3; ++mn) {
          for (std::size_t p = 0; p < probes; ++p) {
            if (ReferenceRing::probe(mn, p) > last) {
              keys.push_back(mn);
              ++wrapping;
              break;
            }
          }
        }
        EXPECT_EQ(wrapping, 3u);
        util::RngStream rng(node_count * 1000 + vnodes * 10 + probes);
        for (int i = 0; i < 48; ++i) {
          keys.push_back(static_cast<std::uint32_t>(
              rng.uniform_int(0, std::numeric_limits<std::uint32_t>::max())));
        }

        for (const std::uint32_t mn : keys) {
          const std::size_t expected = reference.owner_index(mn);
          ASSERT_EQ(ring.owner_index(mn), expected)
              << "mn " << mn << " nodes " << node_count << " vnodes "
              << vnodes << " probes " << probes;
          ASSERT_EQ(ring.owner(mn), reference.names()[expected]);
        }
      }
    }
  }
}

// Placement is part of the protocol: router and shards compute it on their
// own, and a persisted cluster's data sits where it was placed. This digest
// of the default two-node ring's owners must never move.
TEST(HashRing, DefaultTwoNodePlacementIsPinned) {
  HashRing ring;
  ring.add_node("shard-0");
  ring.add_node("shard-1");
  std::string owners;
  for (std::uint32_t mn = 0; mn < 10000; ++mn) {
    owners += ring.owner(mn);
    owners += '\n';
  }
  EXPECT_EQ(util::fnv1a64(owners), 0xEDCC5876E61E01D5ull);
}

}  // namespace
}  // namespace mgrid::cluster
