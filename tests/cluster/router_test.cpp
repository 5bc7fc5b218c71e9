#include "cluster/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/lu_server.h"
#include "cluster/ring.h"
#include "estimation/estimator.h"
#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/wire.h"
#include "util/json.h"

namespace mgrid::cluster {
namespace {

serve::DirectoryOptions directory_options() {
  serve::DirectoryOptions options;
  options.shards = 4;
  return options;
}

std::unique_ptr<serve::ShardedDirectory> make_directory() {
  return std::make_unique<serve::ShardedDirectory>(
      directory_options(), estimation::make_estimator("brown_polar", 0.3, 1.0));
}

wire::LuMsg walk_lu(std::uint32_t mn, std::uint64_t k) {
  wire::LuMsg lu;
  lu.mn = mn;
  lu.seq = static_cast<std::uint32_t>(k);
  lu.t = static_cast<double>(k);
  lu.x = 100.0 + 3.0 * static_cast<double>(mn) +
         1.7 * static_cast<double>(k) + 0.1 * std::sin(static_cast<double>(k));
  lu.y = 50.0 + 2.0 * static_cast<double>(mn) - 0.9 * static_cast<double>(k);
  lu.vx = 1.7;
  lu.vy = -0.9;
  return lu;
}

/// One in-process shard node (no WAL — the router test is about routing).
struct ShardNode {
  std::unique_ptr<serve::ShardedDirectory> directory = make_directory();
  std::unique_ptr<serve::IngestPipeline> pipeline;
  std::unique_ptr<LuServer> server;

  ShardNode() {
    serve::IngestOptions ingest;
    ingest.sources = 3;
    ingest.workers = 2;
    pipeline = std::make_unique<serve::IngestPipeline>(*directory, ingest);
    LuServerHooks hooks;
    hooks.directory = directory.get();
    hooks.pipeline = pipeline.get();
    server = std::make_unique<LuServer>(LuServerOptions{}, hooks);
    server->start();
  }
  ~ShardNode() {
    server->stop();
    pipeline->stop();
  }
};

class RouterTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kShards = 3;

  void SetUp() override {
    std::vector<RouterShardConfig> configs;
    for (std::size_t i = 0; i < kShards; ++i) {
      nodes_.push_back(std::make_unique<ShardNode>());
      RouterShardConfig config;
      config.name = "shard-" + std::to_string(i);
      config.lu_port = nodes_.back()->server->port();
      configs.push_back(config);
    }
    RouterOptions options;
    options.health_period_seconds = 0.0;  // no admin plane in this test
    options.batch_size = 16;
    router_ = std::make_unique<Router>(options, configs);
    std::string error;
    ASSERT_TRUE(router_->start(&error)) << error;

    reference_ = make_directory();
    serve::IngestOptions ingest;
    ingest.sources = 3;
    ingest.workers = 2;
    local_ = std::make_unique<serve::IngestPipeline>(*reference_, ingest);
  }

  void TearDown() override {
    local_->stop();
    router_->stop();
  }

  /// Drives the identical walk through the router and the single-process
  /// reference: the union of the shards must equal the reference.
  void drive(std::uint32_t mn_count, std::uint64_t ticks) {
    for (std::uint64_t k = 1; k <= ticks; ++k) {
      for (std::uint32_t mn = 0; mn < mn_count; ++mn) {
        if (mn == 0 && k % 2 == 1) continue;
        ASSERT_TRUE(router_->submit(walk_lu(mn, k)));
        ASSERT_TRUE(local_->submit(walk_lu(mn, k)));
        ++lus_;
      }
      ASSERT_TRUE(router_->tick(static_cast<double>(k), k));
      local_->flush();
      reference_->advance_estimates(static_cast<double>(k));
    }
  }

  /// The cluster's combined view: shard snapshots merged by MN id (each MN
  /// lives on exactly one shard, so this is a disjoint union).
  std::vector<serve::DirectoryEntry> merged_snapshot() const {
    std::vector<serve::DirectoryEntry> all;
    for (const auto& node : nodes_) {
      const std::vector<serve::DirectoryEntry> snap =
          node->directory->snapshot();
      all.insert(all.end(), snap.begin(), snap.end());
    }
    std::sort(all.begin(), all.end(),
              [](const serve::DirectoryEntry& a,
                 const serve::DirectoryEntry& b) { return a.mn < b.mn; });
    return all;
  }

  std::vector<std::unique_ptr<ShardNode>> nodes_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<serve::ShardedDirectory> reference_;
  std::unique_ptr<serve::IngestPipeline> local_;
  std::uint64_t lus_ = 0;
};

TEST_F(RouterTest, ShardUnionEqualsSingleProcessDirectoryBitExact) {
  drive(/*mn_count=*/48, /*ticks=*/10);

  const std::vector<serve::DirectoryEntry> want = reference_->snapshot();
  const std::vector<serve::DirectoryEntry> got = merged_snapshot();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].mn, want[i].mn);
    EXPECT_EQ(got[i].t, want[i].t) << "mn " << want[i].mn;
    EXPECT_EQ(got[i].position.x, want[i].position.x) << "mn " << want[i].mn;
    EXPECT_EQ(got[i].position.y, want[i].position.y) << "mn " << want[i].mn;
    EXPECT_EQ(got[i].estimated, want[i].estimated) << "mn " << want[i].mn;
  }

  // Placement is the ring's: every entry lives on the shard the router says
  // owns it, and more than one shard is actually populated.
  std::size_t populated = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const std::vector<serve::DirectoryEntry> snap =
        nodes_[i]->directory->snapshot();
    if (!snap.empty()) ++populated;
    for (const serve::DirectoryEntry& entry : snap) {
      EXPECT_EQ(router_->owner(entry.mn), "shard-" + std::to_string(i))
          << "mn " << entry.mn << " on the wrong shard";
    }
  }
  EXPECT_GT(populated, 1u);

  const RouterStats stats = router_->stats();
  EXPECT_EQ(stats.lus_forwarded, lus_);
  EXPECT_EQ(stats.lus_dropped, 0u);
  EXPECT_EQ(stats.ticks, 10u);
  EXPECT_EQ(stats.tick_failures, 0u);
  EXPECT_TRUE(router_->all_ready());
}

TEST_F(RouterTest, LookupsRouteToTheOwnerShard) {
  drive(24, 6);
  for (std::uint32_t mn = 0; mn < 24; ++mn) {
    const auto want = reference_->lookup(mn);
    ASSERT_TRUE(want.has_value());
    const auto got = router_->lookup(mn, want->t);
    ASSERT_TRUE(got.has_value()) << "mn " << mn;
    EXPECT_TRUE(got->found);
    EXPECT_EQ(got->t, want->t) << "mn " << mn;
    EXPECT_EQ(got->x, want->position.x) << "mn " << mn;
    EXPECT_EQ(got->y, want->position.y) << "mn " << mn;
  }
  const auto missing = router_->lookup(9999, 6.0);
  ASSERT_TRUE(missing.has_value());
  EXPECT_FALSE(missing->found);
}

TEST_F(RouterTest, FanOutQueriesMergeIdenticallyToOneDirectory) {
  drive(40, 8);
  const geo::Vec2 center{160.0, 40.0};

  // Unbounded region query: same hits, same (distance, mn) order.
  const std::vector<serve::Neighbor> want =
      reference_->query_region(center, 60.0, 0);
  ASSERT_FALSE(want.empty());
  const std::vector<wire::NeighborMsg> got =
      router_->query_region(center.x, center.y, 60.0, 0);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].mn, want[i].mn) << "hit " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "hit " << i;
    EXPECT_EQ(got[i].x, want[i].position.x) << "hit " << i;
    EXPECT_EQ(got[i].y, want[i].position.y) << "hit " << i;
  }

  // Bounded region query: truncation must agree too — each shard returns
  // its own top-N, the merge re-sorts and cuts, which is exactly the
  // single directory's top-N.
  const std::vector<serve::Neighbor> want_bounded =
      reference_->query_region(center, 60.0, 5);
  const std::vector<wire::NeighborMsg> got_bounded =
      router_->query_region(center.x, center.y, 60.0, 5);
  ASSERT_EQ(got_bounded.size(), want_bounded.size());
  for (std::size_t i = 0; i < want_bounded.size(); ++i) {
    EXPECT_EQ(got_bounded[i].mn, want_bounded[i].mn) << "hit " << i;
    EXPECT_EQ(got_bounded[i].distance, want_bounded[i].distance)
        << "hit " << i;
  }

  const std::vector<serve::Neighbor> want_nearest =
      reference_->k_nearest(center, 7);
  const std::vector<wire::NeighborMsg> got_nearest =
      router_->k_nearest(center.x, center.y, 7);
  ASSERT_EQ(got_nearest.size(), want_nearest.size());
  for (std::size_t i = 0; i < want_nearest.size(); ++i) {
    EXPECT_EQ(got_nearest[i].mn, want_nearest[i].mn) << "hit " << i;
    EXPECT_EQ(got_nearest[i].distance, want_nearest[i].distance)
        << "hit " << i;
  }

  const RouterStats stats = router_->stats();
  EXPECT_EQ(stats.region_queries, 2u);
  EXPECT_EQ(stats.nearest_queries, 1u);
  EXPECT_EQ(stats.query_failures, 0u);
}

TEST_F(RouterTest, BatchesAutoFlushAtBatchSize) {
  // 64 LUs against batch_size 16 must flush at least once without an
  // explicit flush()/tick().
  for (std::uint32_t mn = 0; mn < 64; ++mn) {
    ASSERT_TRUE(router_->submit(walk_lu(mn, 1)));
  }
  EXPECT_GE(router_->stats().batches_sent, 1u);
  ASSERT_TRUE(router_->flush());
  ASSERT_TRUE(router_->tick(1.0, 1));
  std::size_t applied = 0;
  for (const auto& node : nodes_) applied += node->directory->size();
  EXPECT_EQ(applied, 64u);
}

TEST_F(RouterTest, StatusBlockNamesEveryShard) {
  drive(12, 3);
  util::JsonWriter json;
  json.begin_object();
  router_->write_cluster_status(json);
  json.end_object();
  const std::string status = json.str();
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_NE(status.find("shard-" + std::to_string(i)), std::string::npos)
        << status;
  }
  EXPECT_NE(status.find("ring_version"), std::string::npos) << status;
  EXPECT_NE(status.find("\"lus\":"), std::string::npos) << status;
}

TEST(RouterMembership, RemoveShardShrinksTheRing) {
  ShardNode a;
  ShardNode b;
  RouterOptions options;
  options.health_period_seconds = 0.0;
  std::vector<RouterShardConfig> configs(2);
  configs[0].name = "a";
  configs[0].lu_port = a.server->port();
  configs[1].name = "b";
  configs[1].lu_port = b.server->port();
  Router router(options, configs);
  std::string error;
  ASSERT_TRUE(router.start(&error)) << error;

  ASSERT_TRUE(router.remove_shard("b"));
  EXPECT_FALSE(router.remove_shard("b"));
  EXPECT_EQ(router.shard_names(), std::vector<std::string>{"a"});
  // Every MN now routes to the survivor.
  for (std::uint32_t mn = 0; mn < 100; ++mn) {
    EXPECT_EQ(router.owner(mn), "a");
  }
  router.stop();
}

// The router routes by ring node index, so its shard table must be
// re-indexed on every membership change. "a" sorts before "m" and "z", so
// adding it shifts every index; removing "m" shifts them again. After each
// change every LU must land on the shard Router::owner names.
TEST(RouterMembership, LusFollowTheRingAcrossJoinAndLeave) {
  std::map<std::string, std::unique_ptr<ShardNode>> nodes;
  for (const char* name : {"m", "z", "a"}) {
    nodes[name] = std::make_unique<ShardNode>();
  }
  const auto config = [&](const std::string& name) {
    RouterShardConfig c;
    c.name = name;
    c.lu_port = nodes.at(name)->server->port();
    return c;
  };
  RouterOptions options;
  options.health_period_seconds = 0.0;
  options.batch_size = 8;
  Router router(options, {config("m"), config("z")});
  std::string error;
  ASSERT_TRUE(router.start(&error)) << error;

  constexpr std::uint32_t kMns = 300;
  const auto drive_and_check = [&](std::uint64_t k) {
    std::map<std::string, std::uint64_t> before;
    for (const auto& [name, node] : nodes) {
      before[name] = node->server->stats().lus;
    }
    std::map<std::string, std::uint64_t> expected;
    for (std::uint32_t mn = 0; mn < kMns; ++mn) {
      ++expected[router.owner(mn)];
      ASSERT_TRUE(router.submit(walk_lu(mn, k)));
    }
    ASSERT_TRUE(router.tick(static_cast<double>(k), k));
    for (const auto& [name, node] : nodes) {
      EXPECT_EQ(node->server->stats().lus - before[name], expected[name])
          << "shard " << name << " at tick " << k;
      // This tick's received LUs are exactly the MNs the ring gives it.
      std::vector<std::uint32_t> fresh;
      for (const serve::DirectoryEntry& entry : node->directory->snapshot()) {
        if (entry.t == static_cast<double>(k) && !entry.estimated) {
          fresh.push_back(entry.mn);
        }
      }
      std::vector<std::uint32_t> owned;
      for (std::uint32_t mn = 0; mn < kMns; ++mn) {
        if (router.owner(mn) == name) owned.push_back(mn);
      }
      std::sort(fresh.begin(), fresh.end());
      EXPECT_EQ(fresh, owned) << "shard " << name << " at tick " << k;
    }
  };

  drive_and_check(1);
  EXPECT_EQ(router.shard_names(), (std::vector<std::string>{"m", "z"}));

  ASSERT_TRUE(router.add_shard(config("a"), &error)) << error;
  EXPECT_EQ(router.shard_names(), (std::vector<std::string>{"a", "m", "z"}));
  drive_and_check(2);

  ASSERT_TRUE(router.remove_shard("m"));
  EXPECT_EQ(router.shard_names(), (std::vector<std::string>{"a", "z"}));
  drive_and_check(3);

  // Every shard that is in the ring took a share at every step.
  EXPECT_GT(nodes.at("a")->server->stats().lus, 0u);
  EXPECT_EQ(router.stats().lus_dropped, 0u);
  router.stop();
}

}  // namespace
}  // namespace mgrid::cluster
