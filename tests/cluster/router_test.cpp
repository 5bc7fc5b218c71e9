#include "cluster/router.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "cluster/client.h"
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

/// A scripted shard: a plain loopback listener that speaks just enough
/// mgrid-lu-v1 to drive the router's fan-out into its failure cases. It
/// serves one connection at a time (a dropped router reconnects to the
/// same listener) and records the MN of every LU it receives.
class StubShard {
 public:
  struct Script {
    /// Each kAck is held this long after its kTick arrives.
    std::chrono::milliseconds tick_delay{0};
    /// The first this-many ticks are acked kRejected.
    int reject_ticks = 0;
    /// The first this-many spatial queries get `hits` and then a closed
    /// connection instead of a kQueryDone.
    int drop_queries = 0;
    /// The kNeighbor stream every spatial query returns.
    std::vector<wire::NeighborMsg> hits;
  };

  explicit StubShard(Script script) : script_(std::move(script)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 8) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      ADD_FAILURE() << "stub shard could not listen";
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~StubShard() { close(); }

  /// Kills the shard: the live connection drops and connects are refused.
  void close() {
    if (!thread_.joinable()) return;
    stopping_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_.load(); }
  /// MNs whose LUs arrived since the last call.
  std::set<std::uint32_t> take_mns() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(mns_, {});
  }

 private:
  void serve() {
    while (!stopping_.load()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;  // shutdown() wakes accept; the loop checks
      FrameConn conn(fd, 0.05);
      while (!stopping_.load() && reply(conn)) {
      }
    }
  }

  /// Answers one frame; false once the connection is gone.
  bool reply(FrameConn& conn) {
    wire::Message msg;
    if (!conn.recv_message(msg, /*idle_ok=*/true)) return conn.timed_out();
    std::vector<std::uint8_t> out;
    if (const auto* lu = std::get_if<wire::LuMsg>(&msg)) {
      const std::lock_guard<std::mutex> lock(mutex_);
      mns_.insert(lu->mn);
      return true;
    }
    if (const auto* tick = std::get_if<wire::TickMsg>(&msg)) {
      std::this_thread::sleep_for(script_.tick_delay);
      wire::AckStatus status = wire::AckStatus::kOk;
      if (script_.reject_ticks > 0) {
        --script_.reject_ticks;
        status = wire::AckStatus::kRejected;
      }
      ticks_.fetch_add(1);
      wire::encode(out, wire::AckMsg{0, status, tick->t});
      return conn.send(out);
    }
    if (const auto* lookup = std::get_if<wire::LookupMsg>(&msg)) {
      wire::encode(out, wire::LookupReplyMsg{lookup->mn, false, false,
                                             lookup->t, 0.0, 0.0});
      return conn.send(out);
    }
    // Anything else is a spatial query.
    for (const wire::NeighborMsg& hit : script_.hits) wire::encode(out, hit);
    if (script_.drop_queries > 0) {
      --script_.drop_queries;
      conn.send(out);
      return false;  // the leg is lost before its kQueryDone
    }
    wire::encode(out, wire::QueryDoneMsg{
                          static_cast<std::uint32_t>(script_.hits.size()),
                          0.0});
    return conn.send(out);
  }

  Script script_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> ticks_{0};
  std::mutex mutex_;
  std::set<std::uint32_t> mns_;
  std::thread thread_;
};

RouterShardConfig shard_config(const std::string& name, std::uint16_t port) {
  RouterShardConfig config;
  config.name = name;
  config.lu_port = port;
  return config;
}

RouterOptions fan_out_options() {
  RouterOptions options;
  options.health_period_seconds = 0.0;
  options.io_timeout_seconds = 2.0;
  options.connect_timeout_seconds = 2.0;
  return options;
}

/// First MN in [0, 1000) the router places on `name`.
std::uint32_t mn_owned_by(const Router& router, const std::string& name) {
  for (std::uint32_t mn = 0; mn < 1000; ++mn) {
    if (router.owner(mn) == name) return mn;
  }
  ADD_FAILURE() << "no MN below 1000 on " << name;
  return 0;
}

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

// The barrier is pipelined: every shard gets its kTick before the router
// reads any ack, so two shards that each hold their ack for D finish in
// about D, where a shard-by-shard barrier takes 2D.
TEST(RouterFanOut, TickWaitsForTheSlowestShardNotTheSum) {
  constexpr auto kHold = std::chrono::milliseconds(100);
  StubShard a({kHold, 0, 0, {}});
  StubShard b({kHold, 0, 0, {}});
  Router router(fan_out_options(),
                {shard_config("a", a.port()), shard_config("b", b.port())});
  std::string error;
  ASSERT_TRUE(router.start(&error)) << error;

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(router.tick(1.0, 1));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, kHold);
  EXPECT_LT(elapsed, kHold * 3 / 2);
  EXPECT_EQ(a.ticks(), 1u);
  EXPECT_EQ(b.ticks(), 1u);
  router.stop();
}

// A dead shard fails the tick, but the live shard's barrier still runs and
// its ack is read: the next tick and a lookup on the live shard get their
// own replies, not a stale ack.
TEST(RouterFanOut, DeadShardFailsTheTickAndTheLiveShardStillAdvances) {
  StubShard dead({});
  ShardNode live;
  Router router(fan_out_options(), {shard_config("dead", dead.port()),
                                    shard_config("live", live.server->port())});
  std::string error;
  ASSERT_TRUE(router.start(&error)) << error;
  const std::uint32_t mn = mn_owned_by(router, "live");
  ASSERT_TRUE(router.submit(walk_lu(mn, 1)));
  dead.close();

  EXPECT_FALSE(router.tick(1.0, 1));
  EXPECT_EQ(live.server->stats().ticks, 1u);
  EXPECT_FALSE(router.tick(2.0, 2));  // the dead shard refuses reconnects
  EXPECT_EQ(live.server->stats().ticks, 2u);
  const auto reply = router.lookup(mn, 1.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->mn, mn);
  EXPECT_TRUE(reply->found);
  EXPECT_EQ(reply->x, live.directory->lookup(mn)->position.x);

  ASSERT_TRUE(router.remove_shard("dead"));
  EXPECT_TRUE(router.tick(3.0, 3));
  EXPECT_EQ(live.server->stats().ticks, 3u);
  EXPECT_EQ(router.stats().tick_failures, 2u);
  router.stop();
}

// A kRejected ack fails the tick without desyncing anything: the other
// shard's ack is consumed in the same tick, and the next tick succeeds.
TEST(RouterFanOut, RejectingShardFailsTheTickAndTheOtherAckIsConsumed) {
  StubShard rejecting({std::chrono::milliseconds(0), 1, 0, {}});
  ShardNode live;
  Router router(fan_out_options(),
                {shard_config("rejecting", rejecting.port()),
                 shard_config("live", live.server->port())});
  std::string error;
  ASSERT_TRUE(router.start(&error)) << error;
  const std::uint32_t mn = mn_owned_by(router, "live");
  ASSERT_TRUE(router.submit(walk_lu(mn, 1)));

  EXPECT_FALSE(router.tick(1.0, 1));
  EXPECT_EQ(rejecting.ticks(), 1u);
  EXPECT_EQ(live.server->stats().ticks, 1u);

  EXPECT_TRUE(router.tick(2.0, 2));
  EXPECT_EQ(rejecting.ticks(), 2u);
  EXPECT_EQ(live.server->stats().ticks, 2u);
  const auto reply = router.lookup(mn, 1.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->mn, mn);
  EXPECT_TRUE(reply->found);
  EXPECT_EQ(reply->x, live.directory->lookup(mn)->position.x);
  EXPECT_EQ(router.stats().tick_failures, 1u);
  router.stop();
}

// A spatial query whose first leg is lost mid-stream returns the other
// shard's hits only (none of the lost leg's partial stream), counts one
// failure, and leaves both connections in step for the next requests.
TEST(RouterFanOut, LostQueryLegReturnsTheOtherShardsHits) {
  const wire::NeighborMsg lost_hit{7, 1.0, 1.0, 0.0};
  const wire::NeighborMsg kept_hit{9, 2.0, 0.0, 2.0};
  StubShard lossy({std::chrono::milliseconds(0), 0, 1, {lost_hit}});
  StubShard steady({std::chrono::milliseconds(0), 0, 0, {kept_hit}});
  Router router(fan_out_options(), {shard_config("lossy", lossy.port()),
                                    shard_config("steady", steady.port())});
  std::string error;
  ASSERT_TRUE(router.start(&error)) << error;

  const std::vector<wire::NeighborMsg> first =
      router.query_region(0.0, 0.0, 10.0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].mn, kept_hit.mn);
  EXPECT_EQ(router.stats().query_failures, 1u);

  // The lossy shard is reconnected; both legs answer in step.
  const std::vector<wire::NeighborMsg> second =
      router.query_region(0.0, 0.0, 10.0);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].mn, lost_hit.mn);
  EXPECT_EQ(second[1].mn, kept_hit.mn);
  EXPECT_EQ(router.k_nearest(0.0, 0.0, 1).size(), 1u);
  EXPECT_TRUE(router.tick(1.0, 1));
  const auto reply = router.lookup(mn_owned_by(router, "steady"), 1.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->found);
  EXPECT_EQ(router.stats().query_failures, 1u);
  router.stop();
}

// The owner table is a memo of the ring: after every membership change
// each LU still lands on, and Router::owner still names, the shard a
// freshly built ring picks — for table ids and for ids past the table.
TEST(RouterMembership, OwnerTableAgreesWithAFreshRingAcrossJoinAndLeave) {
  std::map<std::string, std::unique_ptr<StubShard>> stubs;
  for (const char* name : {"a", "b", "c"}) {
    stubs[name] = std::make_unique<StubShard>(StubShard::Script{});
  }
  const auto config = [&](const std::string& name) {
    return shard_config(name, stubs.at(name)->port());
  };
  Router router(fan_out_options(), {config("a"), config("b")});
  std::string error;
  ASSERT_TRUE(router.start(&error)) << error;

  std::vector<std::uint32_t> mns;
  for (std::uint32_t mn = 0; mn < 5000; ++mn) mns.push_back(mn);
  for (const std::uint32_t mn : {1u << 20, (1u << 20) + 1, 0xFFFFFFFEu}) {
    mns.push_back(mn);
  }
  const auto check = [&](const std::vector<std::string>& members,
                         std::uint64_t k) {
    HashRing ring;
    for (const std::string& name : members) ring.add_node(name);
    std::map<std::string, std::set<std::uint32_t>> want;
    for (const std::uint32_t mn : mns) {
      want[ring.owner(mn)].insert(mn);
      ASSERT_EQ(router.owner(mn), ring.owner(mn)) << "mn " << mn;
      ASSERT_TRUE(router.submit(walk_lu(mn, k)));
    }
    ASSERT_TRUE(router.tick(static_cast<double>(k), k));
    for (const auto& [name, stub] : stubs) {
      EXPECT_EQ(stub->take_mns(), want[name])
          << "shard " << name << " at tick " << k;
    }
  };

  check({"a", "b"}, 1);
  ASSERT_TRUE(router.add_shard(config("c"), &error)) << error;
  check({"a", "b", "c"}, 2);
  ASSERT_TRUE(router.remove_shard("a"));
  check({"b", "c"}, 3);
  EXPECT_EQ(router.stats().lus_dropped, 0u);
  router.stop();
}

}  // namespace
}  // namespace mgrid::cluster
