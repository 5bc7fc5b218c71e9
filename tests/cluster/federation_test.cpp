#include "cluster/federation.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/lu_server.h"
#include "cluster/replication.h"
#include "cluster/router.h"
#include "estimation/estimator.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/admin.h"
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

/// One in-process shard node (no WAL — these tests are about routing and
/// observability, not durability).
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

template <typename Predicate>
bool eventually(Predicate predicate, double timeout_seconds = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Two routers over the same ring: routing and trace propagation must be
// deterministic functions of the ring, never of which router carried the LU.

TEST(TwoRouters, InterleavedRunMatchesSingleRouterBitExact) {
  constexpr std::size_t kShards = 3;
  constexpr std::uint32_t kMns = 48;
  constexpr std::uint64_t kTicks = 10;

  std::vector<std::unique_ptr<ShardNode>> nodes;
  std::vector<RouterShardConfig> configs;
  for (std::size_t i = 0; i < kShards; ++i) {
    nodes.push_back(std::make_unique<ShardNode>());
    RouterShardConfig config;
    config.name = "shard-" + std::to_string(i);
    config.lu_port = nodes.back()->server->port();
    configs.push_back(config);
  }

  // Router A traces aggressively (every 2nd sampled id), router B not at
  // all — traced and plain frames must apply identically.
  obs::SpanTracerOptions trace_options;
  trace_options.sample_period = 2;
  obs::SpanTracer tracer_a(trace_options);
  tracer_a.set_enabled(true);

  RouterOptions options;
  options.health_period_seconds = 0.0;
  options.batch_size = 16;
  RouterOptions options_a = options;
  options_a.spans = &tracer_a;
  Router router_a(options_a, configs);
  Router router_b(options, configs);
  std::string error;
  ASSERT_TRUE(router_a.start(&error)) << error;
  ASSERT_TRUE(router_b.start(&error)) << error;

  // Both routers agree on ownership for every MN: same ring, same hash.
  for (std::uint32_t mn = 0; mn < 4 * kMns; ++mn) {
    EXPECT_EQ(router_a.owner(mn), router_b.owner(mn)) << "mn " << mn;
  }

  // Reference: the identical walk through one in-process directory.
  std::unique_ptr<serve::ShardedDirectory> reference = make_directory();
  serve::IngestOptions local_options;
  local_options.sources = 3;
  local_options.workers = 2;
  serve::IngestPipeline local(*reference, local_options);

  // Partition MNs between the routers (per-MN LU order must stay FIFO, so
  // one MN sticks to one router's connection) and interleave the streams.
  // Both routers run the tick barrier; a second advance_estimates(t) at
  // the same t is a bit-exact no-op, which is what lets N routers share
  // one ring without electing a ticker.
  for (std::uint64_t k = 1; k <= kTicks; ++k) {
    for (std::uint32_t mn = 0; mn < kMns; ++mn) {
      if (mn == 0 && k % 2 == 1) continue;
      Router& via = (mn % 2 == 0) ? router_a : router_b;
      ASSERT_TRUE(via.submit(walk_lu(mn, k)));
      ASSERT_TRUE(local.submit(walk_lu(mn, k)));
    }
    ASSERT_TRUE(router_a.tick(static_cast<double>(k), k));
    ASSERT_TRUE(router_b.tick(static_cast<double>(k), k));
    local.flush();
    reference->advance_estimates(static_cast<double>(k));
  }
  local.stop();

  const std::vector<serve::DirectoryEntry> want = reference->snapshot();
  std::vector<serve::DirectoryEntry> got;
  for (const auto& node : nodes) {
    const std::vector<serve::DirectoryEntry> snap = node->directory->snapshot();
    got.insert(got.end(), snap.begin(), snap.end());
  }
  std::sort(got.begin(), got.end(),
            [](const serve::DirectoryEntry& a, const serve::DirectoryEntry& b) {
              return a.mn < b.mn;
            });
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].mn, want[i].mn);
    EXPECT_EQ(got[i].t, want[i].t) << "mn " << want[i].mn;
    EXPECT_EQ(got[i].position.x, want[i].position.x) << "mn " << want[i].mn;
    EXPECT_EQ(got[i].position.y, want[i].position.y) << "mn " << want[i].mn;
    EXPECT_EQ(got[i].estimated, want[i].estimated) << "mn " << want[i].mn;
  }

  router_a.stop();
  router_b.stop();
}

// ---------------------------------------------------------------------------
// FederationCollector against a real admin plane.

/// One fake federation target: a directory + pipeline behind a real
/// AdminServer, with a span tracer and a metrics registry the test controls.
struct FakeTarget {
  obs::MetricsRegistry registry;
  obs::Gauge lag_gauge;
  std::unique_ptr<serve::ShardedDirectory> directory = make_directory();
  std::unique_ptr<serve::IngestPipeline> pipeline;
  obs::SpanTracer tracer;
  std::unique_ptr<serve::AdminServer> admin;
  double last_tick_t = 0.0;
  std::uint64_t last_tick = 0;

  FakeTarget()
      : lag_gauge(registry.gauge("mgrid_replication_subscriber_lag_records", {},
                                 "test lag gauge")) {
    serve::IngestOptions ingest;
    ingest.sources = 2;
    ingest.workers = 1;
    pipeline = std::make_unique<serve::IngestPipeline>(*directory, ingest);
    tracer.set_enabled(true);

    serve::AdminOptions options;
    options.http.port = 0;
    serve::AdminHooks hooks;
    hooks.registry = &registry;
    hooks.directory = directory.get();
    hooks.pipeline = pipeline.get();
    hooks.spans = &tracer;
    hooks.cluster_status = [this](util::JsonWriter& json) {
      json.field("last_tick_t", last_tick_t);
      json.field("last_tick", last_tick);
    };
    admin = std::make_unique<serve::AdminServer>(std::move(options),
                                                 std::move(hooks));
    admin->start();
  }
  ~FakeTarget() {
    admin->stop();
    pipeline->stop();
  }
};

obs::LuSpan make_span(std::uint64_t trace_id, obs::LuStage stage,
                      double seconds) {
  obs::LuSpan span;
  span.trace_id = trace_id;
  span.mn = 9;
  span.seq = 3;
  span.stage_seconds[static_cast<std::size_t>(stage)] = seconds;
  span.total_seconds = seconds;
  return span;
}

TEST(Federation, ScrapesRealTargetsAndMergesCrossProcessSpans) {
  const obs::ScopedEnable telemetry;  // gauge writes are gated on obs state
  FakeTarget shard;
  FakeTarget follower;
  shard.last_tick_t = 100.0;
  shard.last_tick = 100;
  follower.last_tick_t = 99.0;
  follower.last_tick = 99;
  shard.lag_gauge.set(7.0);

  // Some accepted traffic so the statusz ingest block is non-zero.
  for (std::uint32_t mn = 0; mn < 8; ++mn) {
    ASSERT_TRUE(shard.pipeline->submit(walk_lu(mn, 1)));
  }
  shard.pipeline->flush();

  // One cluster trace, split across the two processes: the shard saw the
  // queue/wal/apply/visible part, the follower its apply.
  const std::uint64_t trace_id = 0xABCDEF0012345678ull;
  obs::LuSpan shard_part = make_span(trace_id, obs::LuStage::kQueue, 0.010);
  shard_part.stage_seconds[static_cast<std::size_t>(obs::LuStage::kApply)] =
      0.002;
  shard_part.total_seconds = 0.012;
  shard.tracer.record("update_latency", shard_part);
  follower.tracer.record("follower_apply",
                         make_span(trace_id, obs::LuStage::kFollowerApply,
                                   0.001));

  obs::SpanTracer router_tracer;
  router_tracer.set_enabled(true);

  double cluster_now = 100.5;
  FederationOptions options;
  options.spans = &router_tracer;
  options.cluster_now = [&cluster_now] { return cluster_now; };
  std::vector<FederationTarget> targets;
  targets.push_back({"shard-0", "shard", "127.0.0.1", shard.admin->port()});
  targets.push_back(
      {"follower-0", "follower", "127.0.0.1", follower.admin->port()});
  FederationCollector collector(targets, options);

  collector.scrape_once();

  const std::vector<FederationTargetStatus> status = collector.targets();
  ASSERT_EQ(status.size(), 2u);
  EXPECT_TRUE(status[0].up);
  EXPECT_TRUE(status[1].up);
  EXPECT_EQ(status[0].last_tick, 100u);
  EXPECT_EQ(status[0].last_tick_t, 100.0);
  EXPECT_EQ(status[0].lag_records, 7.0);
  EXPECT_NEAR(status[0].replication_lag_seconds, 0.5, 1e-9);
  EXPECT_NEAR(status[1].replication_lag_seconds, 1.5, 1e-9);
  EXPECT_EQ(status[0].ingest_accepted, 8.0);
  EXPECT_EQ(status[0].ingest_share, 1.0);  // only shard in the ring

  // Both halves of the trace merged under one id and the merged span was
  // recorded into the router tracer with the stage sum as its total.
  const FederationCollector::Stats stats = collector.stats();
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.traces_merged, 1u);
  EXPECT_GE(stats.spans_recorded, 1u);

  // The tracer holds the shard-only record AND the re-record after the
  // follower stage merged in; the fullest one is the cluster span tree.
  const obs::SpanSnapshot snap = router_tracer.snapshot();
  const obs::LuSpan* merged = nullptr;
  for (const obs::SliSpans& sli : snap.slis) {
    if (sli.name != "cluster_e2e") continue;
    for (const obs::LuSpan& span : sli.slowest) {
      if (span.trace_id != trace_id) continue;
      if (merged == nullptr || span.total_seconds > merged->total_seconds) {
        merged = &span;
      }
    }
  }
  ASSERT_NE(merged, nullptr)
      << "merged cluster span missing from the router tracer";
  EXPECT_NEAR(merged->total_seconds, 0.013, 1e-9);
  EXPECT_NEAR(merged->stage_seconds[static_cast<std::size_t>(
                  obs::LuStage::kFollowerApply)],
              0.001, 1e-9);
  EXPECT_NEAR(
      merged->stage_seconds[static_cast<std::size_t>(obs::LuStage::kQueue)],
      0.010, 1e-9);

  // A second scrape of the same cumulative /tracez must not re-record the
  // unchanged span (merges only count when a stage grows).
  collector.scrape_once();
  EXPECT_EQ(collector.stats().spans_recorded, stats.spans_recorded);

  // /clusterz JSON carries the schema, both targets and the trace block.
  obs::http::Request request;
  request.method = "GET";
  request.target = "/clusterz";
  request.path = "/clusterz";
  const obs::http::Response clusterz = collector.clusterz(request);
  EXPECT_EQ(clusterz.status, 200);
  const util::JsonValue doc = util::JsonValue::parse(clusterz.body);
  EXPECT_EQ(doc.at("schema").as_string(), "mgrid-clusterz-v1");
  EXPECT_EQ(doc.at("traces").number_or("merged", 0.0), 1.0);
  EXPECT_NE(clusterz.body.find("\"shard-0\""), std::string::npos);
  EXPECT_NE(clusterz.body.find("\"follower-0\""), std::string::npos);
  EXPECT_NE(clusterz.body.find("\"slo\""), std::string::npos);

  // ?format=prom re-exports the scraped series with shard=/role= labels
  // plus the derived cluster gauges.
  obs::http::Request prom_request;
  prom_request.method = "GET";
  prom_request.target = "/clusterz?format=prom";
  prom_request.path = "/clusterz";
  prom_request.query = "format=prom";
  const obs::http::Response prom = collector.clusterz(prom_request);
  EXPECT_EQ(prom.status, 200);
  EXPECT_NE(prom.body.find("mgrid_cluster_target_up{shard=\"shard-0\","
                           "role=\"shard\"} 1"),
            std::string::npos)
      << prom.body;
  EXPECT_NE(prom.body.find("mgrid_cluster_lag_records{shard=\"shard-0\","
                           "role=\"shard\"} 7"),
            std::string::npos)
      << prom.body;
  // A scraped series from the target's own registry, relabeled.
  EXPECT_NE(prom.body.find("mgrid_replication_subscriber_lag_records{"
                           "shard=\"shard-0\",role=\"shard\"}"),
            std::string::npos)
      << prom.body;
}

TEST(Federation, DeadTargetPagesAvailabilityAndRecoveryClearsIt) {
  auto target = std::make_unique<FakeTarget>();
  const std::uint16_t port = target->admin->port();

  FederationOptions options;
  options.scrape_timeout_seconds = 0.2;
  // Epochs must comfortably exceed the scrape cadence (the production
  // defaults are 1.0 s epochs against 0.5 s scrapes) or a completed epoch
  // can hold zero samples and an empty short window momentarily un-pages.
  // ~12 ms rounds against 50 ms epochs keep every epoch populated.
  options.slo.epoch_seconds = 0.05;
  options.slo.window_epochs = 8;
  options.slo.short_epochs = 2;
  std::vector<FederationTarget> targets;
  targets.push_back({"shard-0", "shard", "127.0.0.1", port});
  FederationCollector collector(targets, options);

  // Healthy rounds: ready.
  for (int i = 0; i < 5; ++i) {
    collector.scrape_once();
    std::this_thread::sleep_for(std::chrono::milliseconds(12));
  }
  std::string reason;
  EXPECT_TRUE(collector.ready(&reason)) << reason;

  // Kill the target: every scrape round fails, the availability SLI burns
  // its entire budget and the page names the target.
  target.reset();
  ASSERT_TRUE(eventually([&] {
    collector.scrape_once();
    std::this_thread::sleep_for(std::chrono::milliseconds(12));
    return !collector.ready(&reason);
  }));
  EXPECT_NE(reason.find("availability:shard-0"), std::string::npos) << reason;
  EXPECT_FALSE(collector.targets()[0].up);
  EXPECT_GT(collector.stats().scrape_failures, 0u);

  // Resurrect it on the same port: good rounds drain the short window and
  // the page clears.
  target = std::make_unique<FakeTarget>();
  // An ephemeral port can't be re-bound; re-resolve via a fresh collector
  // only if the port moved. The admin server binds port 0 again, so scrape
  // the new port through the old collector only when they match; otherwise
  // assert recovery against a new collector bound to the new port.
  if (target->admin->port() == port) {
    ASSERT_TRUE(eventually([&] {
      collector.scrape_once();
      std::this_thread::sleep_for(std::chrono::milliseconds(12));
      return collector.ready();
    }));
  } else {
    std::vector<FederationTarget> fresh;
    fresh.push_back({"shard-0", "shard", "127.0.0.1", target->admin->port()});
    FederationCollector recovered(fresh, options);
    for (int i = 0; i < 5; ++i) {
      recovered.scrape_once();
      std::this_thread::sleep_for(std::chrono::milliseconds(12));
    }
    EXPECT_TRUE(recovered.ready(&reason)) << reason;
  }
}

// ---------------------------------------------------------------------------
// Replication lag accounting: a paused subscriber grows the hub's
// subscriber_lag_records, a drained one returns it to 0.

TEST(Federation, PausedSubscriberGrowsLagAndDrainingClearsIt) {
  std::unique_ptr<serve::ShardedDirectory> directory = make_directory();
  ReplicationHub hub(*directory);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Tiny buffers so an unread peer backs the stream up into the hub's
  // user-space queue (where lag is measured) almost immediately.
  const int small = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  hub.adopt(fds[0]);
  hub.on_tick(0.0, 0, 0);  // barrier: bootstraps the subscriber (empty snap)
  ASSERT_TRUE(eventually([&] { return hub.stats().subscribers == 1; }));

  // Stream a few thousand LUs while the "follower" reads nothing.
  for (std::uint64_t k = 1; k <= 40; ++k) {
    for (std::uint32_t mn = 0; mn < 100; ++mn) hub.on_lu(walk_lu(mn, k));
    hub.on_tick(static_cast<double>(k), k, 0);
  }
  ASSERT_TRUE(eventually([&] {
    return hub.stats().subscriber_lag_records > 0;
  })) << "lag never rose on a paused subscriber";

  // Resume: drain the socket until the hub reports everything flushed.
  std::thread reader([&] {
    std::uint8_t sink[4096];
    while (true) {
      const ssize_t n = ::read(fds[1], sink, sizeof(sink));
      if (n <= 0) break;
    }
  });
  ASSERT_TRUE(hub.drain(10.0));
  // A drained stream must zero the lag (the next enqueue refreshes the
  // gauge; a tick with no traffic is exactly that).
  hub.on_tick(41.0, 41, 0);
  ASSERT_TRUE(eventually([&] {
    return hub.stats().subscriber_lag_records == 0;
  })) << "lag did not return to 0 after draining";

  hub.stop();
  reader.join();
  ::close(fds[1]);
}

}  // namespace
}  // namespace mgrid::cluster
