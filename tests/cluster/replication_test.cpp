#include "cluster/replication.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client.h"
#include "cluster/lu_server.h"
#include "cluster/router.h"
#include "estimation/estimator.h"
#include "obs/span.h"
#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/wal.h"
#include "serve/wire.h"
#include "../scratch_path.h"

namespace mgrid::cluster {
namespace {

namespace fs = std::filesystem;

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

void expect_identical(const serve::ShardedDirectory& a,
                      const serve::ShardedDirectory& b) {
  const std::vector<serve::DirectoryEntry> sa = a.snapshot();
  const std::vector<serve::DirectoryEntry> sb = b.snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].mn, sb[i].mn);
    EXPECT_EQ(sa[i].t, sb[i].t) << "mn " << sa[i].mn;
    EXPECT_EQ(sa[i].position.x, sb[i].position.x) << "mn " << sa[i].mn;
    EXPECT_EQ(sa[i].position.y, sb[i].position.y) << "mn " << sa[i].mn;
    EXPECT_EQ(sa[i].estimated, sb[i].estimated) << "mn " << sa[i].mn;
  }
}

/// A primary shard: directory + WAL + pipeline whose lu_tap feeds the hub +
/// LU server that hands kSubscribe sockets to it. `spans`, when set, is the
/// pipeline's span tracer.
struct Primary {
  std::string wal_dir;
  std::unique_ptr<serve::ShardedDirectory> directory = make_directory();
  std::unique_ptr<ReplicationHub> hub;
  std::unique_ptr<serve::WalWriter> wal;
  std::unique_ptr<serve::IngestPipeline> pipeline;
  std::unique_ptr<LuServer> server;

  explicit Primary(const std::string& dir, obs::SpanTracer* spans = nullptr)
      : wal_dir(dir) {
    fs::remove_all(wal_dir);
    fs::create_directories(wal_dir);
    hub = std::make_unique<ReplicationHub>(*directory);
    wal = std::make_unique<serve::WalWriter>(wal_dir + "/wal.log",
                                             serve::FsyncPolicy::kNever);
    serve::IngestOptions ingest;
    ingest.sources = 3;
    ingest.workers = 2;
    ingest.wal = wal.get();
    ingest.spans = spans;
    ingest.lu_tap = [this](const wire::LuMsg& msg) { hub->on_lu(msg); };
    pipeline = std::make_unique<serve::IngestPipeline>(*directory, ingest);
    LuServerHooks hooks;
    hooks.directory = directory.get();
    hooks.pipeline = pipeline.get();
    hooks.wal = wal.get();
    hooks.replication = hub.get();
    server = std::make_unique<LuServer>(LuServerOptions{}, hooks);
    server->start();
  }
  ~Primary() {
    server->stop();
    hub->stop();
    pipeline->stop();
    fs::remove_all(wal_dir);
  }
};

/// Polls `predicate` with a wall deadline — replication is asynchronous, so
/// assertions about the follower's progress must wait for delivery.
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

void drive_ticks(ShardClient& client, std::uint64_t first, std::uint64_t last,
                 std::uint32_t nodes) {
  for (std::uint64_t k = first; k <= last; ++k) {
    std::vector<wire::LuMsg> batch;
    for (std::uint32_t mn = 0; mn < nodes; ++mn) {
      if (mn == 0 && k % 2 == 1) continue;
      batch.push_back(walk_lu(mn, k));
    }
    ASSERT_TRUE(client.send_lus(batch));
    ASSERT_TRUE(client.tick(static_cast<double>(k), k));
  }
}

TEST(Replication, MidStreamFollowerConvergesBitExact) {
  Primary primary(
      test::scratch_path("repl_midstream_test"));
  ShardClientOptions driver_options;
  driver_options.port = primary.server->port();
  ShardClient driver(driver_options);
  std::string error;
  ASSERT_TRUE(driver.connect(&error)) << error;

  constexpr std::uint32_t kNodes = 6;
  // History the follower will have to bootstrap from a snapshot.
  drive_ticks(driver, 1, 5, kNodes);

  const std::unique_ptr<serve::ShardedDirectory> follower_dir =
      make_directory();
  FollowerOptions follower_options;
  follower_options.port = primary.server->port();
  Follower follower(*follower_dir, follower_options);
  ASSERT_TRUE(follower.connect(&error)) << error;
  std::thread runner([&follower] { follower.run(); });

  // Wait for the server to hand the subscriber to the hub, so the very next
  // barrier (tick 6) bootstraps it — making the snapshot boundary
  // deterministic for the assertions below.
  ASSERT_TRUE(eventually([&primary] {
    const ReplicationHub::Stats stats = primary.hub->stats();
    return stats.pending + stats.subscribers >= 1;
  }));

  drive_ticks(driver, 6, 12, kNodes);
  ASSERT_TRUE(primary.hub->drain());
  ASSERT_TRUE(eventually(
      [&follower] { return follower.stats().last_tick == 12; }))
      << "follower stalled: " << follower.last_error();

  follower.stop();
  runner.join();

  const Follower::Stats stats = follower.stats();
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_GT(stats.snapshot_bytes, 0u);
  EXPECT_EQ(stats.tracks_restored, kNodes);  // all MNs active by tick 6
  EXPECT_EQ(stats.ticks_applied, 6u);        // barriers 7..12 streamed
  EXPECT_EQ(stats.lus_rejected, 0u);
  EXPECT_EQ(stats.last_tick_t, 12.0);

  // The determinism gate: follower == primary to the bit (0 m deviation).
  expect_identical(*primary.directory, *follower_dir);

  // Estimator internals replicated exactly too: both sides forecast the
  // same positions past the end of the stream.
  primary.directory->advance_estimates(15.0);
  follower_dir->advance_estimates(15.0);
  expect_identical(*primary.directory, *follower_dir);

  const ReplicationHub::Stats hub_stats = primary.hub->stats();
  EXPECT_EQ(hub_stats.attached_total, 1u);
  EXPECT_EQ(hub_stats.dropped_slow, 0u);
  EXPECT_GT(hub_stats.bytes_streamed, 0u);
}

TEST(Replication, FollowerAttachedBeforeAnyDataStartsEmpty) {
  Primary primary(
      test::scratch_path("repl_fresh_test"));
  ShardClientOptions driver_options;
  driver_options.port = primary.server->port();
  ShardClient driver(driver_options);
  ASSERT_TRUE(driver.connect());

  const std::unique_ptr<serve::ShardedDirectory> follower_dir =
      make_directory();
  FollowerOptions follower_options;
  follower_options.port = primary.server->port();
  Follower follower(*follower_dir, follower_options);
  std::string error;
  ASSERT_TRUE(follower.connect(&error)) << error;
  std::thread runner([&follower] { follower.run(); });
  ASSERT_TRUE(eventually([&primary] {
    const ReplicationHub::Stats stats = primary.hub->stats();
    return stats.pending + stats.subscribers >= 1;
  }));

  drive_ticks(driver, 1, 8, 5);
  ASSERT_TRUE(primary.hub->drain());
  ASSERT_TRUE(eventually(
      [&follower] { return follower.stats().last_tick == 8; }))
      << "follower stalled: " << follower.last_error();
  follower.stop();
  runner.join();

  const Follower::Stats stats = follower.stats();
  EXPECT_TRUE(stats.snapshot_loaded);
  // The bootstrap snapshot was empty (taken at tick 1 with the stream
  // racing in behind it, or at worst covered tick 1): everything else
  // arrived as live LUs.
  EXPECT_GT(stats.lus_applied, 0u);
  expect_identical(*primary.directory, *follower_dir);
}

TEST(Replication, StoppingTheFollowerDetachesItFromTheHub) {
  Primary primary(
      test::scratch_path("repl_detach_test"));
  ShardClientOptions driver_options;
  driver_options.port = primary.server->port();
  ShardClient driver(driver_options);
  ASSERT_TRUE(driver.connect());

  const std::unique_ptr<serve::ShardedDirectory> follower_dir =
      make_directory();
  FollowerOptions follower_options;
  follower_options.port = primary.server->port();
  Follower follower(*follower_dir, follower_options);
  ASSERT_TRUE(follower.connect());
  std::thread runner([&follower] { follower.run(); });
  ASSERT_TRUE(eventually([&primary] {
    const ReplicationHub::Stats stats = primary.hub->stats();
    return stats.pending + stats.subscribers >= 1;
  }));
  drive_ticks(driver, 1, 3, 4);

  follower.stop();
  runner.join();

  // The hub notices the dead socket at the next write and reaps it.
  drive_ticks(driver, 4, 6, 4);
  ASSERT_TRUE(eventually([&primary] {
    const ReplicationHub::Stats stats = primary.hub->stats();
    return stats.subscribers == 0 && stats.pending == 0;
  }));
  EXPECT_GE(primary.hub->stats().detached_total, 1u);
}

// stop() from the follower side while run() may be closing the connection
// itself: mid-stream, and while the primary hangs up at the same moment.
// Under the tsan preset this is the race check for stop() against run().
TEST(Replication, StoppingALiveFollowerRacesNeitherStreamNorHangUp) {
  for (int round = 0; round < 4; ++round) {
    Primary primary(
        test::scratch_path("repl_stop_race_test_" + std::to_string(round)));
    ShardClientOptions driver_options;
    driver_options.port = primary.server->port();
    ShardClient driver(driver_options);
    ASSERT_TRUE(driver.connect());

    const std::unique_ptr<serve::ShardedDirectory> follower_dir =
        make_directory();
    FollowerOptions follower_options;
    follower_options.port = primary.server->port();
    Follower follower(*follower_dir, follower_options);
    ASSERT_TRUE(follower.connect());
    std::thread runner([&follower] { follower.run(); });
    ASSERT_TRUE(eventually([&primary] {
      const ReplicationHub::Stats stats = primary.hub->stats();
      return stats.pending + stats.subscribers >= 1;
    }));

    std::thread feeder([&driver] { drive_ticks(driver, 1, 30, 16); });
    if (round % 2 == 0) {
      follower.stop();  // mid-stream
      feeder.join();
    } else {
      feeder.join();
      std::thread hang_up([&primary] { primary.hub->stop(); });
      follower.stop();
      hang_up.join();
    }
    runner.join();
    EXPECT_LE(follower.stats().last_tick, 30u);
  }
}

/// What the shard and follower tracers saw of one traced cluster run.
struct TracedRun {
  /// Trace ids the router's sampler selects: SpanTracer::trace_id(
  /// kClusterTraceSource, mn, seq) % 4 == 0 over every submitted LU.
  std::set<std::uint64_t> sampled;
  obs::SpanSnapshot shard;
  obs::SpanSnapshot follower;
};

/// Router (cluster sample period 4) -> one primary -> one follower
/// subscribed before any traffic. The shard and follower tracers run with
/// sample_period 0, so whatever they record was propagated from the router;
/// `hops_enabled` switches both of them on or off.
TracedRun run_traced_cluster(const std::string& dir, bool hops_enabled) {
  TracedRun run;
  obs::SpanTracerOptions hop_options;
  hop_options.sample_period = 0;
  hop_options.emit_trace_events = false;
  obs::SpanTracer shard_tracer(hop_options);
  obs::SpanTracer follower_tracer(hop_options);
  shard_tracer.set_enabled(hops_enabled);
  follower_tracer.set_enabled(hops_enabled);

  Primary primary(dir, &shard_tracer);
  const std::unique_ptr<serve::ShardedDirectory> follower_dir =
      make_directory();
  FollowerOptions follower_options;
  follower_options.port = primary.server->port();
  follower_options.spans = &follower_tracer;
  Follower follower(*follower_dir, follower_options);
  std::string error;
  if (!follower.connect(&error)) {
    ADD_FAILURE() << "follower connect: " << error;
    return run;
  }
  std::thread runner([&follower] { follower.run(); });
  EXPECT_TRUE(eventually([&primary] {
    const ReplicationHub::Stats stats = primary.hub->stats();
    return stats.pending + stats.subscribers >= 1;
  }));

  obs::SpanTracerOptions router_span_options;
  router_span_options.sample_period = 4;
  router_span_options.emit_trace_events = false;
  obs::SpanTracer router_tracer(router_span_options);
  router_tracer.set_enabled(true);
  RouterOptions router_options;
  router_options.health_period_seconds = 0.0;
  router_options.spans = &router_tracer;
  RouterShardConfig shard;
  shard.name = "shard-0";
  shard.lu_port = primary.server->port();
  Router router(router_options, {shard});
  EXPECT_TRUE(router.start(&error)) << error;

  // An empty first barrier bootstraps the follower, so every LU after it
  // reaches the follower as a stream frame rather than inside the snapshot.
  EXPECT_TRUE(router.tick(0.0, 0));
  constexpr std::uint32_t kNodes = 24;
  constexpr std::uint64_t kTicks = 12;
  for (std::uint64_t k = 1; k <= kTicks; ++k) {
    for (std::uint32_t mn = 0; mn < kNodes; ++mn) {
      const wire::LuMsg lu = walk_lu(mn, k);
      const std::uint64_t id =
          obs::SpanTracer::trace_id(obs::kClusterTraceSource, lu.mn, lu.seq);
      if (id % 4 == 0) run.sampled.insert(id);
      EXPECT_TRUE(router.submit(lu));
    }
    EXPECT_TRUE(router.tick(static_cast<double>(k), k));
  }
  EXPECT_TRUE(primary.hub->drain());
  EXPECT_TRUE(eventually(
      [&follower] { return follower.stats().last_tick == kTicks; }))
      << "follower stalled: " << follower.last_error();
  follower.stop();
  runner.join();
  router.stop();

  expect_identical(*primary.directory, *follower_dir);
  run.shard = shard_tracer.snapshot();
  run.follower = follower_tracer.snapshot();
  return run;
}

std::set<std::uint64_t> trace_ids(const obs::SpanSnapshot& snapshot) {
  std::set<std::uint64_t> ids;
  for (const obs::LuSpan& span : snapshot.recent) ids.insert(span.trace_id);
  return ids;
}

/// Spans recorded under `sli` (0 when the SLI is unknown).
std::uint64_t recorded(const obs::SpanSnapshot& snapshot,
                       const std::string& sli) {
  for (const obs::SliSpans& entry : snapshot.slis) {
    if (entry.name == sli) return entry.recorded;
  }
  return 0;
}

TEST(Replication, SampledLuKeepsOneTraceIdFromRouterToFollower) {
  const TracedRun run = run_traced_cluster(
      test::scratch_path("repl_trace_test"),
      /*hops_enabled=*/true);
  ASSERT_FALSE(run.sampled.empty());

  // The shard records exactly the router's sampled set under
  // update_latency, each span tiled by its stages.
  EXPECT_EQ(trace_ids(run.shard), run.sampled);
  EXPECT_EQ(recorded(run.shard, "update_latency"), run.sampled.size());
  for (const obs::LuSpan& span : run.shard.recent) {
    double sum = 0.0;
    for (const double stage : span.stage_seconds) sum += stage;
    EXPECT_EQ(sum, span.total_seconds) << "trace " << span.trace_id;
  }

  // The follower closes the same traces under follower_apply.
  EXPECT_EQ(trace_ids(run.follower), run.sampled);
  EXPECT_EQ(recorded(run.follower, "follower_apply"), run.sampled.size());
}

// A disabled tracer on a hop must not record propagated spans: the traced
// frames still flow (and apply identically), but neither the shard's
// pipeline nor the follower reads a clock or fills its ring for them.
TEST(Replication, DisabledHopTracersRecordNoPropagatedSpans) {
  const TracedRun run = run_traced_cluster(
      test::scratch_path("repl_trace_off_test"),
      /*hops_enabled=*/false);
  ASSERT_FALSE(run.sampled.empty());
  EXPECT_EQ(run.shard.sampled, 0u);
  EXPECT_TRUE(run.shard.recent.empty());
  EXPECT_EQ(run.follower.sampled, 0u);
  EXPECT_TRUE(run.follower.recent.empty());
}

}  // namespace
}  // namespace mgrid::cluster
