#include "serve/ingest.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/directory.h"
#include "serve/wire.h"

namespace mgrid::serve {
namespace {

DirectoryOptions directory_options(std::size_t shards = 4) {
  DirectoryOptions options;
  options.shards = shards;
  return options;
}

wire::LuMsg lu(std::uint32_t mn, double t, double x, double y) {
  wire::LuMsg msg;
  msg.mn = mn;
  msg.t = t;
  msg.x = x;
  msg.y = y;
  return msg;
}

/// One LU per MN per tick for `ticks` ticks; per-MN timestamps ascend.
std::vector<wire::LuMsg> make_stream(std::uint32_t nodes, int ticks) {
  std::vector<wire::LuMsg> stream;
  for (int k = 1; k <= ticks; ++k) {
    for (std::uint32_t mn = 0; mn < nodes; ++mn) {
      stream.push_back(lu(mn, static_cast<double>(k),
                          static_cast<double>(mn) + static_cast<double>(k),
                          static_cast<double>(mn)));
    }
  }
  return stream;
}

TEST(IngestPipeline, ValidatesOptions) {
  ShardedDirectory directory(directory_options());
  IngestOptions zero_sources;
  zero_sources.sources = 0;
  EXPECT_THROW(IngestPipeline(directory, zero_sources),
               std::invalid_argument);
  IngestOptions zero_workers;
  zero_workers.workers = 0;
  EXPECT_THROW(IngestPipeline(directory, zero_workers),
               std::invalid_argument);
  IngestOptions zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_THROW(IngestPipeline(directory, zero_batch), std::invalid_argument);
}

TEST(IngestPipeline, FlushIsABarrier) {
  ShardedDirectory directory(directory_options());
  IngestOptions options;
  options.workers = 2;
  IngestPipeline pipeline(directory, options);
  const std::vector<wire::LuMsg> stream = make_stream(50, 3);
  for (const wire::LuMsg& msg : stream) {
    ASSERT_TRUE(pipeline.submit(msg));
  }
  pipeline.flush();
  // After the barrier every accepted LU is visible in the directory.
  const IngestStats stats = pipeline.stats();
  EXPECT_EQ(stats.accepted, stream.size());
  EXPECT_EQ(stats.applied, stream.size());
  EXPECT_EQ(stats.rejected_stale, 0u);
  EXPECT_EQ(directory.size(), 50u);
  for (std::uint32_t mn = 0; mn < 50; ++mn) {
    const auto entry = directory.lookup(mn);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->t, 3.0);
    EXPECT_EQ(entry->position.x, static_cast<double>(mn) + 3.0);
  }
  pipeline.stop();
}

TEST(IngestPipeline, FinalStateIndependentOfWorkerAndSourceCount) {
  const std::vector<wire::LuMsg> stream = make_stream(120, 5);
  std::vector<std::vector<DirectoryEntry>> snapshots;
  for (const auto& [sources, workers] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {8, 1}, {8, 4}, {3, 7}}) {
    ShardedDirectory directory(directory_options());
    IngestOptions options;
    options.sources = sources;
    options.workers = workers;
    options.batch_size = 16;
    IngestPipeline pipeline(directory, options);
    for (const wire::LuMsg& msg : stream) ASSERT_TRUE(pipeline.submit(msg));
    pipeline.stop();  // stop() drains everything queued first
    EXPECT_EQ(pipeline.stats().applied, stream.size());
    snapshots.push_back(directory.snapshot());
  }
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    ASSERT_EQ(snapshots[i].size(), snapshots[0].size());
    for (std::size_t j = 0; j < snapshots[i].size(); ++j) {
      EXPECT_EQ(snapshots[i][j].mn, snapshots[0][j].mn);
      EXPECT_EQ(snapshots[i][j].t, snapshots[0][j].t);
      EXPECT_EQ(snapshots[i][j].position.x, snapshots[0][j].position.x);
      EXPECT_EQ(snapshots[i][j].position.y, snapshots[0][j].position.y);
    }
  }
}

TEST(IngestPipeline, StaleLusAreCountedNotApplied) {
  ShardedDirectory directory(directory_options());
  IngestPipeline pipeline(directory, IngestOptions{});
  ASSERT_TRUE(pipeline.submit(lu(1, 5.0, 10.0, 0.0)));
  ASSERT_TRUE(pipeline.submit(lu(1, 4.0, 99.0, 0.0)));  // regression
  ASSERT_TRUE(pipeline.submit(lu(1, 6.0, 12.0, 0.0)));
  pipeline.flush();
  const IngestStats stats = pipeline.stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.rejected_stale, 1u);
  EXPECT_EQ(directory.lookup(1)->position.x, 12.0);
  pipeline.stop();
}

TEST(IngestPipeline, BoundedQueueRejectsWhenFull) {
  ShardedDirectory directory(directory_options());
  IngestOptions options;
  options.sources = 1;
  options.workers = 1;
  options.queue_capacity = 4;
  options.start_paused = true;  // workers parked: the queue must fill
  IngestPipeline pipeline(directory, options);
  std::uint64_t accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (pipeline.submit(lu(0, static_cast<double>(i + 1), 0.0, 0.0))) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 4u);
  const IngestStats stats = pipeline.stats();
  EXPECT_EQ(stats.rejected_full, 6u);
  pipeline.flush();
  EXPECT_EQ(pipeline.stats().applied, 4u);
  pipeline.stop();
}

TEST(IngestPipeline, StartPausedDefersWorkUntilResume) {
  ShardedDirectory directory(directory_options());
  IngestOptions options;
  options.start_paused = true;
  IngestPipeline pipeline(directory, options);
  for (const wire::LuMsg& msg : make_stream(20, 2)) {
    ASSERT_TRUE(pipeline.submit(msg));
  }
  // Parked workers must not have touched the directory yet. (No sleep: a
  // racing worker would trip the TSan run, and the applied counter is the
  // observable contract.)
  EXPECT_EQ(pipeline.stats().applied, 0u);
  EXPECT_EQ(directory.size(), 0u);
  pipeline.resume();
  pipeline.flush();
  EXPECT_EQ(pipeline.stats().applied, 40u);
  EXPECT_EQ(directory.size(), 20u);
  pipeline.stop();
}

TEST(IngestPipeline, SubmitAfterStopIsRejected) {
  ShardedDirectory directory(directory_options());
  IngestPipeline pipeline(directory, IngestOptions{});
  ASSERT_TRUE(pipeline.submit(lu(0, 1.0, 0.0, 0.0)));
  pipeline.stop();
  EXPECT_FALSE(pipeline.submit(lu(0, 2.0, 0.0, 0.0)));
  EXPECT_EQ(pipeline.stats().applied, 1u);
  pipeline.stop();  // idempotent
}

TEST(IngestPipeline, ConcurrentProducersAllLand) {
  ShardedDirectory directory(directory_options(8));
  IngestOptions options;
  options.sources = 8;
  options.workers = 3;
  IngestPipeline pipeline(directory, options);
  constexpr int kProducers = 4;
  constexpr std::uint32_t kPerProducer = 250;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pipeline, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        const std::uint32_t mn =
            static_cast<std::uint32_t>(p) * kPerProducer + i;
        EXPECT_TRUE(pipeline.submit(lu(mn, 1.0, static_cast<double>(mn), 0.0)));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  pipeline.flush();
  EXPECT_EQ(pipeline.stats().applied, kProducers * kPerProducer);
  EXPECT_EQ(directory.size(), kProducers * kPerProducer);
  pipeline.stop();
}

TEST(IngestPipeline, LoneLuBecomesVisibleWithoutFlush) {
  // A quiet server: each LU lands on a worker that has parked, so only the
  // submit's ring can get it applied. A lost ring shows as a timeout.
  ShardedDirectory directory(directory_options());
  IngestOptions options;
  options.sources = 3;
  options.workers = 3;
  IngestPipeline pipeline(directory, options);
  const auto visible = [&](std::uint32_t mn, double t) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < deadline) {
      const auto entry = directory.lookup(mn);
      if (entry.has_value() && entry->t == t) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return false;
  };
  for (int round = 1; round <= 3; ++round) {
    const double t = static_cast<double>(round);
    for (std::uint32_t mn = 0; mn < 3; ++mn) {
      // Long past any linger: the owning worker is parked by now.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ASSERT_TRUE(pipeline.submit(lu(mn, t, t, 0.0)));
      EXPECT_TRUE(visible(mn, t)) << "mn " << mn << " round " << round;
    }
  }
  pipeline.stop();  // the counters trail the apply a lookup sees
  EXPECT_EQ(pipeline.stats().applied, 9u);
}

TEST(IngestPipeline, ConcurrentFlushReachesSerialReplayState) {
  // Producers and a second thread calling flush() over and over: flushing
  // callers and workers take batches from the same queues, and per-MN
  // order must survive that for any worker count.
  constexpr std::uint32_t kProducers = 3;
  constexpr std::uint32_t kNodesPerProducer = 40;
  constexpr int kTicks = 30;
  std::vector<std::vector<wire::LuMsg>> streams(kProducers);
  for (int k = 1; k <= kTicks; ++k) {
    for (std::uint32_t p = 0; p < kProducers; ++p) {
      for (std::uint32_t i = 0; i < kNodesPerProducer; ++i) {
        const std::uint32_t mn = p * kNodesPerProducer + i;
        streams[p].push_back(lu(mn, static_cast<double>(k),
                                static_cast<double>(mn * 7 + k),
                                static_cast<double>(k % 5)));
      }
    }
  }
  // Serial reference: each producer's stream applied in order (producers
  // own disjoint MNs, so their interleaving does not matter).
  ShardedDirectory reference(directory_options());
  for (const std::vector<wire::LuMsg>& stream : streams) {
    for (const wire::LuMsg& msg : stream) {
      ASSERT_TRUE(reference.update(msg.mn, msg.t, {msg.x, msg.y},
                                   {msg.vx, msg.vy}));
    }
  }
  const std::vector<DirectoryEntry> expected = reference.snapshot();

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ShardedDirectory directory(directory_options());
    IngestOptions options;
    options.sources = 4;
    options.workers = workers;
    options.batch_size = 8;
    IngestPipeline pipeline(directory, options);
    std::atomic<bool> producing{true};
    std::thread flusher([&] {
      while (producing.load()) pipeline.flush();
    });
    std::vector<std::thread> producers;
    for (const std::vector<wire::LuMsg>& stream : streams) {
      producers.emplace_back([&pipeline, &stream] {
        for (const wire::LuMsg& msg : stream) {
          EXPECT_TRUE(pipeline.submit(msg));
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
    producing.store(false);
    flusher.join();
    pipeline.flush();

    const IngestStats stats = pipeline.stats();
    EXPECT_EQ(stats.accepted, kProducers * kNodesPerProducer * kTicks);
    EXPECT_EQ(stats.applied, stats.accepted) << "workers=" << workers;
    EXPECT_EQ(stats.rejected_stale, 0u) << "an LU overtook an older one";
    EXPECT_EQ(pipeline.pending(), 0u);
    const std::vector<DirectoryEntry> actual = directory.snapshot();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t j = 0; j < actual.size(); ++j) {
      EXPECT_EQ(actual[j].mn, expected[j].mn);
      EXPECT_EQ(actual[j].t, expected[j].t);
      EXPECT_EQ(actual[j].position.x, expected[j].position.x);
      EXPECT_EQ(actual[j].position.y, expected[j].position.y);
    }
    pipeline.stop();
  }
}

TEST(IngestPipeline, ReportsQueueDepthsAndPending) {
  ShardedDirectory directory(directory_options());
  IngestOptions options;
  options.sources = 4;
  options.start_paused = true;
  IngestPipeline pipeline(directory, options);

  // mn % sources routes: mn 0 and 4 → queue 0, mn 1 → queue 1.
  ASSERT_TRUE(pipeline.submit(lu(0, 1.0, 0.0, 0.0)));
  ASSERT_TRUE(pipeline.submit(lu(4, 1.0, 0.0, 0.0)));
  ASSERT_TRUE(pipeline.submit(lu(1, 1.0, 0.0, 0.0)));
  const std::vector<std::size_t> depths = pipeline.queue_depths();
  ASSERT_EQ(depths.size(), 4u);
  EXPECT_EQ(depths[0], 2u);
  EXPECT_EQ(depths[1], 1u);
  EXPECT_EQ(depths[2], 0u);
  EXPECT_EQ(pipeline.pending(), 3u);

  pipeline.flush();
  EXPECT_EQ(pipeline.pending(), 0u);
  for (const std::size_t depth : pipeline.queue_depths()) {
    EXPECT_EQ(depth, 0u);
  }
  pipeline.stop();
}

TEST(IngestPipeline, BackpressureTelemetryLandsInTheOwnersRegistry) {
  obs::ScopedEnable on;
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(registry);

  ShardedDirectory directory(directory_options());
  IngestOptions options;
  options.sources = 2;
  options.queue_capacity = 8;
  options.start_paused = true;
  IngestPipeline pipeline(directory, options);

  // Fill queue 0 to capacity, then overflow it twice.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pipeline.submit(lu(0, static_cast<double>(i + 1), 0.0, 0.0)));
  }
  EXPECT_FALSE(pipeline.submit(lu(0, 99.0, 0.0, 0.0)));
  EXPECT_FALSE(pipeline.submit(lu(0, 99.5, 0.0, 0.0)));
  // One stale LU on queue 1 (timestamp regression for mn 1).
  ASSERT_TRUE(pipeline.submit(lu(1, 5.0, 0.0, 0.0)));
  ASSERT_TRUE(pipeline.submit(lu(1, 4.0, 0.0, 0.0)));
  // Flush from a thread whose current registry is another one: the LUs the
  // flushing caller applies must still count in the owner's registry.
  obs::MetricsRegistry other;
  std::thread flusher([&] {
    const obs::ScopedRegistry elsewhere(other);
    pipeline.flush();
  });
  flusher.join();
  const obs::MetricsSnapshot stray = other.snapshot();
  for (const char* name :
       {"mgrid_serve_updates_total", "mgrid_serve_updates_rejected_total"}) {
    const obs::MetricSample* sample = stray.find(name);
    EXPECT_TRUE(sample == nullptr || sample->value == 0.0)
        << name << " leaked into the flushing thread's registry";
  }

  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const obs::MetricSample* updates = snapshot.find("mgrid_serve_updates_total");
  ASSERT_NE(updates, nullptr);
  EXPECT_DOUBLE_EQ(updates->value, 9.0);
  const obs::MetricSample* accepted =
      snapshot.find("mgrid_ingest_accepted_total");
  ASSERT_NE(accepted, nullptr);
  EXPECT_DOUBLE_EQ(accepted->value, 10.0);

  const obs::MetricSample* full = snapshot.find(
      "mgrid_ingest_rejected_total", {{"reason", "full"}});
  ASSERT_NE(full, nullptr);
  EXPECT_DOUBLE_EQ(full->value, 2.0);
  const obs::MetricSample* stale = snapshot.find(
      "mgrid_ingest_rejected_total", {{"reason", "stale"}});
  ASSERT_NE(stale, nullptr);
  EXPECT_DOUBLE_EQ(stale->value, 1.0);

  const obs::MetricSample* latency =
      snapshot.find("mgrid_ingest_enqueue_to_apply_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 10u);
  EXPECT_GE(latency->min, 0.0);

  const obs::MetricSample* batch =
      snapshot.find("mgrid_ingest_batch_size");
  ASSERT_NE(batch, nullptr);
  EXPECT_GE(batch->count, 1u);
  EXPECT_GE(batch->max, 1.0);

  // One depth gauge per source; drained back to 0 after the flush.
  for (const char* source : {"0", "1"}) {
    const obs::MetricSample* depth = snapshot.find(
        "mgrid_ingest_queue_depth", {{"source", source}});
    ASSERT_NE(depth, nullptr) << "missing gauge for source " << source;
    EXPECT_DOUBLE_EQ(depth->value, 0.0);
  }
  pipeline.stop();
}

TEST(IngestPipeline, BackpressureHookSeesEveryBatch) {
  obs::ScopedEnable on;  // latency stamping is gated on obs::enabled()
  ShardedDirectory directory(directory_options());
  IngestOptions options;
  options.batch_size = 16;
  std::atomic<std::uint64_t> hook_lus{0};
  std::atomic<std::uint64_t> hook_calls{0};
  std::atomic<bool> negative_latency{false};
  options.backpressure_hook = [&](std::size_t batch, double seconds) {
    hook_calls.fetch_add(1);
    hook_lus.fetch_add(batch);
    if (seconds < 0.0) negative_latency.store(true);
  };
  IngestPipeline pipeline(directory, options);
  const std::vector<wire::LuMsg> stream = make_stream(40, 2);
  for (const wire::LuMsg& msg : stream) ASSERT_TRUE(pipeline.submit(msg));
  pipeline.flush();

  EXPECT_EQ(hook_lus.load(), stream.size());
  EXPECT_GE(hook_calls.load(), stream.size() / options.batch_size);
  EXPECT_FALSE(negative_latency.load());
  pipeline.stop();
}

TEST(IngestPipeline, DisabledTelemetryRecordsNothing) {
  ASSERT_FALSE(obs::enabled());  // default off
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(registry);
  ShardedDirectory directory(directory_options());
  IngestPipeline pipeline(directory, IngestOptions{});
  for (const wire::LuMsg& msg : make_stream(10, 2)) {
    ASSERT_TRUE(pipeline.submit(msg));
  }
  pipeline.flush();
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_DOUBLE_EQ(snapshot.find("mgrid_ingest_accepted_total")->value, 0.0);
  EXPECT_EQ(snapshot.find("mgrid_ingest_enqueue_to_apply_seconds")->count,
            0u);
  // The lock-free stats still work with telemetry off.
  EXPECT_EQ(pipeline.stats().applied, 20u);
  pipeline.stop();
}

}  // namespace
}  // namespace mgrid::serve
