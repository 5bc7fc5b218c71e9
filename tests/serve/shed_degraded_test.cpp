// Overload chaos at unit scale: admission-control shedding, degraded read
// mode and the SLO monitor's multi-window paging — the pieces the serving
// driver composes when a queue-full storm hits.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/wal.h"
#include "serve/wire.h"
#include "../scratch_path.h"

namespace mgrid::serve {
namespace {

namespace fs = std::filesystem;

DirectoryOptions directory_options() {
  DirectoryOptions options;
  options.shards = 2;
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

TEST(AdmissionControl, ShedsLowInformationLusAtTheWatermark) {
  ShardedDirectory directory(directory_options());
  IngestOptions options;
  options.sources = 1;
  options.workers = 1;
  options.queue_capacity = 8;
  options.shed_watermark = 0.5;  // threshold = 4
  options.shed_min_displacement = 5.0;
  options.start_paused = true;
  IngestPipeline pipeline(directory, options);

  // Below the watermark everything is accepted, including barely-moving MNs.
  ASSERT_TRUE(pipeline.submit(lu(1, 1.0, 100.0, 100.0)));
  ASSERT_TRUE(pipeline.submit(lu(2, 1.0, 200.0, 200.0)));
  ASSERT_TRUE(pipeline.submit(lu(1, 2.0, 100.5, 100.0)));  // 0.5 m move
  ASSERT_TRUE(pipeline.submit(lu(3, 1.0, 300.0, 300.0)));
  EXPECT_FALSE(directory.degraded());

  // Depth is now 4 = the watermark: a sub-threshold displacement is shed...
  EXPECT_FALSE(pipeline.submit(lu(1, 3.0, 101.0, 100.0)));  // 0.5 m from last
  // ...a real move is not...
  EXPECT_TRUE(pipeline.submit(lu(1, 4.0, 150.0, 100.0)));
  // ...and an MN with no baseline yet cannot be judged, so it is admitted.
  EXPECT_TRUE(pipeline.submit(lu(9, 1.0, 0.0, 0.0)));

  const IngestStats stats = pipeline.stats();
  EXPECT_EQ(stats.shed_low_info, 1u);
  EXPECT_EQ(stats.rejected_full, 0u);
  EXPECT_EQ(stats.accepted, 6u);
  // Shedding flipped the directory into degraded read mode; draining the
  // backlog clears it.
  EXPECT_TRUE(directory.degraded());
  pipeline.flush();
  EXPECT_FALSE(directory.degraded());
  EXPECT_EQ(pipeline.stats().applied, 6u);
  pipeline.stop();
}

TEST(AdmissionControl, QueueFullStormCountsShedsAndFlagsDegraded) {
  obs::ScopedEnable on;
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(registry);

  ShardedDirectory directory(directory_options());
  IngestOptions options;
  options.sources = 1;
  options.workers = 1;
  options.queue_capacity = 4;
  options.start_paused = true;
  IngestPipeline pipeline(directory, options);

  std::uint64_t accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (pipeline.submit(lu(0, static_cast<double>(i + 1), 0.0, 0.0))) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(pipeline.stats().rejected_full, 6u);
  EXPECT_TRUE(directory.degraded());

  const obs::MetricsSnapshot mid = registry.snapshot();
  const obs::MetricSample* shed = mid.find(
      "mgrid_ingest_shed_total", {{"reason", "queue_full"}});
  ASSERT_NE(shed, nullptr);
  EXPECT_DOUBLE_EQ(shed->value, 6.0);
  const obs::MetricSample* degraded = mid.find("mgrid_serve_degraded");
  ASSERT_NE(degraded, nullptr);
  EXPECT_DOUBLE_EQ(degraded->value, 1.0);

  // The storm passes: drain, and degraded mode clears (gauge included).
  pipeline.flush();
  EXPECT_FALSE(directory.degraded());
  EXPECT_DOUBLE_EQ(registry.snapshot().find("mgrid_serve_degraded")->value,
                   0.0);
  pipeline.stop();
}

TEST(AdmissionControl, ShedLusNeverReachTheWal) {
  const std::string dir = test::scratch_path("shed_wal_test");
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    ShardedDirectory directory(directory_options());
    WalWriter wal(dir + "/wal.log", FsyncPolicy::kNever);
    IngestOptions options;
    options.sources = 1;
    options.workers = 1;
    options.queue_capacity = 4;
    options.shed_watermark = 0.25;  // threshold = 1: shed from depth 1 on
    options.start_paused = true;
    options.wal = &wal;
    IngestPipeline pipeline(directory, options);

    ASSERT_TRUE(pipeline.submit(lu(5, 1.0, 10.0, 10.0)));
    EXPECT_FALSE(pipeline.submit(lu(5, 2.0, 10.0, 10.5)));  // shed
    EXPECT_TRUE(pipeline.submit(lu(5, 3.0, 90.0, 90.0)));
    for (int i = 0; i < 6; ++i) {
      (void)pipeline.submit(lu(5, 4.0, 91.0, 91.0));  // full or shed
    }
    const IngestStats stats = pipeline.stats();
    EXPECT_EQ(stats.accepted, 2u);
    EXPECT_GE(stats.shed_low_info + stats.rejected_full, 7u);
    pipeline.flush();
    EXPECT_EQ(wal.records_appended(), stats.accepted);
    pipeline.stop();
  }
  // Only the accepted LUs are on disk.
  EXPECT_EQ(read_wal(dir + "/wal.log").records.size(), 2u);
  fs::remove_all(dir);
}

TEST(DegradedReads, LookupBoundedReportsAgeAndDegradation) {
  obs::ScopedEnable on;
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(registry);

  ShardedDirectory directory(directory_options());
  ASSERT_TRUE(directory.update(7, 10.0, {1.0, 2.0}, {0.0, 0.0}));

  // Fresh enough at now=12 with a 5 s bound.
  const auto fresh = directory.lookup_bounded(7, 12.0, 5.0);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_DOUBLE_EQ(fresh->age_seconds, 2.0);
  EXPECT_TRUE(fresh->within_bound);
  EXPECT_FALSE(fresh->degraded);
  EXPECT_DOUBLE_EQ(fresh->entry.position.x, 1.0);

  // Stale at now=30: the belief is served, honestly labelled.
  directory.set_degraded(true);
  const auto stale = directory.lookup_bounded(7, 30.0, 5.0);
  ASSERT_TRUE(stale.has_value());
  EXPECT_DOUBLE_EQ(stale->age_seconds, 20.0);
  EXPECT_FALSE(stale->within_bound);
  EXPECT_TRUE(stale->degraded);

  // Unknown MN stays a miss regardless of mode.
  EXPECT_FALSE(directory.lookup_bounded(999, 30.0, 5.0).has_value());

  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const obs::MetricSample* counter =
      snapshot.find("mgrid_serve_degraded_lookups_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_GE(counter->value, 1.0);
  directory.set_degraded(false);
}

// The serving SLO monitor uses multi-window burn-rate alerting: a page
// requires BOTH the short (burn-detection) and long (budget) windows to
// burn at or above page_burn. A brief spike must warn at most; only a
// sustained storm pages.
TEST(SloChaos, PagesExactlyWhenBothBurnWindowsExceedThreshold) {
  obs::SloOptions options;
  options.epoch_seconds = 1.0;
  options.window_epochs = 10;
  options.short_epochs = 2;
  options.warn_burn = 1.0;
  options.page_burn = 6.0;
  options.lookup = {1e-3, 0.99};  // 1% error budget
  obs::SloMonitor slo(options);

  double now = 0.0;
  const auto epoch = [&](std::uint64_t bad, std::uint64_t good) {
    now += 1.0;
    slo.advance(now);
    for (std::uint64_t i = 0; i < bad; ++i) slo.observe_lookup(0.01);
    for (std::uint64_t i = 0; i < good; ++i) slo.observe_lookup(1e-5);
  };
  const auto lookup_state = [&] {
    const obs::SloReport report = slo.report();
    return report.slis.at(0).state;  // lookup_latency
  };

  // Healthy baseline: 8 epochs of clean traffic.
  for (int e = 0; e < 8; ++e) epoch(0, 100);
  slo.advance(now);
  EXPECT_EQ(lookup_state(), obs::SloState::kOk);

  // A 2-epoch spike: short window burns 10x, but the long window holds
  // 20/1000 = 2x < page_burn — warn, do NOT page.
  epoch(10, 90);
  epoch(10, 90);
  slo.advance(now);
  EXPECT_EQ(lookup_state(), obs::SloState::kWarn);

  // The storm persists: 4 all-bad epochs push the long window past 6x too
  // — now, and only now, the SLI pages.
  for (int e = 0; e < 4; ++e) epoch(100, 0);
  slo.advance(now);
  EXPECT_EQ(lookup_state(), obs::SloState::kPage);

  // Recovery: clean epochs roll the bad ones out of both windows.
  for (int e = 0; e < 12; ++e) epoch(0, 100);
  slo.advance(now);
  EXPECT_EQ(lookup_state(), obs::SloState::kOk);
}

}  // namespace
}  // namespace mgrid::serve
