// End-to-end latency attribution through the ingest pipeline: the sampled
// span set is a pure function of the stream (identical across worker
// counts), stages tile each span's total exactly, and a WAL carves its
// append cost out of the queue-wait stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/span.h"
#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/wal.h"
#include "serve/wire.h"
#include "../scratch_path.h"

namespace mgrid::serve {
namespace {

/// A deterministic LU stream: `count` updates round-robined over `mns`
/// mobile nodes with per-MN monotone timestamps and sequence numbers.
std::vector<wire::LuMsg> make_stream(std::uint32_t count, std::uint32_t mns) {
  std::vector<wire::LuMsg> stream;
  stream.reserve(count);
  std::vector<std::uint32_t> next_seq(mns, 0);
  for (std::uint32_t i = 0; i < count; ++i) {
    wire::LuMsg msg;
    msg.mn = i % mns;
    msg.seq = next_seq[msg.mn]++;
    msg.t = 1.0 + static_cast<double>(msg.seq);
    msg.x = static_cast<double>(msg.mn);
    msg.y = static_cast<double>(msg.seq);
    stream.push_back(msg);
  }
  return stream;
}

/// Runs `stream` through a fresh pipeline with `workers` workers and
/// returns the recorded spans. `sources` is pinned by the caller: the
/// sampling hash includes the source index, so it must not drift between
/// the configurations under comparison.
std::vector<obs::LuSpan> run_stream(const std::vector<wire::LuMsg>& stream,
                                    std::size_t workers, std::size_t sources,
                                    WalWriter* wal = nullptr) {
  obs::SpanTracerOptions options;
  options.sample_period = 16;
  options.ring_capacity = stream.size();  // keep every sampled span
  options.emit_trace_events = false;
  obs::SpanTracer tracer(options);
  tracer.set_enabled(true);

  ShardedDirectory directory(DirectoryOptions{});
  IngestOptions ingest_options;
  ingest_options.workers = workers;
  ingest_options.sources = sources;
  ingest_options.spans = &tracer;
  ingest_options.wal = wal;
  IngestPipeline pipeline(directory, ingest_options);
  for (const wire::LuMsg& msg : stream) {
    EXPECT_TRUE(pipeline.submit(msg));
  }
  pipeline.flush();
  pipeline.stop();
  return tracer.snapshot().recent;
}

std::vector<std::uint64_t> sorted_trace_ids(
    const std::vector<obs::LuSpan>& spans) {
  std::vector<std::uint64_t> ids;
  ids.reserve(spans.size());
  for (const obs::LuSpan& span : spans) ids.push_back(span.trace_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(SpanAttribution, SampledSetIsIdenticalAcrossWorkerCounts) {
  const std::vector<wire::LuMsg> stream = make_stream(4000, 97);
  const std::vector<obs::LuSpan> serial = run_stream(stream, 1, 4);
  const std::vector<obs::LuSpan> parallel = run_stream(stream, 8, 4);

  ASSERT_FALSE(serial.empty());
  // 1/16 sampling over 4000 LUs: expect ~250; the exact count is a pure
  // function of the stream, so both runs agree on it too.
  EXPECT_GT(serial.size(), 100u);
  EXPECT_EQ(sorted_trace_ids(serial), sorted_trace_ids(parallel));
}

TEST(SpanAttribution, StagesTileTheSpanTotalExactly) {
  const std::vector<wire::LuMsg> stream = make_stream(2000, 61);
  const std::vector<obs::LuSpan> spans = run_stream(stream, 2, 4);
  ASSERT_FALSE(spans.empty());
  for (const obs::LuSpan& span : spans) {
    double sum = 0.0;
    for (const double stage : span.stage_seconds) {
      EXPECT_GE(stage, 0.0);
      sum += stage;
    }
    EXPECT_DOUBLE_EQ(sum, span.total_seconds);
    EXPECT_GT(span.total_seconds, 0.0);
    // No WAL attached: the WAL stage is identically zero.
    EXPECT_DOUBLE_EQ(
        span.stage_seconds[static_cast<std::size_t>(obs::LuStage::kWal)],
        0.0);
  }
}

TEST(SpanAttribution, WalAppendIsCarvedOutOfTheQueueStage) {
  const std::string path = test::scratch_path("span_attribution_test.wal");
  std::remove(path.c_str());
  const std::vector<wire::LuMsg> stream = make_stream(2000, 61);
  std::vector<obs::LuSpan> spans;
  {
    WalWriter wal(path, FsyncPolicy::kNever);
    spans = run_stream(stream, 1, 4, &wal);
  }
  std::remove(path.c_str());

  ASSERT_FALSE(spans.empty());
  bool any_wal_time = false;
  for (const obs::LuSpan& span : spans) {
    const double wal_seconds =
        span.stage_seconds[static_cast<std::size_t>(obs::LuStage::kWal)];
    EXPECT_GE(wal_seconds, 0.0);
    if (wal_seconds > 0.0) any_wal_time = true;
    double sum = 0.0;
    for (const double stage : span.stage_seconds) sum += stage;
    EXPECT_DOUBLE_EQ(sum, span.total_seconds);
  }
  // A steady clock granular enough for the suite's other timing tests
  // resolves at least one of ~125 sampled WAL appends.
  EXPECT_TRUE(any_wal_time);
}

}  // namespace
}  // namespace mgrid::serve
