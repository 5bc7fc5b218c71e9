#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>

namespace mgrid::obs {
namespace {

TEST(ScopedTraceRecorder, DefaultsToGlobal) {
  EXPECT_EQ(&current_trace_recorder(), &TraceRecorder::global());
}

TEST(ScopedTraceRecorder, InstallsAndRestores) {
  TraceRecorder local(8);
  {
    ScopedTraceRecorder scoped(local);
    EXPECT_EQ(&current_trace_recorder(), &local);
    TraceRecorder inner(8);
    {
      ScopedTraceRecorder nested(inner);
      EXPECT_EQ(&current_trace_recorder(), &inner);
    }
    EXPECT_EQ(&current_trace_recorder(), &local);
  }
  EXPECT_EQ(&current_trace_recorder(), &TraceRecorder::global());
}

TEST(ScopedTraceRecorder, SpansLandInTheInstalledRecorder) {
  TraceRecorder local(8);
  local.set_enabled(true);
  const std::size_t global_before = TraceRecorder::global().size();
  {
    ScopedTraceRecorder scoped(local);
    current_trace_recorder().instant("isolated", "test");
  }
  EXPECT_EQ(local.size(), 1u);
  EXPECT_EQ(TraceRecorder::global().size(), global_before);
}

TEST(TraceRecorderDrops, InfoZeroWhileNothingDropped) {
  TraceRecorder recorder(4);
  recorder.set_enabled(true);
  recorder.instant("a", "test");
  const TraceRecorder::DroppedInfo info = recorder.dropped_info();
  EXPECT_EQ(info.count, 0u);
  EXPECT_EQ(info.first_wall_us, 0u);
  EXPECT_EQ(info.last_wall_us, 0u);
}

TEST(TraceRecorderDrops, WraparoundTracksFirstAndLastLostEvent) {
  TraceRecorder recorder(2);
  recorder.set_enabled(true);
  // 5 events into a 2-slot ring: e0, e1, e2 are overwritten in order.
  for (int i = 0; i < 5; ++i) {
    recorder.instant(std::string("e").append(std::to_string(i)), "test");
  }
  const TraceRecorder::DroppedInfo info = recorder.dropped_info();
  EXPECT_EQ(info.count, 3u);
  EXPECT_EQ(recorder.dropped(), 3u);
  // Wall stamps are monotone, so the first lost event precedes the last.
  EXPECT_LE(info.first_wall_us, info.last_wall_us);
  // The latest overwritten event (e2) cannot postdate the survivors.
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LE(info.last_wall_us, events.front().wall_us);
}

TEST(TraceRecorderDrops, ClearResetsDropAccounting) {
  TraceRecorder recorder(1);
  recorder.set_enabled(true);
  recorder.instant("a", "test");
  recorder.instant("b", "test");
  ASSERT_EQ(recorder.dropped(), 1u);
  recorder.clear();
  const TraceRecorder::DroppedInfo info = recorder.dropped_info();
  EXPECT_EQ(info.count, 0u);
  EXPECT_EQ(info.first_wall_us, 0u);
  EXPECT_EQ(info.last_wall_us, 0u);
}

TEST(TraceRecorderDrops, ChromeJsonCarriesDropMetadata) {
  TraceRecorder recorder(2);
  recorder.set_enabled(true);
  for (int i = 0; i < 5; ++i) recorder.instant("e", "test");
  const std::string json = recorder.to_chrome_json();
  EXPECT_NE(json.find("mgrid_dropped_events"), std::string::npos);
  EXPECT_NE(json.find("mgrid_dropped_first_wall_us"), std::string::npos);
  EXPECT_NE(json.find("mgrid_dropped_last_wall_us"), std::string::npos);
}

TEST(TraceRecorderDrops, ChromeJsonOmitsDropMetadataWhenClean) {
  TraceRecorder recorder(8);
  recorder.set_enabled(true);
  recorder.instant("a", "test");
  const std::string json = recorder.to_chrome_json();
  EXPECT_EQ(json.find("mgrid_dropped_first_wall_us"), std::string::npos);
}

}  // namespace
}  // namespace mgrid::obs
