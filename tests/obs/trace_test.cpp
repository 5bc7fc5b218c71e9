#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace mgrid::obs {
namespace {

TEST(TraceRecorder, DisabledByDefaultRecordsNothing) {
  TraceRecorder recorder(8);
  recorder.instant("never", "test");
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(TraceRecorder, CapturesInstantEvents) {
  TraceRecorder recorder(8);
  recorder.set_enabled(true);
  recorder.instant("one", "test");
  recorder.instant("two", "test");
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "one");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[1].name, "two");
  EXPECT_LE(events[0].wall_us, events[1].wall_us);
}

TEST(TraceRecorder, RingWrapsAroundKeepingNewestEvents) {
  TraceRecorder recorder(4);
  recorder.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    recorder.instant(std::string("e").append(std::to_string(i)), "test");
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.dropped(), 2u);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two (e0, e1) were overwritten; order is oldest-first.
  EXPECT_EQ(events[0].name, "e2");
  EXPECT_EQ(events[1].name, "e3");
  EXPECT_EQ(events[2].name, "e4");
  EXPECT_EQ(events[3].name, "e5");
}

TEST(TraceRecorder, SimClockStampsEvents) {
  TraceRecorder recorder(8);
  recorder.set_enabled(true);
  double now = 12.5;
  recorder.set_clock([&now] { return now; });
  recorder.instant("a", "test");
  now = 99.0;
  recorder.instant("b", "test");
  recorder.set_clock(nullptr);
  recorder.instant("c", "test");
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].sim_time, 12.5);
  EXPECT_DOUBLE_EQ(events[1].sim_time, 99.0);
  EXPECT_DOUBLE_EQ(events[2].sim_time, 0.0);
}

TEST(TraceRecorder, SpanRecordsCompleteEvent) {
  TraceRecorder recorder(8);
  recorder.set_enabled(true);
  { auto span = recorder.span("work", "test"); }
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].category, "test");
}

TEST(TraceRecorder, BeginEndPairs) {
  TraceRecorder recorder(8);
  recorder.set_enabled(true);
  recorder.begin("op", "test");
  recorder.end("op", "test");
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].phase, 'E');
}

TEST(TraceRecorder, ClearDropsEventsKeepsCapacity) {
  TraceRecorder recorder(4);
  recorder.set_enabled(true);
  recorder.instant("x", "test");
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.capacity(), 4u);
  recorder.instant("y", "test");
  EXPECT_EQ(recorder.size(), 1u);
}

TEST(TraceRecorder, ChromeJsonIsWellFormed) {
  TraceRecorder recorder(4);
  recorder.set_enabled(true);
  recorder.set_clock([] { return 3.25; });
  recorder.instant("tick", "sim");
  { auto span = recorder.span("step", "sim"); }
  const std::string json = recorder.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tick\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_time\":3.25"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(TraceRecorder, ChromeJsonReportsDrops) {
  TraceRecorder recorder(2);
  recorder.set_enabled(true);
  for (int i = 0; i < 5; ++i) recorder.instant("e", "test");
  const std::string json = recorder.to_chrome_json();
  EXPECT_NE(json.find("mgrid_dropped_events"), std::string::npos);
}

TEST(TraceRecorder, MetadataEventsComeFirstAndUseNoRingSlots) {
  TraceRecorder recorder(4);
  recorder.set_enabled(true);
  recorder.set_process_name("mgrid_serve");
  recorder.set_thread_name(7, "ingest-worker-0");
  recorder.instant("tick", "sim");

  // Naming is export-time metadata: the ring still holds only the event.
  EXPECT_EQ(recorder.size(), 1u);

  const std::string json = recorder.to_chrome_json();
  const std::size_t process_pos = json.find("\"process_name\"");
  const std::size_t thread_pos = json.find("\"thread_name\"");
  const std::size_t sort_pos = json.find("\"thread_sort_index\"");
  const std::size_t event_pos = json.find("\"tick\"");
  ASSERT_NE(process_pos, std::string::npos);
  ASSERT_NE(thread_pos, std::string::npos);
  ASSERT_NE(sort_pos, std::string::npos);
  ASSERT_NE(event_pos, std::string::npos);
  // Viewers apply 'M' metadata to what follows: it must lead the array.
  EXPECT_LT(process_pos, event_pos);
  EXPECT_LT(thread_pos, event_pos);
  EXPECT_LT(sort_pos, event_pos);
  EXPECT_NE(json.find("\"mgrid_serve\""), std::string::npos);
  EXPECT_NE(json.find("\"ingest-worker-0\""), std::string::npos);
}

TEST(TraceRecorder, ThreadSortIndexFollowsNameThenTidOrder) {
  TraceRecorder recorder(4);
  // Register out of order: sort indices are assigned by (name, tid), not
  // by registration or raw-tid order, so worker groups stay together.
  recorder.set_thread_name(9, "worker");
  recorder.set_thread_name(2, "worker");
  recorder.set_thread_name(5, "apply");
  const std::string json = recorder.to_chrome_json();

  // "apply" (tid 5) sorts before "worker" (tids 2 then 9).
  const auto sort_index_of = [&json](std::uint32_t tid) {
    const std::string needle = "\"tid\":" + std::to_string(tid);
    std::size_t pos = json.find(needle);
    EXPECT_NE(pos, std::string::npos);
    // The thread_sort_index metadata is the second object carrying the
    // tid; its args hold the index.
    pos = json.find(needle, pos + 1);
    EXPECT_NE(pos, std::string::npos);
    const std::size_t args = json.find("\"sort_index\":", pos);
    EXPECT_NE(args, std::string::npos);
    return std::stoul(json.substr(args + 13));
  };
  EXPECT_EQ(sort_index_of(5), 0u);
  EXPECT_EQ(sort_index_of(2), 1u);
  EXPECT_EQ(sort_index_of(9), 2u);
}

TEST(TraceThreadId, IsStableAndPositiveWithinAThread) {
  const std::uint32_t id = trace_thread_id();
  EXPECT_GT(id, 0u);
  EXPECT_EQ(trace_thread_id(), id);
}

}  // namespace
}  // namespace mgrid::obs
