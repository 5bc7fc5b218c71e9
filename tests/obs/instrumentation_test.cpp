// End-to-end checks that the built-in instrumentation actually lands in the
// global registry.
#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sim/kernel.h"

namespace mgrid::obs {
namespace {

std::uint64_t counter_value(const MetricsSnapshot& snapshot,
                            std::string_view name) {
  const MetricSample* sample = snapshot.find(name);
  return sample == nullptr ? 0 : static_cast<std::uint64_t>(sample->value);
}

TEST(KernelInstrumentation, DispatchFeedsGlobalRegistry) {
  ScopedEnable on;
  MetricsRegistry& registry = MetricsRegistry::global();
  const std::uint64_t before =
      counter_value(registry.snapshot(), "mgrid_kernel_events_total");

  sim::SimulationKernel kernel;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    kernel.schedule_at(static_cast<double>(i), [&fired] { ++fired; });
  }
  kernel.run();
  EXPECT_EQ(fired, 5);

  const MetricsSnapshot after = registry.snapshot();
  EXPECT_EQ(counter_value(after, "mgrid_kernel_events_total"), before + 5);
  const MetricSample* latency =
      after.find("mgrid_kernel_handler_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->count, 5u);
}

TEST(KernelInstrumentation, DisabledTelemetryRecordsNothing) {
  ASSERT_FALSE(enabled());  // default off
  MetricsRegistry& registry = MetricsRegistry::global();
  const std::uint64_t before =
      counter_value(registry.snapshot(), "mgrid_kernel_events_total");

  sim::SimulationKernel kernel;
  kernel.schedule_at(1.0, [] {});
  kernel.run();

  EXPECT_EQ(counter_value(registry.snapshot(), "mgrid_kernel_events_total"),
            before);
}

}  // namespace
}  // namespace mgrid::obs
