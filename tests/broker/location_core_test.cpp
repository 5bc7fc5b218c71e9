#include "broker/location_core.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "estimation/estimator.h"
#include "geo/vec2.h"

namespace mgrid::broker {
namespace {

TEST(MnTrack, ApplyUpdateSetsBothViews) {
  MnTrack track(7, nullptr);
  EXPECT_FALSE(track.has_report());

  ASSERT_TRUE(track.apply_update(1.0, {10.0, 20.0}, {1.0, -1.0}));
  EXPECT_TRUE(track.has_report());
  EXPECT_EQ(track.last_reported_time(), 1.0);
  EXPECT_EQ(track.record().last_reported.position.x, 10.0);
  EXPECT_EQ(track.record().current_view.position.y, 20.0);
  EXPECT_EQ(track.record().last_reported.velocity.x, 1.0);
  EXPECT_FALSE(track.record().current_view.estimated);
  EXPECT_EQ(track.mn(), 7u);
}

TEST(MnTrack, RejectsTimestampRegressionWithoutSideEffects) {
  MnTrack track(1, nullptr);
  ASSERT_TRUE(track.apply_update(5.0, {1.0, 1.0}, {0.0, 0.0}));
  EXPECT_FALSE(track.apply_update(4.0, {9.0, 9.0}, {0.0, 0.0}));
  EXPECT_EQ(track.record().last_reported.t, 5.0);
  EXPECT_EQ(track.record().current_view.position.x, 1.0);
  // Equal timestamps are accepted (a re-report at the same tick).
  EXPECT_TRUE(track.apply_update(5.0, {2.0, 2.0}, {0.0, 0.0}));
  EXPECT_EQ(track.record().current_view.position.x, 2.0);
}

TEST(MnTrack, AdvanceRequiresEstimatorReportAndStaleness) {
  MnTrack bare(1, nullptr);
  EXPECT_FALSE(bare.advance(10.0).has_value());

  MnTrack track(2, estimation::make_estimator("dead_reckoning"));
  EXPECT_FALSE(track.advance(10.0).has_value());  // no report yet

  ASSERT_TRUE(track.apply_update(3.0, {0.0, 0.0}, {2.0, 0.0}));
  EXPECT_FALSE(track.advance(3.0).has_value());  // fresh at t
  EXPECT_FALSE(track.advance(2.0).has_value());

  const std::optional<geo::Vec2> estimate = track.advance(5.0);
  ASSERT_TRUE(estimate.has_value());
  EXPECT_NEAR(estimate->x, 4.0, 1e-12);
  EXPECT_TRUE(track.record().current_view.estimated);
  EXPECT_EQ(track.record().current_view.t, 5.0);
  // The received fix is untouched.
  EXPECT_EQ(track.record().last_reported.t, 3.0);

  // The view is now at 5: advancing to 5 again, or to an earlier time,
  // changes nothing.
  std::vector<double> before;
  ASSERT_TRUE(track.save_state(before));
  EXPECT_FALSE(track.advance(5.0).has_value());
  EXPECT_FALSE(track.advance(4.0).has_value());
  std::vector<double> after;
  ASSERT_TRUE(track.save_state(after));
  EXPECT_EQ(before, after);
  EXPECT_TRUE(track.advance(6.0).has_value());
}

TEST(MnTrack, BeliefAtIsConst) {
  MnTrack track(3, estimation::make_estimator("dead_reckoning"));
  ASSERT_TRUE(track.apply_update(1.0, {0.0, 0.0}, {1.0, 1.0}));
  const geo::Vec2 belief = track.belief_at(4.0);
  EXPECT_NEAR(belief.x, 3.0, 1e-12);
  // belief_at must not mutate the view (advance does).
  EXPECT_FALSE(track.record().current_view.estimated);
  EXPECT_EQ(track.record().current_view.t, 1.0);
  // Fresh (or past) query times return the received fix.
  EXPECT_EQ(track.belief_at(1.0).x, 0.0);
  EXPECT_EQ(track.belief_at(0.5).x, 0.0);
}

// Bit-identical regression against a hand-rolled model of the pre-refactor
// broker/location_db update loop: per-MN estimator clone fed on receive,
// estimate() computed for stale views each tick. If MnTrack ever diverges
// (extra estimator call, reordered observe, lost velocity hint), doubles
// stop being EXACTLY equal.
TEST(MnTrack, BitIdenticalToReferenceModel) {
  const std::unique_ptr<estimation::LocationEstimator> prototype =
      estimation::make_estimator("brown_polar");

  MnTrack track(9, prototype->clone());

  // Reference state, exactly as the pre-refactor LocationDb kept it.
  std::unique_ptr<estimation::LocationEstimator> ref_estimator =
      prototype->clone();
  LocationFix ref_reported;
  LocationFix ref_view;
  bool ref_has_report = false;

  // An irregular LU pattern (gaps, bursts) over 40 ticks.
  const std::vector<int> report_ticks = {1, 2, 3, 5, 9, 10, 17, 18, 19, 31};
  std::size_t next_report = 0;
  for (int k = 1; k <= 40; ++k) {
    const double t = static_cast<double>(k);
    if (next_report < report_ticks.size() && report_ticks[next_report] == k) {
      ++next_report;
      const geo::Vec2 position{10.0 * t + 0.125, 3.0 * t - 0.5};
      const geo::Vec2 velocity{1.5, -0.25 * t};
      ASSERT_TRUE(track.apply_update(t, position, velocity));

      ref_reported = {t, position, velocity, false};
      ref_view = ref_reported;
      ref_has_report = true;
      ref_estimator->observe(t, position, velocity);
    }
    // Tick refresh (broker on_tick / serving advance_estimates).
    const std::optional<geo::Vec2> estimate = track.advance(t);
    if (ref_has_report && ref_reported.t < t) {
      const geo::Vec2 ref_est = ref_estimator->estimate(t);
      ref_view = {t, ref_est, {}, true};
      ASSERT_TRUE(estimate.has_value()) << "tick " << k;
      EXPECT_EQ(estimate->x, ref_est.x) << "tick " << k;
      EXPECT_EQ(estimate->y, ref_est.y) << "tick " << k;
    } else {
      EXPECT_FALSE(estimate.has_value()) << "tick " << k;
    }
    EXPECT_EQ(track.record().current_view.t, ref_view.t) << "tick " << k;
    EXPECT_EQ(track.record().current_view.position.x, ref_view.position.x);
    EXPECT_EQ(track.record().current_view.position.y, ref_view.position.y);
    EXPECT_EQ(track.record().current_view.estimated, ref_view.estimated);
    EXPECT_EQ(track.record().last_reported.t, ref_reported.t);
  }
}

}  // namespace
}  // namespace mgrid::broker
