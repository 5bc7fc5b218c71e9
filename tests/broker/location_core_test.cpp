#include "broker/location_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "estimation/estimator.h"
#include "estimation/horizon_clamped.h"
#include "estimation/map_matched.h"
#include "geo/campus.h"
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

  const auto dead_reckoning = estimation::make_estimator("dead_reckoning");
  MnTrack track(2, dead_reckoning.get());
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
  const auto dead_reckoning = estimation::make_estimator("dead_reckoning");
  MnTrack track(3, dead_reckoning.get());
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

  MnTrack track(9, prototype.get());

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

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<std::uint64_t> bits(const std::vector<double>& words) {
  std::vector<std::uint64_t> out;
  for (const double w : words) out.push_back(std::bit_cast<std::uint64_t>(w));
  return out;
}

/// MNs of every id class: the dense array path, ids at and past its 2^20
/// limit, and the largest uint32 (the hash path).
const std::vector<std::uint32_t> kMixedIds = {
    0u, 5u, (1u << 20) - 1, 1u << 20, 123456789u, 0xFFFFFFFEu, 0xFFFFFFFFu};

TEST(TrackStore, RejectedFirstLuLeavesNoTrack) {
  const auto prototype = estimation::make_estimator("brown_polar");
  TrackStore store(prototype.get());
  for (const std::uint32_t mn : kMixedIds) {
    EXPECT_FALSE(store.apply_update(mn, 1.0, {kNaN, 0.0}, {0.0, 0.0}));
    EXPECT_EQ(store.find(mn), nullptr) << mn;
    EXPECT_EQ(store.slot_of(mn), TrackStore::kNoSlot) << mn;
  }
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.sorted().empty());
  std::size_t visited = 0;
  store.for_each([&visited](const MnTrack&) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(store.advance(2.0), 0u);

  // A later valid LU creates the track, with a fresh estimator.
  const auto bare = prototype->clone();
  for (const std::uint32_t mn : kMixedIds) {
    ASSERT_TRUE(store.apply_update(mn, 1.0, {1.0, 2.0}, {1.0, 0.0})) << mn;
    const MnTrack* track = store.find(mn);
    ASSERT_NE(track, nullptr) << mn;
    EXPECT_EQ(track->mn(), mn);
    EXPECT_EQ(track->record().current_view.position.x, 1.0);
  }
  bare->observe(1.0, {1.0, 2.0}, geo::Vec2{1.0, 0.0});
  EXPECT_EQ(store.size(), kMixedIds.size());
  EXPECT_EQ(store.advance(3.0), kMixedIds.size());
  const geo::Vec2 expect = bare->estimate(3.0);
  for (const std::uint32_t mn : kMixedIds) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  store.find(mn)->record().current_view.position.x),
              std::bit_cast<std::uint64_t>(expect.x));
  }
}

/// A store holding one brown_polar track for `mn`: two LUs and an estimate.
TrackStore one_track_store(const estimation::LocationEstimator* prototype,
                           std::uint32_t mn) {
  TrackStore store(prototype);
  EXPECT_TRUE(store.apply_update(mn, 1.0, {3.0, 4.0}, {1.0, 1.0}));
  EXPECT_TRUE(store.apply_update(mn, 2.0, {4.0, 5.0}, {1.0, 1.0}));
  EXPECT_EQ(store.advance(3.0), 1u);
  return store;
}

TEST(TrackStore, RestoreRefusesPresentMnAndFailedRestoreLeavesNone) {
  const auto prototype = estimation::make_estimator("brown_polar");
  for (const std::uint32_t mn : kMixedIds) {
    TrackStore source = one_track_store(prototype.get(), mn);
    std::vector<double> words;
    ASSERT_TRUE(source.find(mn)->save_state(words));
    const double* const end = words.data() + words.size();

    TrackStore store(prototype.get());
    // Truncated words: the restore fails and leaves no track behind.
    const double* it = words.data();
    EXPECT_EQ(store.restore(mn, it, end - 1), nullptr);
    EXPECT_EQ(store.find(mn), nullptr) << mn;
    EXPECT_EQ(store.size(), 0u);
    EXPECT_TRUE(store.sorted().empty());
    EXPECT_EQ(store.advance(4.0), 0u);

    // A retry with the full words succeeds and is bit-identical.
    it = words.data();
    const MnTrack* track = store.restore(mn, it, end);
    ASSERT_NE(track, nullptr) << mn;
    EXPECT_EQ(it, end);
    std::vector<double> again;
    ASSERT_TRUE(track->save_state(again));
    EXPECT_EQ(bits(again), bits(words));
    EXPECT_EQ(store.size(), 1u);

    // A present MN is refused and keeps its state.
    it = words.data();
    EXPECT_EQ(store.restore(mn, it, end), nullptr);
    EXPECT_EQ(store.size(), 1u);

    // The restored track forecasts exactly like the source's.
    EXPECT_EQ(store.advance(4.0), 1u);
    EXPECT_EQ(source.advance(4.0), 1u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  store.find(mn)->record().current_view.position.y),
              std::bit_cast<std::uint64_t>(
                  source.find(mn)->record().current_view.position.y));
  }
}

TEST(TrackStore, SizeForEachAndSortedSkipAbsentSlots) {
  const auto prototype = estimation::make_estimator("dead_reckoning");
  TrackStore store(prototype.get());
  // Slots are handed out in first-seen order; every third MN's first LU
  // is rejected, and one more MN loses a failed restore.
  std::vector<std::uint32_t> present;
  const std::vector<std::uint32_t> ids = {9, 2, 0xFFFFFFFFu, 1u << 20, 7,
                                          3, 11, 0xABCDEF01u, 4};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const bool reject = i % 3 == 1;
    EXPECT_EQ(store.apply_update(ids[i], 1.0, {reject ? kNaN : 1.0, 0.0},
                                 {1.0, 0.0}),
              !reject);
    if (!reject) present.push_back(ids[i]);
  }
  const std::vector<double> junk = {1.0, 2.0};
  const double* it = junk.data();
  EXPECT_EQ(store.restore(1234, it, junk.data() + junk.size()), nullptr);

  EXPECT_EQ(store.size(), present.size());
  std::vector<std::uint32_t> visited;
  store.for_each(
      [&visited](const MnTrack& track) { visited.push_back(track.mn()); });
  EXPECT_EQ(visited, present);  // slot order == first-seen order

  std::vector<std::uint32_t> sorted;
  for (const MnTrack* track : store.sorted()) sorted.push_back(track->mn());
  std::vector<std::uint32_t> expect = present;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted, expect);

  // Only present tracks are forecast.
  EXPECT_EQ(store.advance(2.0), present.size());
  for (const std::uint32_t mn : ids) {
    const MnTrack* track = store.find(mn);
    const bool is_present =
        std::find(present.begin(), present.end(), mn) != present.end();
    ASSERT_EQ(track != nullptr, is_present) << mn;
    if (track != nullptr) {
      EXPECT_EQ(store.track(store.slot_of(mn)).mn(), mn);
      EXPECT_TRUE(track->record().current_view.estimated);
    }
  }
}

struct Chain {
  std::string label;
  std::function<std::unique_ptr<estimation::LocationEstimator>()> make;
  bool inline_estimator;
};

std::vector<Chain> every_chain(const geo::CampusMap& campus) {
  const auto named = [](const char* name) {
    return [name] { return estimation::make_estimator(name); };
  };
  return {
      {"last_known", named("last_known"), true},
      {"dead_reckoning", named("dead_reckoning"), true},
      {"brown_polar", named("brown_polar"), true},
      {"brown_cartesian", named("brown_cartesian"), true},
      {"ses", named("ses"), true},
      {"brown_polar alpha=0.3 period=2",
       [] { return estimation::make_estimator("brown_polar", 0.3, 2.0); },
       true},
      {"ses alpha=0.7",
       [] { return estimation::make_estimator("ses", 0.7, 1.0); }, true},
      {"ar", named("ar"), false},
      {"brown_polar forecast_horizon=3",
       [] {
         return std::make_unique<estimation::HorizonClampedEstimator>(
             estimation::make_estimator("brown_polar"), 3.0);
       },
       false},
      {"brown_polar map_match",
       [&campus] {
         return std::make_unique<estimation::MapMatchedEstimator>(
             estimation::make_estimator("brown_polar"), campus);
       },
       false},
      {"ses map_match forecast_horizon=2",
       [&campus] {
         return std::make_unique<estimation::HorizonClampedEstimator>(
             std::make_unique<estimation::MapMatchedEstimator>(
                 estimation::make_estimator("ses"), campus),
             2.0);
       },
       false},
  };
}

// Every chain the experiment factory and the replay driver build, run
// through a TrackStore beside the bare estimator driven the same way:
// forecasts, beliefs and snapshot words must agree bit for bit, whether
// the store holds the estimator inline or on the heap.
TEST(TrackStore, EveryEstimatorChainMatchesTheBareEstimator) {
  const geo::CampusMap campus = geo::CampusMap::default_campus();
  const std::vector<std::uint32_t> ids = {3, 1u << 20, 0xFFFFFFFFu};
  for (const Chain& chain : every_chain(campus)) {
    SCOPED_TRACE(chain.label);
    const std::unique_ptr<estimation::LocationEstimator> prototype =
        chain.make();
    TrackStore store(prototype.get());
    std::vector<std::unique_ptr<estimation::LocationEstimator>> bare;
    std::vector<SimTime> last_report(ids.size(), -1.0);
    for (std::size_t m = 0; m < ids.size(); ++m) bare.push_back(chain.make());

    for (int k = 1; k <= 60; ++k) {
      const double t = static_cast<double>(k);
      for (std::size_t m = 0; m < ids.size(); ++m) {
        // Irregular per-MN gaps, so every chain forecasts across 1..9 s.
        if (k > 1 && (k * 7 + static_cast<int>(m) * 3) % (2 + k % 9) != 0) {
          continue;
        }
        const double dm = static_cast<double>(m);
        const geo::Vec2 position{40.0 + 2.5 * t + 0.125 * dm,
                                 60.0 + 0.75 * t * (dm + 1.0) - 0.01 * t * t};
        const geo::Vec2 velocity{2.5, 0.1 * dm - 0.02 * t};
        ASSERT_TRUE(store.apply_update(ids[m], t, position, velocity));
        bare[m]->observe(t, position, velocity);
        last_report[m] = t;
      }
      std::size_t stale = 0;
      for (const SimTime reported : last_report) {
        if (reported >= 0.0 && reported < t) ++stale;
      }
      std::size_t estimates = 0;
      const auto check = [&](std::uint32_t slot, geo::Vec2 estimate) {
        const std::uint32_t mn = store.track(slot).mn();
        std::size_t m = 0;
        while (ids[m] != mn) ++m;
        const geo::Vec2 expect = bare[m]->estimate(t);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(estimate.x),
                  std::bit_cast<std::uint64_t>(expect.x));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(estimate.y),
                  std::bit_cast<std::uint64_t>(expect.y));
        ++estimates;
      };
      ASSERT_EQ(store.advance(t, check), stale) << "tick " << k;
      EXPECT_EQ(estimates, stale);

      for (std::size_t m = 0; m < ids.size(); ++m) {
        const MnTrack* track = store.find(ids[m]);
        ASSERT_NE(track, nullptr);
        EXPECT_EQ(track->estimator_on_heap(), !chain.inline_estimator);
        const SimTime ahead = t + 1.5;
        const geo::Vec2 belief = track->belief_at(ahead);
        const geo::Vec2 expect = bare[m]->estimate(ahead);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(belief.x),
                  std::bit_cast<std::uint64_t>(expect.x))
            << "tick " << k;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(belief.y),
                  std::bit_cast<std::uint64_t>(expect.y))
            << "tick " << k;
        std::vector<double> track_words;
        std::vector<double> bare_words;
        ASSERT_TRUE(track->save_state(track_words));
        ASSERT_TRUE(bare[m]->save_state(bare_words));
        // Track words: has_report, two 6-word fixes, the estimator flag,
        // then the estimator's own words.
        ASSERT_EQ(track_words.size(), 14 + bare_words.size());
        EXPECT_EQ(track_words[13], 1.0);
        EXPECT_EQ(bits({track_words.begin() + 14, track_words.end()}),
                  bits(bare_words))
            << "tick " << k;
      }
    }
  }
}

}  // namespace
}  // namespace mgrid::broker
