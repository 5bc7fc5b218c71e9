#include "core/classifier.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <numbers>
#include <unordered_map>
#include <vector>

#include "stats/running_stats.h"
#include "util/rng.h"

namespace mgrid::core {
namespace {

using mobility::MobilityPattern;

TEST(Classifier, ParamValidation) {
  ClassifierParams bad;
  bad.window = 1;
  EXPECT_THROW(MobilityClassifier{bad}, std::invalid_argument);
  bad = {};
  bad.walk_velocity = 0.0;
  EXPECT_THROW(MobilityClassifier{bad}, std::invalid_argument);
  bad = {};
  bad.stop_epsilon = 5.0;  // >= walk_velocity
  EXPECT_THROW(MobilityClassifier{bad}, std::invalid_argument);
  bad = {};
  bad.heading_change_threshold = 0.0;
  EXPECT_THROW(MobilityClassifier{bad}, std::invalid_argument);
}

TEST(Classifier, ObserveValidation) {
  MobilityClassifier classifier;
  EXPECT_THROW(classifier.observe(MnId::invalid(), 0.0, {0, 0}),
               std::invalid_argument);
  classifier.observe(MnId{1}, 1.0, {0, 0});
  EXPECT_THROW(classifier.observe(MnId{1}, 0.5, {0, 0}),
               std::invalid_argument);
  // Duplicate timestamps are ignored, not an error.
  EXPECT_NO_THROW(classifier.observe(MnId{1}, 1.0, {5, 5}));
  EXPECT_EQ(classifier.features(MnId{1}).samples, 1u);
}

TEST(Classifier, UnknownNodeIsStop) {
  const MobilityClassifier classifier;
  EXPECT_EQ(classifier.classify(MnId{42}), MobilityPattern::kStop);
  EXPECT_EQ(classifier.features(MnId{42}).samples, 0u);
}

TEST(Classifier, StationaryNodeIsStop) {
  MobilityClassifier classifier;
  const MnId mn{1};
  for (int t = 0; t < 10; ++t) classifier.observe(mn, t, {5.0, 5.0});
  EXPECT_EQ(classifier.classify(mn), MobilityPattern::kStop);
  EXPECT_EQ(classifier.features(mn).mean_speed, 0.0);
}

TEST(Classifier, ConstantWalkIsLinear) {
  MobilityClassifier classifier;
  const MnId mn{2};
  for (int t = 0; t < 10; ++t) {
    classifier.observe(mn, t, {1.2 * t, 0.0});  // 1.2 m/s straight walk
  }
  EXPECT_EQ(classifier.classify(mn), MobilityPattern::kLinear);
  EXPECT_NEAR(classifier.features(mn).mean_speed, 1.2, 1e-9);
}

TEST(Classifier, FastMoverIsLinearRegardlessOfHeadingNoise) {
  // Fig. 2: V > V_walk -> running or vehicle -> LMS, even when the road
  // curves.
  MobilityClassifier classifier;
  const MnId mn{3};
  geo::Vec2 p{0, 0};
  util::RngStream rng(1);
  double heading = 0.0;
  for (int t = 0; t < 10; ++t) {
    classifier.observe(mn, t, p);
    heading += rng.uniform(-0.5, 0.5);  // wiggly but fast
    p += geo::from_polar(heading, 7.0);
  }
  EXPECT_EQ(classifier.classify(mn), MobilityPattern::kLinear);
}

TEST(Classifier, ErraticWalkerIsRandom) {
  MobilityClassifier classifier;
  const MnId mn{4};
  geo::Vec2 p{50, 50};
  util::RngStream rng(2);
  for (int t = 0; t < 12; ++t) {
    classifier.observe(mn, t, p);
    // Direction redrawn every second: classic RMS.
    p += geo::from_polar(rng.uniform(-std::numbers::pi, std::numbers::pi),
                         0.8);
  }
  EXPECT_EQ(classifier.classify(mn), MobilityPattern::kRandom);
}

TEST(Classifier, SpeedBurstsMakeWalkerRandom) {
  // Constant heading but strongly varying speed -> "V changes frequently".
  MobilityClassifier classifier;
  const MnId mn{5};
  double x = 0.0;
  for (int t = 0; t < 12; ++t) {
    classifier.observe(mn, t, {x, 0.0});
    x += (t % 2 == 0) ? 1.8 : 0.2;  // mean 1.0, CV ~0.8
  }
  EXPECT_EQ(classifier.classify(mn), MobilityPattern::kRandom);
}

TEST(Classifier, OneTurnAtAnIntersectionStaysLinear) {
  // Paper: a walker that turns once at a crossroads is still LMS.
  MobilityClassifier classifier;
  const MnId mn{6};
  geo::Vec2 p{0, 0};
  for (int t = 0; t < 12; ++t) {
    classifier.observe(mn, t, p);
    p += (t < 6) ? geo::Vec2{1.2, 0.0} : geo::Vec2{0.0, 1.2};
  }
  EXPECT_EQ(classifier.classify(mn), MobilityPattern::kLinear);
}

TEST(Classifier, SlidingWindowAdaptsToPatternChange) {
  ClassifierParams params;
  params.window = 6;
  MobilityClassifier classifier(params);
  const MnId mn{7};
  double t = 0.0;
  // Walk linearly...
  geo::Vec2 p{0, 0};
  for (int i = 0; i < 10; ++i, t += 1.0) {
    classifier.observe(mn, t, p);
    p.x += 1.0;
  }
  EXPECT_EQ(classifier.classify(mn), MobilityPattern::kLinear);
  // ...then sit still long enough to flush the window.
  for (int i = 0; i < 8; ++i, t += 1.0) classifier.observe(mn, t, p);
  EXPECT_EQ(classifier.classify(mn), MobilityPattern::kStop);
}

TEST(Classifier, ForgetDropsHistory) {
  MobilityClassifier classifier;
  const MnId mn{8};
  classifier.observe(mn, 0.0, {0, 0});
  classifier.observe(mn, 1.0, {1, 0});
  EXPECT_EQ(classifier.tracked_count(), 1u);
  classifier.forget(mn);
  EXPECT_EQ(classifier.tracked_count(), 0u);
  EXPECT_EQ(classifier.classify(mn), MobilityPattern::kStop);
}

TEST(Classifier, FeaturesExposeHeading) {
  MobilityClassifier classifier;
  const MnId mn{9};
  for (int t = 0; t < 5; ++t) {
    classifier.observe(mn, t, {0.0, 2.0 * t});  // moving along +y
  }
  EXPECT_NEAR(classifier.features(mn).heading, std::numbers::pi / 2, 1e-9);
}

// Parameterized: classification is scale-invariant across sampling periods.
class PeriodSweep : public testing::TestWithParam<double> {};

TEST_P(PeriodSweep, LinearWalkerStaysLinear) {
  const double period = GetParam();
  MobilityClassifier classifier;
  const MnId mn{10};
  for (int i = 0; i < 10; ++i) {
    const double t = i * period;
    classifier.observe(mn, t, {1.0 * t, 0.0});  // 1 m/s regardless of period
  }
  EXPECT_EQ(classifier.classify(mn), mobility::MobilityPattern::kLinear);
}

INSTANTIATE_TEST_SUITE_P(Periods, PeriodSweep,
                         testing::Values(0.5, 1.0, 2.0, 5.0));

/// The whole-window feature computation the classifier is defined by: a
/// deque of raw samples, re-measured step by step on every call.
class ReferenceWindows {
 public:
  explicit ReferenceWindows(ClassifierParams params) : params_(params) {}

  void observe(MnId mn, SimTime t, geo::Vec2 position) {
    auto& window = windows_[mn];
    if (!window.empty() && t == window.back().t) return;  // duplicate tick
    window.push_back(Sample{t, position});
    while (window.size() > params_.window) window.pop_front();
  }

  void forget(MnId mn) { windows_.erase(mn); }

  [[nodiscard]] MotionFeatures features(MnId mn) const {
    MotionFeatures out;
    auto it = windows_.find(mn);
    if (it == windows_.end()) return out;
    const std::deque<Sample>& window = it->second;
    out.samples = window.size();
    if (window.size() < 2) return out;
    stats::RunningStats speeds;
    std::vector<double> headings;
    for (std::size_t i = 1; i < window.size(); ++i) {
      const Duration dt = window[i].t - window[i - 1].t;
      const geo::Vec2 displacement =
          window[i].position - window[i - 1].position;
      const double dist = displacement.norm();
      speeds.add(dist / dt);
      if (dist / dt >= params_.stop_epsilon) {
        headings.push_back(displacement.heading());
      }
    }
    out.mean_speed = speeds.mean();
    out.speed_stddev = speeds.stddev();
    if (!headings.empty()) out.heading = headings.back();
    if (headings.size() >= 2) {
      stats::RunningStats changes;
      for (std::size_t i = 1; i < headings.size(); ++i) {
        changes.add(geo::angle_diff(headings[i], headings[i - 1]));
      }
      const double mean_sq =
          changes.variance() + changes.mean() * changes.mean();
      out.heading_change_stddev = std::sqrt(mean_sq);
    }
    return out;
  }

 private:
  struct Sample {
    SimTime t;
    geo::Vec2 position;
  };
  ClassifierParams params_;
  std::unordered_map<MnId, std::deque<Sample>> windows_;
};

void expect_bit_identical(const MotionFeatures& got,
                          const MotionFeatures& want, int step) {
  EXPECT_EQ(got.samples, want.samples) << "step " << step;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean_speed),
            std::bit_cast<std::uint64_t>(want.mean_speed))
      << "step " << step;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.speed_stddev),
            std::bit_cast<std::uint64_t>(want.speed_stddev))
      << "step " << step;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.heading),
            std::bit_cast<std::uint64_t>(want.heading))
      << "step " << step;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.heading_change_stddev),
            std::bit_cast<std::uint64_t>(want.heading_change_stddev))
      << "step " << step;
}

class WindowSizes : public testing::TestWithParam<std::size_t> {};

TEST_P(WindowSizes, FeaturesAreBitIdenticalToTheWholeWindowPass) {
  // Random walks mixing every kind of step the cached-step window must
  // reproduce: stops, sub-epsilon drift, walks, runs, headings that wrap
  // across +-pi, uneven sample periods, duplicate ticks and forgotten MNs.
  ClassifierParams params;
  params.window = GetParam();
  MobilityClassifier classifier(params);
  ReferenceWindows reference(params);
  util::RngStream rng(11 + GetParam());
  // Dense ids plus one far beyond the direct-array range.
  const std::vector<MnId> mns{MnId{0}, MnId{1}, MnId{7},
                              MnId{0xFFFFFFF0u}};
  std::vector<double> t(mns.size(), 0.0);
  std::vector<geo::Vec2> p(mns.size());
  std::vector<double> heading(mns.size(), 0.0);
  for (int step = 0; step < 6000; ++step) {
    const std::size_t k = rng.index(mns.size());
    const MnId mn = mns[k];
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.01) {
      classifier.forget(mn);
      reference.forget(mn);
    } else {
      const double dt_roll = rng.uniform(0.0, 1.0);
      const double dt = dt_roll < 0.1   ? 0.0  // duplicate tick
                        : dt_roll < 0.2 ? rng.uniform(0.05, 3.0)
                                        : 1.0;
      t[k] += dt;
      double speed = 0.0;
      if (roll < 0.25) {
        speed = 0.0;  // stopped
      } else if (roll < 0.35) {
        speed = rng.uniform(0.0, 2.0 * params.stop_epsilon);  // drift
      } else if (roll < 0.85) {
        speed = rng.uniform(0.3, params.walk_velocity);
        heading[k] += rng.uniform(-1.5, 1.5);
      } else {
        speed = rng.uniform(params.walk_velocity, 12.0);
        heading[k] = std::numbers::pi + rng.uniform(-0.2, 0.2);  // wraps
      }
      p[k] += geo::from_polar(heading[k], speed * (dt > 0.0 ? dt : 1.0));
      classifier.observe(mn, t[k], p[k]);
      reference.observe(mn, t[k], p[k]);
    }
    const MotionFeatures got = classifier.features(mn);
    const MotionFeatures want = reference.features(mn);
    expect_bit_identical(got, want, step);
    // Both classify overloads read the same features.
    EXPECT_EQ(classifier.classify(mn), classifier.classify(want));
    if (testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSizes, testing::Values(2, 3, 8, 17));

TEST(Classifier, ForgottenMnStartsAFreshWindow) {
  MobilityClassifier classifier;
  const MnId mn{3};
  for (int i = 0; i < 10; ++i) {
    classifier.observe(mn, i, {3.0 * i, 0.0});
  }
  classifier.forget(mn);
  EXPECT_EQ(classifier.features(mn).samples, 0u);
  // Time may restart after a forget; the old heading leaves no turn.
  classifier.observe(mn, 0.0, {0.0, 0.0});
  classifier.observe(mn, 1.0, {0.0, 1.0});
  classifier.observe(mn, 2.0, {0.0, 2.0});
  const MotionFeatures f = classifier.features(mn);
  EXPECT_EQ(f.samples, 3u);
  EXPECT_EQ(f.heading_change_stddev, 0.0);
  EXPECT_NEAR(f.heading, std::numbers::pi / 2.0, 1e-12);
  EXPECT_EQ(classifier.tracked_count(), 1u);
  classifier.forget(MnId{99});  // never seen: no effect
  EXPECT_EQ(classifier.tracked_count(), 1u);
}

}  // namespace
}  // namespace mgrid::core
