#include "core/adf.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numbers>
#include <vector>

#include "core/baselines.h"
#include "util/rng.h"

namespace mgrid::core {
namespace {

using mobility::MobilityPattern;

TEST(Adf, ParamValidation) {
  AdfParams bad;
  bad.dth_factor = 0.0;
  EXPECT_THROW(AdaptiveDistanceFilter{bad}, std::invalid_argument);
  bad = {};
  bad.sample_period = 0.0;
  EXPECT_THROW(AdaptiveDistanceFilter{bad}, std::invalid_argument);
  bad = {};
  bad.stop_dth_factor = -1.0;
  EXPECT_THROW(AdaptiveDistanceFilter{bad}, std::invalid_argument);
  bad = {};
  bad.recluster_interval = -1.0;
  EXPECT_THROW(AdaptiveDistanceFilter{bad}, std::invalid_argument);
}

TEST(Adf, StationaryNodeTransmitsOnceThenSilence) {
  AdaptiveDistanceFilter adf;
  const MnId mn{1};
  int transmissions = 0;
  for (int t = 0; t < 60; ++t) {
    if (adf.process(mn, t, {10, 10}).transmit) ++transmissions;
  }
  EXPECT_EQ(transmissions, 1);  // only the first sighting
  EXPECT_EQ(adf.filtered(), 59u);
}

TEST(Adf, StationaryNodeIsClassifiedStopAndUnclustered) {
  AdaptiveDistanceFilter adf;
  const MnId mn{1};
  FilterDecision decision;
  for (int t = 0; t < 10; ++t) decision = adf.process(mn, t, {10, 10});
  EXPECT_EQ(decision.pattern, MobilityPattern::kStop);
  EXPECT_FALSE(decision.cluster.valid());
  EXPECT_EQ(adf.clusterer().cluster_count(), 0u);
  EXPECT_GT(decision.dth, 0.0);  // the stop-state threshold
}

TEST(Adf, MovingNodeGetsClusteredWithSpeedBasedDth) {
  AdaptiveDistanceFilter adf;
  const MnId mn{2};
  FilterDecision decision;
  for (int t = 0; t < 10; ++t) {
    decision = adf.process(mn, t, {3.0 * t, 0.0});  // 3 m/s runner
  }
  EXPECT_EQ(decision.pattern, MobilityPattern::kLinear);
  ASSERT_TRUE(decision.cluster.valid());
  // DTH = factor(1.0) * cluster mean speed (~3) * period (1 s).
  EXPECT_NEAR(decision.dth, 3.0, 0.3);
  EXPECT_NEAR(adf.current_dth(mn), decision.dth, 1e-12);
}

TEST(Adf, NodeMovingAtClusterMeanTransmitsEveryOtherTickAtFactorOne) {
  AdaptiveDistanceFilter adf;  // dth_factor = 1.0
  const MnId mn{3};
  int transmissions = 0;
  const int kTicks = 40;
  for (int t = 0; t < kTicks; ++t) {
    if (adf.process(mn, t, {2.5 * t, 0.0}).transmit) ++transmissions;
  }
  // DTH == per-tick displacement -> needs 2 ticks to strictly exceed.
  EXPECT_NEAR(static_cast<double>(transmissions) / kTicks, 0.5, 0.15);
}

TEST(Adf, LargerFactorFiltersMore) {
  std::uint64_t previous_transmitted = std::numeric_limits<std::uint64_t>::max();
  for (double factor : {0.75, 1.0, 1.25, 2.0}) {
    AdfParams params;
    params.dth_factor = factor;
    AdaptiveDistanceFilter adf(params);
    util::RngStream rng(7);
    // A mixed population of walkers at different speeds.
    for (int t = 0; t < 120; ++t) {
      for (unsigned n = 0; n < 10; ++n) {
        const double speed = 0.5 + 0.3 * n;
        adf.process(MnId{n}, t, {speed * t, static_cast<double>(n) * 10.0});
      }
    }
    EXPECT_LT(adf.transmitted(), previous_transmitted) << factor;
    previous_transmitted = adf.transmitted();
  }
}

TEST(Adf, SeparateClustersForWalkersAndVehicles) {
  AdaptiveDistanceFilter adf;
  for (int t = 0; t < 10; ++t) {
    adf.process(MnId{1}, t, {1.0 * t, 0.0});    // walker, 1 m/s
    adf.process(MnId{2}, t, {1.1 * t, 50.0});   // walker, 1.1 m/s
    adf.process(MnId{3}, t, {8.0 * t, 100.0});  // vehicle, 8 m/s
  }
  EXPECT_EQ(adf.clusterer().cluster_count(), 2u);
  // The vehicle's DTH must be much larger than the walkers'.
  EXPECT_GT(adf.current_dth(MnId{3}), 4.0 * adf.current_dth(MnId{1}));
}

TEST(Adf, NodeEnteringStopStateLeavesItsCluster) {
  AdaptiveDistanceFilter adf;
  const MnId mn{4};
  double x = 0.0;
  int t = 0;
  for (; t < 10; ++t) {
    x += 1.5;
    adf.process(mn, t, {x, 0.0});
  }
  EXPECT_EQ(adf.clusterer().cluster_count(), 1u);
  // Stop walking; once the window flushes, the node is SS and unclustered.
  for (; t < 25; ++t) adf.process(mn, t, {x, 0.0});
  EXPECT_EQ(adf.clusterer().cluster_count(), 0u);
}

TEST(Adf, PeriodicRebuildRuns) {
  AdfParams params;
  params.recluster_interval = 10.0;
  AdaptiveDistanceFilter adf(params);
  for (int t = 0; t < 35; ++t) adf.process(MnId{1}, t, {1.0 * t, 0.0});
  EXPECT_GE(adf.rebuilds(), 2u);
  EXPECT_LE(adf.rebuilds(), 4u);
}

TEST(Adf, RebuildDisabledWhenIntervalZero) {
  AdfParams params;
  params.recluster_interval = 0.0;
  AdaptiveDistanceFilter adf(params);
  for (int t = 0; t < 100; ++t) adf.process(MnId{1}, t, {1.0 * t, 0.0});
  EXPECT_EQ(adf.rebuilds(), 0u);
}

TEST(Adf, ErrorIsBoundedByDthPlusOneStep) {
  // The paper's implicit guarantee: the broker's stale view is never
  // farther from the truth than the node's DTH plus one inter-sample move.
  AdaptiveDistanceFilter adf;
  const MnId mn{5};
  geo::Vec2 last_transmitted{};
  util::RngStream rng(11);
  geo::Vec2 p{0, 0};
  double heading = 0.0;
  for (int t = 0; t < 200; ++t) {
    const FilterDecision decision = adf.process(mn, t, p);
    if (decision.transmit) last_transmitted = p;
    const double bound = decision.dth + 2.0 /* max speed per tick */;
    EXPECT_LE(geo::distance(last_transmitted, p), bound + 1e-9);
    heading += rng.uniform(-0.3, 0.3);
    p += geo::from_polar(heading, rng.uniform(0.5, 2.0));
  }
}

TEST(Adf, SparseIdsDecideLikeDenseOnes) {
  // Per-MN state sits in dense slots, with a hash fallback for ids past
  // the direct range. Ids only matter to the rebuild's MnId order, so an
  // order-preserving relabelling — dense ids against ones straddling the
  // fallback — must give bit-identical decisions.
  const std::vector<MnId> dense{MnId{0}, MnId{1}, MnId{2}, MnId{3}, MnId{4}};
  const std::vector<MnId> sparse{MnId{9}, MnId{(1u << 20) - 1},
                                 MnId{1u << 20}, MnId{0xFFFFFFF0u},
                                 MnId{0xFFFFFFFEu}};
  AdfParams params;
  params.recluster_interval = 7.0;
  AdaptiveDistanceFilter a(params);
  AdaptiveDistanceFilter b(params);
  util::RngStream rng(17);
  std::vector<geo::Vec2> p(dense.size());
  std::vector<double> heading(dense.size(), 0.0);
  for (int t = 0; t < 120; ++t) {
    // Visit the nodes in a shuffled order so slot order differs from id
    // order.
    for (std::size_t i = 0; i < dense.size(); ++i) {
      const std::size_t k = (i * 3 + static_cast<std::size_t>(t)) % 5;
      const double speed = k == 0 ? 0.0 : rng.uniform(0.2, 1.0) * k;
      heading[k] += rng.uniform(-0.5, 0.5);
      p[k] += geo::from_polar(heading[k], speed);
      const FilterDecision da = a.process(dense[k], t, p[k]);
      const FilterDecision db = b.process(sparse[k], t, p[k]);
      ASSERT_EQ(da.transmit, db.transmit);
      ASSERT_EQ(da.pattern, db.pattern);
      ASSERT_EQ(da.cluster, db.cluster);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(da.dth),
                std::bit_cast<std::uint64_t>(db.dth));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(da.moved),
                std::bit_cast<std::uint64_t>(db.moved));
    }
  }
  EXPECT_GT(a.rebuilds(), 10u);
  EXPECT_EQ(a.transmitted(), b.transmitted());
  for (std::size_t k = 0; k < dense.size(); ++k) {
    EXPECT_EQ(a.current_dth(dense[k]), b.current_dth(sparse[k]));
  }
  EXPECT_EQ(b.current_dth(MnId{12345}), 0.0);
}

TEST(IdealReporter, TransmitsEverything) {
  IdealReporter ideal;
  EXPECT_THROW((void)ideal.process(MnId::invalid(), 0.0, {0, 0}),
               std::invalid_argument);
  for (int t = 0; t < 10; ++t) {
    const FilterDecision decision = ideal.process(MnId{1}, t, {1.0 * t, 0});
    EXPECT_TRUE(decision.transmit);
    EXPECT_EQ(decision.dth, 0.0);
  }
  EXPECT_EQ(ideal.transmitted(), 10u);
  EXPECT_EQ(ideal.filtered(), 0u);
}

TEST(GeneralDf, WarmupPassesEverything) {
  GeneralDfParams params;
  params.warmup_samples = 50;
  GeneralDistanceFilter df(params);
  int transmissions = 0;
  for (int t = 0; t < 10; ++t) {
    if (df.process(MnId{1}, t, {0.01 * t, 0.0}).transmit) ++transmissions;
  }
  EXPECT_EQ(transmissions, 10);  // global DTH still 0 during warm-up
  EXPECT_EQ(df.global_dth(), 0.0);
}

TEST(GeneralDf, GlobalDthTracksPopulationMean) {
  GeneralDfParams params;
  params.warmup_samples = 10;
  params.dth_factor = 1.0;
  GeneralDistanceFilter df(params);
  // Two nodes at 1 m/s and 3 m/s -> population mean 2 m/s.
  for (int t = 0; t < 30; ++t) {
    df.process(MnId{1}, t, {1.0 * t, 0.0});
    df.process(MnId{2}, t, {3.0 * t, 100.0});
  }
  EXPECT_NEAR(df.population_mean_speed(), 2.0, 0.05);
  EXPECT_NEAR(df.global_dth(), 2.0, 0.05);
}

TEST(GeneralDf, SameDthForEveryNode) {
  // The §3.2.2 critique: a global DTH over-filters slow nodes and
  // under-filters fast ones.
  GeneralDfParams params;
  params.warmup_samples = 4;
  GeneralDistanceFilter df(params);
  std::uint64_t slow_sent = 0;
  std::uint64_t fast_sent = 0;
  for (int t = 0; t < 100; ++t) {
    if (df.process(MnId{1}, t, {0.5 * t, 0.0}).transmit) ++slow_sent;
    if (df.process(MnId{2}, t, {6.0 * t, 100.0}).transmit) ++fast_sent;
  }
  EXPECT_LT(slow_sent, 40u);  // slow node heavily filtered
  EXPECT_GT(fast_sent, 90u);  // fast node barely filtered
}

TEST(Adf, AdaptiveBeatsGeneralOnHeterogeneousPopulation) {
  // At the same factor, the ADF should achieve a *more balanced* filtering:
  // the general DF lets the fast half through unfiltered while starving the
  // slow half. Compare the slow nodes' transmission counts.
  AdfParams adf_params;
  adf_params.dth_factor = 1.0;
  AdaptiveDistanceFilter adf(adf_params);
  GeneralDfParams df_params;
  df_params.dth_factor = 1.0;
  df_params.warmup_samples = 8;
  GeneralDistanceFilter general(df_params);

  std::uint64_t adf_slow = 0;
  std::uint64_t general_slow = 0;
  for (int t = 0; t < 200; ++t) {
    for (unsigned n = 0; n < 4; ++n) {
      const double speed = (n < 2) ? 0.8 : 7.0;  // two walkers, two vehicles
      const geo::Vec2 p{speed * t, static_cast<double>(n) * 50.0};
      const bool a = adf.process(MnId{n}, t, p).transmit;
      const bool g = general.process(MnId{n}, t, p).transmit;
      if (n < 2) {
        adf_slow += a ? 1 : 0;
        general_slow += g ? 1 : 0;
      }
    }
  }
  // The per-cluster DTH lets slow nodes report far more often than the
  // population-mean DTH does.
  EXPECT_GT(adf_slow, 2 * general_slow);
}

}  // namespace
}  // namespace mgrid::core
