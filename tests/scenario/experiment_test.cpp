#include "scenario/experiment.h"

#include <gtest/gtest.h>

#include "scenario/result_io.h"

namespace mgrid::scenario {
namespace {

ExperimentOptions short_options() {
  ExperimentOptions options;
  options.duration = 60.0;
  options.seed = 42;
  return options;
}

TEST(Experiment, Validation) {
  ExperimentOptions options;
  options.duration = 0.0;
  EXPECT_THROW((void)run_experiment(options), std::invalid_argument);
}

TEST(Experiment, IdealTransmitsEverySample) {
  ExperimentOptions options = short_options();
  options.filter = FilterKind::kIdeal;
  const ExperimentResult result = run_experiment(options);
  EXPECT_EQ(result.node_count, 140u);
  EXPECT_EQ(result.total_attempted, result.total_transmitted);
  EXPECT_EQ(result.transmission_rate, 1.0);
  // 140 nodes x one LU per second (the initial batch plus per-grant batches
  // minus the in-flight tail).
  EXPECT_NEAR(result.mean_lu_per_bucket, 140.0, 1.0);
}

TEST(Experiment, AdfReducesTraffic) {
  ExperimentOptions ideal = short_options();
  ideal.filter = FilterKind::kIdeal;
  ExperimentOptions adf = short_options();
  adf.filter = FilterKind::kAdf;
  const ExperimentResult ideal_result = run_experiment(ideal);
  const ExperimentResult adf_result = run_experiment(adf);
  EXPECT_LT(adf_result.total_transmitted,
            ideal_result.total_transmitted * 8 / 10);
  EXPECT_GT(adf_result.final_cluster_count, 0u);
}

TEST(Experiment, ReductionIsMonotoneInDthFactor) {
  std::uint64_t previous = std::numeric_limits<std::uint64_t>::max();
  for (double factor : {0.75, 1.0, 1.25}) {
    ExperimentOptions options = short_options();
    options.filter = FilterKind::kAdf;
    options.dth_factor = factor;
    const ExperimentResult result = run_experiment(options);
    EXPECT_LT(result.total_transmitted, previous) << factor;
    previous = result.total_transmitted;
  }
}

TEST(Experiment, BuildingsFilterMoreThanRoadsAtSmallDth) {
  ExperimentOptions options = short_options();
  options.duration = 120.0;
  options.filter = FilterKind::kAdf;
  options.dth_factor = 0.75;
  const ExperimentResult result = run_experiment(options);
  EXPECT_GT(result.road_transmission_rate,
            result.building_transmission_rate);
}

TEST(Experiment, LocationEstimationReducesRmse) {
  ExperimentOptions without_le = short_options();
  without_le.duration = 120.0;
  without_le.filter = FilterKind::kAdf;
  ExperimentOptions with_le = without_le;
  with_le.estimator = "brown_polar";
  const ExperimentResult no_le = run_experiment(without_le);
  const ExperimentResult le = run_experiment(with_le);
  EXPECT_LT(le.rmse_overall, no_le.rmse_overall);
  EXPECT_GT(le.broker_stats.estimates_made, 0u);
  EXPECT_EQ(no_le.broker_stats.estimates_made, 0u);
}

TEST(Experiment, RoadErrorExceedsBuildingError) {
  ExperimentOptions options = short_options();
  options.duration = 120.0;
  options.filter = FilterKind::kAdf;
  const ExperimentResult result = run_experiment(options);
  EXPECT_GT(result.rmse_road, 2.0 * result.rmse_building);
}

TEST(Experiment, SeriesLengthsMatchDuration) {
  ExperimentOptions options = short_options();
  const ExperimentResult result = run_experiment(options);
  // One bucket per second; the initial batch lands in bucket 0.
  EXPECT_GE(result.lu_per_bucket.size(), 59u);
  EXPECT_LE(result.lu_per_bucket.size(), 61u);
  EXPECT_EQ(result.lu_cumulative.size(), result.lu_per_bucket.size());
  EXPECT_FALSE(result.rmse_per_bucket.empty());
  // Cumulative series is monotone.
  for (std::size_t i = 1; i < result.lu_cumulative.size(); ++i) {
    EXPECT_GE(result.lu_cumulative[i], result.lu_cumulative[i - 1]);
  }
}

TEST(Experiment, DeterministicForFixedSeed) {
  const ExperimentResult a = run_experiment(short_options());
  const ExperimentResult b = run_experiment(short_options());
  EXPECT_EQ(a.total_transmitted, b.total_transmitted);
  EXPECT_EQ(a.rmse_overall, b.rmse_overall);
  EXPECT_EQ(a.lu_per_bucket, b.lu_per_bucket);
}

TEST(Experiment, ThreadedExecutorMatchesSequential) {
  ExperimentOptions sequential = short_options();
  ExperimentOptions threaded = short_options();
  threaded.mode = sim::ExecutionMode::kThreaded;
  const ExperimentResult a = run_experiment(sequential);
  const ExperimentResult b = run_experiment(threaded);
  EXPECT_EQ(a.total_transmitted, b.total_transmitted);
  EXPECT_EQ(a.lu_per_bucket, b.lu_per_bucket);
  EXPECT_DOUBLE_EQ(a.rmse_overall, b.rmse_overall);
}

TEST(Experiment, ThreadedMatchesSequentialOnEveryTopic) {
  // Every interaction topic in flight at once: logical scoring delays the
  // truths (so merged batches are out of timestamp order), the job
  // workload sends assignments and results, device-side filtering pushes
  // DTHs down and suppresses LUs, suppressed nodes send keepalives, and two
  // ADF shards relay. Both executors must agree on every result field.
  ExperimentOptions sequential;
  sequential.duration = 150.0;
  sequential.seed = 11;
  sequential.campus_blocks = 3;
  sequential.scoring = ScoringMode::kLogical;
  sequential.jobs.rate = 0.5;
  sequential.jobs.timeout = 30.0;
  sequential.device_side_filtering = true;
  sequential.keepalive_interval = 10.0;
  sequential.adf_shards = 2;
  ExperimentOptions threaded = sequential;
  threaded.mode = sim::ExecutionMode::kThreaded;
  const ExperimentResult a = run_experiment(sequential);
  const ExperimentResult b = run_experiment(threaded);

  EXPECT_GT(a.jobs.submitted, 0u);
  EXPECT_GT(a.jobs.completed, 0u);
  EXPECT_GT(a.dth_downlink_messages, 0u);
  EXPECT_GT(a.energy.lus_suppressed_on_device, 0u);
  EXPECT_GT(a.keepalives_received, 0u);
  EXPECT_GT(a.total_transmitted, 0u);

  // The JSON export carries every reported field, doubles in round-trip
  // precision; the federation counters it leaves out are checked directly.
  EXPECT_EQ(to_json(sequential, a), to_json(sequential, b));
  EXPECT_EQ(a.federation_stats.interactions_sent,
            b.federation_stats.interactions_sent);
  EXPECT_EQ(a.federation_stats.interactions_delivered,
            b.federation_stats.interactions_delivered);
  EXPECT_EQ(a.federation_stats.max_pending, b.federation_stats.max_pending);
  EXPECT_EQ(a.federation_stats.cycles, b.federation_stats.cycles);
}

TEST(Experiment, LossyChannelDropsLus) {
  ExperimentOptions options = short_options();
  options.filter = FilterKind::kIdeal;
  options.channel.loss_probability = 0.2;
  const ExperimentResult result = run_experiment(options);
  EXPECT_GT(result.lus_lost_on_air, 0u);
  // Roughly 20% of ~140*61 samples are lost before reaching the ADF.
  const double loss_rate =
      static_cast<double>(result.lus_lost_on_air) /
      static_cast<double>(result.lus_lost_on_air + result.total_attempted);
  EXPECT_NEAR(loss_rate, 0.2, 0.03);
}

TEST(Experiment, LossIncreasesBrokerError) {
  ExperimentOptions clean = short_options();
  clean.duration = 120.0;
  clean.filter = FilterKind::kIdeal;
  ExperimentOptions lossy = clean;
  lossy.channel.loss_probability = 0.5;
  const ExperimentResult clean_result = run_experiment(clean);
  const ExperimentResult lossy_result = run_experiment(lossy);
  EXPECT_GT(lossy_result.rmse_overall, clean_result.rmse_overall);
}

TEST(Experiment, GeneralDfAlsoFiltersButIsOneSizeFitsAll) {
  ExperimentOptions options = short_options();
  options.duration = 120.0;
  options.filter = FilterKind::kGeneralDf;
  options.dth_factor = 1.0;
  const ExperimentResult result = run_experiment(options);
  EXPECT_LT(result.transmission_rate, 0.9);
  EXPECT_EQ(result.final_cluster_count, 0u);  // no clustering in the baseline
}

TEST(Experiment, HandoversHappen) {
  ExperimentOptions options = short_options();
  options.duration = 120.0;
  const ExperimentResult result = run_experiment(options);
  EXPECT_GT(result.handovers, 0u);  // road nodes roam between regions
}

TEST(Experiment, FederationStatsArePlausible) {
  ExperimentOptions options = short_options();
  const ExperimentResult result = run_experiment(options);
  EXPECT_EQ(result.federation_stats.cycles, 60u);
  // Truth + LU interactions flow every cycle.
  EXPECT_GT(result.federation_stats.interactions_sent, 2u * 140u * 59u);
  EXPECT_GT(result.federation_stats.interactions_delivered, 0u);
}

}  // namespace
}  // namespace mgrid::scenario
