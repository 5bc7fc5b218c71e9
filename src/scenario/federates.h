// The three federates of the mobile-grid federation (paper Fig. 3 + §3.4).
//
//   MobilityFederate — the mobile computing infrastructure: integrates all
//     MN motion at sub-tick resolution, associates nodes with wireless
//     gateways, tracks per-device radio energy, and publishes every sampled
//     position as an LU (plus a ground-truth interaction used only for
//     scoring). In device-side mode the node itself suppresses LUs using
//     the DTH the ADF pushed down to it.
//   FilterFederate — the ADF box: runs a LocationUpdateFilter over incoming
//     LUs and forwards only the surviving ones to the broker; accounts
//     traffic per region kind. In device-side mode it computes and pushes
//     DTHs instead of filtering.
//   BrokerFederate — the grid infrastructure: LocationDb + optional
//     Location Estimator; scores its view against the ground-truth stream
//     under either accounting mode (see ScoringMode).
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "broker/grid_broker.h"
#include "broker/scheduler.h"
#include "core/adf.h"
#include "core/device_filter.h"
#include "core/update_filter.h"
#include "geo/campus.h"
#include "net/bursty_channel.h"
#include "net/channel.h"
#include "net/energy.h"
#include "net/gateway.h"
#include "net/message.h"
#include "net/traffic.h"
#include "scenario/metrics.h"
#include "scenario/workload.h"
#include "sim/federate.h"
#include "util/mn_slots.h"

namespace mgrid::scenario {

/// Ground-truth interaction (not a network message — scoring only).
inline constexpr std::string_view kTopicTruth = "mn.truth";

struct TruthSample final : sim::InteractionPayload {
  MnId mn;
  geo::Vec2 position;
  geo::Vec2 velocity;
  SimTime sampled_at = 0.0;
  geo::RegionKind region_kind = geo::RegionKind::kRoad;
};

/// How the broker's location error is scored against ground truth.
///
///  * kRealTime — error between the truth at time t and the view the broker
///    actually held at t; the 2-cycle MN->ADF->broker delivery latency is
///    charged to the broker (what a live job scheduler experiences).
///  * kLogical — the paper's accounting: truth(t) is compared against the
///    broker's belief about time t once the (unfiltered) LU for t has had
///    time to arrive; the ideal reporter scores ~0 and all remaining error
///    is attributable to filtering (and estimation quality).
enum class ScoringMode { kRealTime, kLogical };

/// Grid job workload: the broker recruits MNs for compute jobs through the
/// federation (JobAssign down, JobResult up). rate == 0 disables jobs.
struct JobWorkloadConfig {
  /// Mean job arrivals per second (Poisson).
  double rate = 0.0;
  /// Work units per job (uniform range).
  mobility::SpeedRange work{5.0, 20.0};
  /// Seconds before an unanswered job is declared failed.
  Duration timeout = 60.0;
  /// MNs recruited per job.
  std::size_t replicas = 1;
  broker::SchedulerParams scheduler;
};

/// Outcome of the job workload.
struct JobReport {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;
  /// Jobs that never found enough candidates.
  std::uint64_t still_pending = 0;
  /// Jobs in flight when the run ended.
  std::uint64_t still_running = 0;
  /// Mean seconds from submission to the last replica's result.
  double mean_completion_time = 0.0;
  /// Mean TRUE distance between an assignee and the job site at assignment
  /// (locality of the broker's picks — measured on the device).
  double mean_dispatch_distance = 0.0;
};

/// Per-device energy outcome of a run.
struct DeviceEnergyReport {
  std::uint64_t lus_transmitted = 0;
  std::uint64_t lus_suppressed_on_device = 0;
  std::uint64_t dth_updates_received = 0;
  std::uint64_t lus_dropped_battery = 0;
  /// Mean joules spent on the radio per node, by device class and overall.
  double mean_energy_j = 0.0;
  double mean_energy_cellphone_j = 0.0;
  double mean_energy_pda_j = 0.0;
  double mean_energy_laptop_j = 0.0;
  /// Projected mean cell-phone lifetime at this run's drain rate, hours
  /// (capacity / (consumed/duration) / 3600; 0 when nothing was consumed).
  double projected_cellphone_lifetime_h = 0.0;
};

struct MobilityConfig {
  Duration sample_period = 1.0;
  /// Sub-tick motion integration step; must divide sample_period.
  Duration motion_dt = 0.1;
  /// Ground-truth timestamp delay for kLogical scoring (see ScoringMode).
  Duration truth_delay = 0.0;
  /// Uniform loss/latency channel.
  net::ChannelParams channel;
  /// Bursty (Gilbert-Elliott) channel; p_enter_bad == 0 disables it and the
  /// uniform channel above applies instead.
  net::GilbertElliottChannel::Params burst;
  /// Device-side filtering: nodes suppress LUs locally using ADF-pushed
  /// DTHs (subscribes to the DTH downlink).
  bool device_side = false;
  /// Radio energy model (always accounted, whatever the filtering mode).
  net::EnergyParams energy;
  /// Liveness beacons: when a node has not transmitted anything for this
  /// long (its LUs were all suppressed), it sends a small KeepAlive so the
  /// broker can tell "parked" from "dead". 0 disables keepalives.
  Duration keepalive_interval = 0.0;
};

class MobilityFederate final : public sim::Federate {
 public:
  /// `workload` and `gateways` must outlive the federate.
  MobilityFederate(Workload& workload, net::GatewayNetwork& gateways,
                   MobilityConfig config, util::RngStream channel_rng);

  void on_join() override;
  void on_start(SimTime t0) override;
  void receive(const sim::Interaction& interaction) override;
  void on_time_grant(SimTime t) override;

  /// One MN-tick for every node: samples its position (one region lookup),
  /// updates its gateway association and sends its truth and, unless
  /// suppressed or lost, its LU stamped `t`. on_start() and
  /// on_time_grant() call it; it is public so its per-MN-tick cost can be
  /// measured on its own. Only valid while joined, at `t` >= the grant.
  void publish_samples(SimTime t);

  [[nodiscard]] std::uint64_t lus_published() const noexcept {
    return lus_published_;
  }
  [[nodiscard]] std::uint64_t lus_lost() const noexcept { return lus_lost_; }
  [[nodiscard]] std::uint64_t keepalives_sent() const noexcept {
    return keepalives_sent_;
  }

  /// Energy/suppression outcome; `duration` is the run length used for the
  /// lifetime projection.
  [[nodiscard]] DeviceEnergyReport energy_report(Duration duration) const;

  /// Mean TRUE assignee-to-site distance at assignment and jobs finished on
  /// devices (the device half of the JobReport).
  [[nodiscard]] double mean_dispatch_distance() const noexcept {
    return dispatch_distance_.mean();
  }
  [[nodiscard]] std::uint64_t jobs_computed() const noexcept {
    return jobs_computed_;
  }

  /// Device-side suppression accounting (mirrors into the metrics registry;
  /// only record_suppressed is ever hit from this federate).
  [[nodiscard]] const net::TrafficAccountant& accountant() const noexcept {
    return accountant_;
  }

 private:
  struct ActiveJob {
    JobId job;
    double remaining_units;
  };

  void run_compute(SimTime t);
  [[nodiscard]] bool channel_delivers(MnId mn);

  Workload& workload_;
  net::GatewayNetwork& gateways_;
  MobilityConfig config_;
  std::size_t substeps_;
  net::ChannelModel channel_;
  std::unique_ptr<net::GilbertElliottChannel> bursty_;
  util::RngStream channel_rng_;
  net::EnergyModel energy_;
  net::TrafficAccountant accountant_;
  std::vector<net::Battery> batteries_;           // by MnId
  std::vector<core::DeviceSideFilter> device_filters_;  // by MnId
  std::vector<SimTime> last_transmission_;        // by MnId
  std::vector<std::vector<ActiveJob>> job_queues_;  // by MnId, FIFO
  stats::RunningStats dispatch_distance_;
  std::uint64_t jobs_computed_ = 0;
  std::uint64_t lus_published_ = 0;
  std::uint64_t lus_lost_ = 0;
  std::uint64_t lus_dropped_battery_ = 0;
  std::uint64_t keepalives_sent_ = 0;
  sim::TopicId truth_topic_;
  sim::TopicId lu_topic_;
  sim::TopicId job_result_topic_;
  sim::TopicId dth_topic_;
  sim::TopicId job_assign_topic_;
};

class FilterFederate final : public sim::Federate {
 public:
  /// Takes ownership of the filtering policy. `gateways` (and its campus)
  /// must outlive the federate: an LU's region kind is its relaying
  /// gateway's coverage region. `bucket_width` sizes the Fig. 4 series
  /// buckets.
  ///
  /// `device_side` true switches the ADF box from filtering to DTH
  /// publication: every received LU is forwarded (the device already
  /// filtered), and the node's DTH is pushed on the downlink whenever it
  /// drifts by more than `dth_hysteresis` (relative). Requires the filter
  /// to be an AdaptiveDistanceFilter.
  ///
  /// Sharded deployment: with `shard_count > 1`, this instance only
  /// processes LUs whose relaying gateway hashes to `shard_index`
  /// (edge-of-network ADFs, one per gateway group). Each shard runs its
  /// own classifier/clusterer — a node crossing shards is re-learned by
  /// the new shard, which is the realistic handover cost.
  FilterFederate(std::unique_ptr<core::LocationUpdateFilter> filter,
                 const net::GatewayNetwork& gateways,
                 Duration bucket_width = 1.0,
                 bool device_side = false, double dth_hysteresis = 0.1,
                 std::size_t shard_index = 0, std::size_t shard_count = 1);

  void on_join() override;
  void receive(const sim::Interaction& interaction) override;

  [[nodiscard]] const TrafficMetrics& traffic() const noexcept {
    return traffic_;
  }
  /// Gateway-crossing traffic seen by this shard: every LU/beacon that
  /// survived the air is recorded uplink here (post shard-dedup, so shards
  /// never double-count), DTH pushes downlink, and server-side filter
  /// decisions feed the suppressed count. All totals mirror into the
  /// process-global metrics registry.
  [[nodiscard]] const net::TrafficAccountant& accountant() const noexcept {
    return accountant_;
  }
  [[nodiscard]] const core::LocationUpdateFilter& filter() const noexcept {
    return *filter_;
  }
  [[nodiscard]] std::uint64_t dth_updates_published() const noexcept {
    return dth_updates_published_;
  }

 private:
  std::unique_ptr<core::LocationUpdateFilter> filter_;
  core::AdaptiveDistanceFilter* adf_ = nullptr;  // set in device-side mode
  const net::GatewayNetwork& gateways_;
  TrafficMetrics traffic_;
  net::TrafficAccountant accountant_;
  bool device_side_;
  double dth_hysteresis_;
  std::size_t shard_index_;
  std::size_t shard_count_;
  std::unordered_map<MnId, double> pushed_dth_;
  std::uint64_t dth_updates_published_ = 0;
  sim::TopicId lu_topic_;
  sim::TopicId filtered_topic_;
  sim::TopicId dth_topic_;
};

class BrokerFederate final : public sim::Federate {
 public:
  /// `estimator_prototype` nullptr disables location estimation (the
  /// "without LE" configurations). When `jobs.rate > 0`, the federate also
  /// runs the grid-job workload: Poisson arrivals at random building
  /// sites, dispatched through the location-aware JobScheduler, with a
  /// per-job timeout. `campus` may be nullptr when jobs are disabled.
  BrokerFederate(
      std::unique_ptr<estimation::LocationEstimator> estimator_prototype,
      Duration bucket_width = 1.0,
      ScoringMode scoring = ScoringMode::kRealTime,
      JobWorkloadConfig jobs = {}, const geo::CampusMap* campus = nullptr,
      util::RngStream job_rng = util::RngStream(0));

  void on_join() override;
  void receive(const sim::Interaction& interaction) override;
  void on_time_grant(SimTime t) override;

  [[nodiscard]] const broker::GridBroker& broker() const noexcept {
    return broker_;
  }
  [[nodiscard]] const ErrorMetrics& errors() const noexcept { return errors_; }

  /// Broker-side half of the job outcome (dispatch distance is filled in
  /// by the experiment runner from the mobility federate).
  [[nodiscard]] JobReport job_report() const;

 private:
  struct BufferedTruth {
    MnId mn;
    geo::Vec2 position;
    SimTime sampled_at;
    geo::RegionKind kind;
  };
  struct TrackedJob {
    SimTime deadline;
    bool dispatched = false;
    double work_units = 0.0;
    geo::Vec2 site;
  };

  void run_job_workload(SimTime t);
  void dispatch(JobId job, SimTime t);

  broker::GridBroker broker_;
  ErrorMetrics errors_;
  ScoringMode scoring_;
  std::vector<BufferedTruth> truths_;
  // Real-time scoring: every known MN's view at the end of the last grant,
  // by slot.
  util::MnSlotIndex view_slots_;
  std::vector<geo::Vec2> views_;

  JobWorkloadConfig jobs_;
  const geo::CampusMap* campus_;
  util::RngStream job_rng_;
  broker::JobScheduler scheduler_;
  std::map<JobId, TrackedJob> tracked_jobs_;
  SimTime next_arrival_ = -1.0;
  std::uint32_t next_job_id_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_timed_out_ = 0;
  stats::RunningStats completion_time_;
  sim::TopicId filtered_topic_;
  sim::TopicId truth_topic_;
  sim::TopicId job_result_topic_;
  sim::TopicId job_assign_topic_;
};

}  // namespace mgrid::scenario
