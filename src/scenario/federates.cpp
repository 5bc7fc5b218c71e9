#include "scenario/federates.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/eventlog.h"

namespace mgrid::scenario {

namespace {

/// Region kind as the eventlog's single-char code.
char region_code(geo::RegionKind kind) noexcept {
  switch (kind) {
    case geo::RegionKind::kRoad:
      return 'R';
    case geo::RegionKind::kBuilding:
      return 'B';
    case geo::RegionKind::kGate:
      return 'G';
  }
  return '?';
}

}  // namespace

// ---------------------------------------------------------------------------
// MobilityFederate
// ---------------------------------------------------------------------------

MobilityFederate::MobilityFederate(Workload& workload,
                                   net::GatewayNetwork& gateways,
                                   MobilityConfig config,
                                   util::RngStream channel_rng)
    : Federate("mobility", /*lookahead=*/0.0),
      workload_(workload),
      gateways_(gateways),
      config_(config),
      substeps_(0),
      channel_(net::ChannelModel(config.channel)),
      channel_rng_(channel_rng),
      energy_(config.energy) {
  if (!(config.sample_period > 0.0) || !(config.motion_dt > 0.0)) {
    throw std::invalid_argument("MobilityFederate: periods must be > 0");
  }
  if (config.truth_delay < 0.0) {
    throw std::invalid_argument("MobilityFederate: truth_delay must be >= 0");
  }
  const double ratio = config.sample_period / config.motion_dt;
  substeps_ = static_cast<std::size_t>(std::llround(ratio));
  if (substeps_ == 0 || std::abs(ratio - static_cast<double>(substeps_)) >
                            1e-6 * static_cast<double>(substeps_)) {
    throw std::invalid_argument(
        "MobilityFederate: sample_period must be a multiple of motion_dt");
  }
  if (config.burst.p_enter_bad > 0.0) {
    bursty_ = std::make_unique<net::GilbertElliottChannel>(config.burst);
  }
  batteries_.reserve(workload.size());
  device_filters_.resize(workload.size());
  job_queues_.resize(workload.size());
  last_transmission_.assign(workload.size(),
                            -std::numeric_limits<double>::infinity());
  for (const mobility::MobileNode& node : workload.nodes()) {
    batteries_.emplace_back(
        net::default_battery_capacity_j(node.spec().device));
  }
}

void MobilityFederate::on_join() {
  if (config_.device_side) dth_topic_ = subscribe(net::kTopicDthUpdate);
  job_assign_topic_ = subscribe(net::kTopicJobAssign);
  truth_topic_ = topic(kTopicTruth);
  lu_topic_ = topic(net::kTopicLocationUpdate);
  job_result_topic_ = topic(net::kTopicJobResult);
}

/// Compute throughput by device class, work units per second.
static double device_compute_rate(mobility::DeviceType device) noexcept {
  switch (device) {
    case mobility::DeviceType::kLaptop:
      return 2.0;
    case mobility::DeviceType::kPda:
      return 1.0;
    case mobility::DeviceType::kCellPhone:
      return 0.5;
  }
  return 0.5;
}

void MobilityFederate::receive(const sim::Interaction& interaction) {
  if (interaction.topic == dth_topic_) {
    const auto* update = interaction.payload_as<net::DthUpdate>();
    if (update == nullptr || !update->mn.valid() ||
        update->mn.value() >= device_filters_.size()) {
      return;  // unknown node (e.g. scaled-down rerun); ignore
    }
    device_filters_[update->mn.value()].set_dth(update->dth);
    batteries_[update->mn.value()].drain(
        energy_.rx_cost_j(update->wire_bytes()));
    return;
  }
  if (interaction.topic == job_assign_topic_) {
    const auto* assign = interaction.payload_as<net::JobAssign>();
    if (assign == nullptr || !assign->assignee.valid() ||
        assign->assignee.value() >= job_queues_.size()) {
      return;
    }
    const MnId mn = assign->assignee;
    batteries_[mn.value()].drain(energy_.rx_cost_j(assign->wire_bytes()));
    // Locality of the broker's pick: TRUE distance to the job's data site.
    dispatch_distance_.add(
        geo::distance(workload_.node(mn).position(), assign->site));
    job_queues_[mn.value()].push_back(
        ActiveJob{assign->job, assign->work_units});
    return;
  }
}

void MobilityFederate::run_compute(SimTime t) {
  for (const mobility::MobileNode& node : workload_.nodes()) {
    std::vector<ActiveJob>& queue = job_queues_[node.id().value()];
    if (queue.empty()) continue;
    double budget =
        device_compute_rate(node.spec().device) * config_.sample_period;
    while (!queue.empty() && budget > 0.0) {
      ActiveJob& job = queue.front();
      const double spent = std::min(budget, job.remaining_units);
      job.remaining_units -= spent;
      budget -= spent;
      if (job.remaining_units > 0.0) break;
      // Job finished: report back (the result message can be lost or the
      // battery may be dead — the broker's timeout handles both).
      ++jobs_computed_;
      net::Battery& battery = batteries_[node.id().value()];
      auto result = std::make_shared<net::JobResult>();
      result->job = job.job;
      result->worker = node.id();
      result->success = true;
      result->completed_at = t;
      queue.erase(queue.begin());
      if (battery.empty()) continue;
      battery.drain(energy_.tx_cost_j(result->wire_bytes()));
      if (!channel_delivers(node.id())) continue;
      send(job_result_topic_, t, std::move(result));
    }
  }
}

bool MobilityFederate::channel_delivers(MnId mn) {
  if (bursty_ != nullptr) return bursty_->deliver(mn, channel_rng_);
  return channel_.deliver(channel_rng_);
}

void MobilityFederate::publish_samples(SimTime t) {
  const bool eventlog = obs::eventlog_enabled();
  const geo::CampusMap& campus = workload_.campus();
  for (const mobility::MobileNode& node : workload_.nodes()) {
    const geo::Vec2 position = node.position();
    const geo::Vec2 velocity = node.velocity();
    // The one region lookup of this MN-tick: it gives the sample's kind and
    // its serving gateway.
    const RegionId region = gateways_.serving_region(position);
    const geo::RegionKind kind = campus.region(region).kind();
    // Open this sample's eventlog record (and point the thread cursor at
    // it) before the pipeline stages below annotate their outcomes.
    if (eventlog) {
      obs::evt::sample(static_cast<std::uint32_t>(node.id().value()), t,
                       position.x, position.y, region_code(kind));
    }
    const auto association = gateways_.update_association(node.id(), region);

    // Ground truth for scoring (not a network message, never lost).
    {
      auto truth = std::make_shared<TruthSample>();
      truth->mn = node.id();
      truth->position = position;
      truth->velocity = velocity;
      truth->sampled_at = t;
      truth->region_kind = kind;
      send(truth_topic_, t + config_.truth_delay, std::move(truth));
    }

    // Device-side suppression: the node consults its pushed DTH before
    // keying the radio at all.
    net::Battery& battery = batteries_[node.id().value()];
    if (config_.device_side &&
        !device_filters_[node.id().value()].should_transmit(position)) {
      // Device-side suppression is still a suppressed LU in the global
      // accounting (the beacon below is control traffic, not the LU).
      accountant_.record_suppressed(t);
      if (eventlog) {
        obs::evt::device_suppressed(
            static_cast<std::uint32_t>(node.id().value()), t,
            device_filters_[node.id().value()].dth());
        // The keepalive beacon below is control traffic — detach the
        // cursor so its channel draw does not annotate the LU record.
        obs::evt::clear_cursor();
      }
      // Liveness beacon: a long-silent (but alive) node announces itself.
      if (config_.keepalive_interval > 0.0 && !battery.empty() &&
          t - last_transmission_[node.id().value()] >=
              config_.keepalive_interval) {
        auto beacon = std::make_shared<net::KeepAlive>();
        beacon->mn = node.id();
        beacon->sent_at = t;
        battery.drain(energy_.tx_cost_j(beacon->wire_bytes()));
        last_transmission_[node.id().value()] = t;
        ++keepalives_sent_;
        if (channel_delivers(node.id())) {
          send(lu_topic_, t, std::move(beacon));
        } else {
          ++lus_lost_;
        }
      }
      continue;
    }

    // Transmitting costs battery; an exhausted device goes dark.
    if (battery.empty()) {
      ++lus_dropped_battery_;
      if (eventlog) {
        obs::evt::battery_dead(static_cast<std::uint32_t>(node.id().value()),
                               t);
      }
      continue;
    }
    auto lu = std::make_shared<net::LocationUpdate>(node.id(), position,
                                                    velocity, t);
    lu->via_gateway = association.gateway;
    battery.drain(energy_.tx_cost_j(lu->wire_bytes()));
    lu->battery_fraction = battery.remaining_fraction();
    last_transmission_[node.id().value()] = t;

    // The LU crosses the wireless uplink and may be lost in the air (the
    // energy is spent regardless).
    if (!channel_delivers(node.id())) {
      ++lus_lost_;
      continue;
    }
    send(lu_topic_, t, std::move(lu));
    ++lus_published_;
  }
  // Detach the cursor so later channel draws (job results in run_compute)
  // cannot annotate the last node's record.
  if (eventlog) obs::evt::clear_cursor();
}

void MobilityFederate::on_start(SimTime t0) { publish_samples(t0); }

void MobilityFederate::on_time_grant(SimTime t) {
  for (std::size_t i = 0; i < substeps_; ++i) {
    workload_.step_all(config_.motion_dt);
  }
  publish_samples(t);
  run_compute(t);
}

DeviceEnergyReport MobilityFederate::energy_report(Duration duration) const {
  DeviceEnergyReport report;
  report.lus_dropped_battery = lus_dropped_battery_;
  stats::RunningStats all;
  stats::RunningStats phones;
  stats::RunningStats pdas;
  stats::RunningStats laptops;
  double phone_capacity = 0.0;
  for (const mobility::MobileNode& node : workload_.nodes()) {
    const net::Battery& battery = batteries_[node.id().value()];
    const core::DeviceSideFilter& filter =
        device_filters_[node.id().value()];
    report.lus_transmitted += filter.transmitted();
    report.lus_suppressed_on_device += filter.suppressed();
    report.dth_updates_received += filter.dth_updates_received();
    all.add(battery.consumed_j());
    switch (node.spec().device) {
      case mobility::DeviceType::kCellPhone:
        phones.add(battery.consumed_j());
        phone_capacity = battery.capacity_j();
        break;
      case mobility::DeviceType::kPda:
        pdas.add(battery.consumed_j());
        break;
      case mobility::DeviceType::kLaptop:
        laptops.add(battery.consumed_j());
        break;
    }
  }
  if (!config_.device_side) {
    // Without device-side filtering, every sample that spent energy was a
    // real transmission (suppression happens downstream at the ADF).
    report.lus_transmitted = lus_published_ + lus_lost_;
    report.lus_suppressed_on_device = 0;
  }
  report.mean_energy_j = all.mean();
  report.mean_energy_cellphone_j = phones.mean();
  report.mean_energy_pda_j = pdas.mean();
  report.mean_energy_laptop_j = laptops.mean();
  if (phones.mean() > 0.0 && duration > 0.0 && phone_capacity > 0.0) {
    const double watts = phones.mean() / duration;
    report.projected_cellphone_lifetime_h = phone_capacity / watts / 3600.0;
  }
  return report;
}

// ---------------------------------------------------------------------------
// FilterFederate
// ---------------------------------------------------------------------------

FilterFederate::FilterFederate(
    std::unique_ptr<core::LocationUpdateFilter> filter,
    const net::GatewayNetwork& gateways, Duration bucket_width,
    bool device_side, double dth_hysteresis, std::size_t shard_index,
    std::size_t shard_count)
    : Federate(shard_count > 1 ? "adf." + std::to_string(shard_index) : "adf",
               /*lookahead=*/0.0),
      filter_(std::move(filter)),
      gateways_(gateways),
      traffic_(bucket_width),
      accountant_(bucket_width),
      device_side_(device_side),
      dth_hysteresis_(dth_hysteresis),
      shard_index_(shard_index),
      shard_count_(shard_count) {
  if (!filter_) throw std::invalid_argument("FilterFederate: null filter");
  if (dth_hysteresis < 0.0) {
    throw std::invalid_argument(
        "FilterFederate: dth_hysteresis must be >= 0");
  }
  if (shard_count == 0 || shard_index >= shard_count) {
    throw std::invalid_argument("FilterFederate: bad shard spec");
  }
  if (device_side_) {
    adf_ = dynamic_cast<core::AdaptiveDistanceFilter*>(filter_.get());
    if (adf_ == nullptr) {
      throw std::invalid_argument(
          "FilterFederate: device-side mode requires the ADF policy");
    }
  }
}

void FilterFederate::on_join() {
  lu_topic_ = subscribe(net::kTopicLocationUpdate);
  filtered_topic_ = topic(net::kTopicFilteredUpdate);
  dth_topic_ = topic(net::kTopicDthUpdate);
}

void FilterFederate::receive(const sim::Interaction& interaction) {
  if (interaction.topic != lu_topic_) return;  // not ours
  const auto* lu = interaction.payload_as<net::LocationUpdate>();
  if (lu == nullptr) {
    // Keepalive beacons are liveness control traffic: relayed to the
    // broker untouched, never filtered, and invisible to the ADF's motion
    // state. In a sharded deployment exactly one shard relays each beacon.
    const auto* beacon = interaction.payload_as<net::KeepAlive>();
    if (beacon == nullptr) return;
    if (shard_count_ > 1 &&
        beacon->mn.value() % shard_count_ != shard_index_) {
      return;
    }
    accountant_.record(beacon->sent_at, GatewayId{}, net::Direction::kUplink,
                       *beacon);
    send(filtered_topic_, granted_time(), interaction.payload);
    return;
  }
  // Sharded deployment: only the ADF responsible for the relaying gateway
  // handles this LU.
  if (shard_count_ > 1 && lu->via_gateway.valid() &&
      lu->via_gateway.value() % shard_count_ != shard_index_) {
    return;
  }
  // The LU survived the air and crossed its gateway into the ADF tier.
  accountant_.record(lu->sampled_at, lu->via_gateway, net::Direction::kUplink,
                     *lu);

  // Point the eventlog cursor at this LU's record so the classifier /
  // clusterer / DTH / distance-test stages annotate the right (mn, t).
  const bool eventlog = obs::eventlog_enabled();
  if (eventlog) {
    obs::evt::set_cursor(static_cast<std::uint32_t>(lu->mn.value()),
                         lu->sampled_at);
  }
  core::FilterDecision decision;
  if (device_side_) {
    // Pre-filtered on the device: keep classification/clustering alive on
    // the (sparser) received stream, never suppress here.
    decision = adf_->update_dth(lu->mn, lu->sampled_at, lu->position);
    // Push the node's DTH on the downlink when it drifted noticeably.
    auto [it, inserted] = pushed_dth_.try_emplace(lu->mn, -1.0);
    const double last = it->second;
    const double tolerance =
        dth_hysteresis_ * std::max(last, 1e-9);
    if (last < 0.0 || std::abs(decision.dth - last) > tolerance) {
      it->second = decision.dth;
      const net::DthUpdate push(lu->mn, decision.dth);
      accountant_.record(granted_time(), lu->via_gateway,
                         net::Direction::kDownlink, push);
      send(dth_topic_, granted_time(),
           sim::make_payload<net::DthUpdate>(push));
      ++dth_updates_published_;
    }
  } else {
    decision = filter_->process(lu->mn, lu->sampled_at, lu->position);
  }
  if (eventlog) {
    // In device-side mode every LU that reached this tier was already let
    // through by the device, so the verdict is always "sent" — matching
    // how TrafficMetrics accounts it.
    obs::evt::verdict(static_cast<std::uint32_t>(lu->mn.value()),
                      lu->sampled_at, decision.transmit, decision.moved,
                      decision.dth,
                      decision.cluster.valid()
                          ? static_cast<std::int64_t>(decision.cluster.value())
                          : -1);
    obs::evt::clear_cursor();
  }

  // The relaying gateway covers the region the MN located this sample in
  // (one gateway per region), so its coverage gives the kind without a
  // second lookup.
  const RegionId region =
      lu->via_gateway.valid() ? gateways_.gateway(lu->via_gateway).coverage
                              : gateways_.serving_region(lu->position);
  const geo::RegionKind kind = gateways_.campus().region(region).kind();
  traffic_.record(lu->sampled_at, decision.transmit, kind);
  if (!decision.transmit) accountant_.record_suppressed(lu->sampled_at);

  if (decision.transmit) {
    // Forward the LU to the broker, timestamped at the current grant (the
    // ADF cannot send into its own past).
    send(filtered_topic_, granted_time(), interaction.payload);
  }
}

// ---------------------------------------------------------------------------
// BrokerFederate
// ---------------------------------------------------------------------------

BrokerFederate::BrokerFederate(
    std::unique_ptr<estimation::LocationEstimator> estimator_prototype,
    Duration bucket_width, ScoringMode scoring, JobWorkloadConfig jobs,
    const geo::CampusMap* campus, util::RngStream job_rng)
    : Federate("broker", /*lookahead=*/0.0),
      broker_(std::move(estimator_prototype)),
      errors_(bucket_width),
      scoring_(scoring),
      jobs_(jobs),
      campus_(campus),
      job_rng_(job_rng),
      scheduler_(broker_, jobs.scheduler) {
  if (jobs_.rate < 0.0) {
    throw std::invalid_argument("JobWorkloadConfig: rate must be >= 0");
  }
  if (jobs_.rate > 0.0) {
    if (campus_ == nullptr) {
      throw std::invalid_argument(
          "BrokerFederate: job workload needs a campus for job sites");
    }
    if (!jobs_.work.valid() || !(jobs_.work.hi > 0.0)) {
      throw std::invalid_argument("JobWorkloadConfig: invalid work range");
    }
    if (!(jobs_.timeout > 0.0) || jobs_.replicas == 0) {
      throw std::invalid_argument(
          "JobWorkloadConfig: invalid timeout/replicas");
    }
  }
}

void BrokerFederate::on_join() {
  filtered_topic_ = subscribe(net::kTopicFilteredUpdate);
  truth_topic_ = subscribe(kTopicTruth);
  if (jobs_.rate > 0.0) job_result_topic_ = subscribe(net::kTopicJobResult);
  job_assign_topic_ = topic(net::kTopicJobAssign);
}

void BrokerFederate::dispatch(JobId job, SimTime t) {
  const auto status = scheduler_.status(job);
  TrackedJob& tracked = tracked_jobs_.at(job);
  tracked.dispatched = true;
  tracked.deadline = t + jobs_.timeout;
  for (MnId assignee : status->assignees) {
    auto assign = std::make_shared<net::JobAssign>();
    assign->job = job;
    assign->assignee = assignee;
    assign->work_units = tracked.work_units;
    assign->site = tracked.site;
    send(job_assign_topic_, granted_time(), std::move(assign));
  }
}

void BrokerFederate::run_job_workload(SimTime t) {
  // Expire overdue jobs (and stop tracking them).
  std::vector<JobId> expired;
  for (const auto& [job, tracked] : tracked_jobs_) {
    if (tracked.dispatched && tracked.deadline <= t) expired.push_back(job);
  }
  for (JobId job : expired) {
    const auto status = scheduler_.status(job);
    if (status->state == broker::JobState::kRunning) {
      scheduler_.report_completion(job, status->assignees.front(), t,
                                   /*success=*/false);
      ++jobs_timed_out_;
    }
    tracked_jobs_.erase(job);
  }

  // Pending jobs may become schedulable as new LUs arrive.
  scheduler_.reschedule_pending(t);
  for (auto& [job, tracked] : tracked_jobs_) {
    if (tracked.dispatched) continue;
    if (scheduler_.status(job)->state == broker::JobState::kRunning) {
      dispatch(job, t);
    }
  }

  // Poisson arrivals.
  if (next_arrival_ < 0.0) {
    next_arrival_ = t + job_rng_.exponential(jobs_.rate);
  }
  while (next_arrival_ <= t) {
    next_arrival_ += job_rng_.exponential(jobs_.rate);
    broker::JobSpec spec;
    spec.id = JobId{next_job_id_++};
    const std::vector<RegionId> buildings = campus_->buildings();
    const geo::Region& site_region = campus_->region(
        buildings[job_rng_.index(buildings.size())]);
    spec.site = site_region.sample(job_rng_);
    spec.work_units = jobs_.work.sample(job_rng_);
    spec.replicas = jobs_.replicas;
    TrackedJob tracked;
    tracked.work_units = spec.work_units;
    tracked.site = spec.site;
    tracked_jobs_.emplace(spec.id, tracked);
    if (scheduler_.submit(spec, t) == broker::JobState::kRunning) {
      dispatch(spec.id, t);
    }
  }
}

JobReport BrokerFederate::job_report() const {
  JobReport report;
  report.submitted = next_job_id_;
  report.completed = jobs_completed_;
  report.timed_out = jobs_timed_out_;
  report.still_pending = scheduler_.pending_count();
  report.still_running = scheduler_.running_count();
  report.mean_completion_time = completion_time_.mean();
  return report;
}

void BrokerFederate::receive(const sim::Interaction& interaction) {
  if (interaction.topic == filtered_topic_) {
    if (const auto* lu = interaction.payload_as<net::LocationUpdate>()) {
      broker_.on_location_update(lu->mn, lu->sampled_at, lu->position,
                                 lu->velocity, lu->battery_fraction);
    } else if (const auto* beacon = interaction.payload_as<net::KeepAlive>()) {
      broker_.on_keepalive(beacon->mn, beacon->sent_at);
    }
    return;
  }
  if (interaction.topic == job_result_topic_) {
    const auto* result = interaction.payload_as<net::JobResult>();
    if (result == nullptr) return;
    const auto status = scheduler_.status(result->job);
    if (!status || status->state != broker::JobState::kRunning) {
      return;  // straggler after a timeout — drop
    }
    scheduler_.report_completion(result->job, result->worker,
                                 result->completed_at, result->success);
    if (scheduler_.status(result->job)->state ==
        broker::JobState::kCompleted) {
      ++jobs_completed_;
      completion_time_.add(result->completed_at - status->submitted_at);
      tracked_jobs_.erase(result->job);
    }
    return;
  }
  if (interaction.topic != truth_topic_) return;
  if (const auto* truth = interaction.payload_as<TruthSample>()) {
    if (scoring_ == ScoringMode::kLogical) {
      // Logical accounting: truths are timestamp-delayed to arrive in the
      // same cycle as their LU, and LUs sort first within the cycle — so
      // the broker's belief about `sampled_at` is final here. Score it.
      const std::optional<geo::Vec2> belief =
          broker_.belief_at(truth->mn, truth->sampled_at);
      if (belief) {
        errors_.record(truth->sampled_at, truth->position, *belief,
                       truth->region_kind);
        if (obs::eventlog_enabled()) {
          obs::evt::scored(static_cast<std::uint32_t>(truth->mn.value()),
                           truth->sampled_at, belief->x, belief->y,
                           geo::distance(truth->position, *belief));
        }
      }
      return;
    }
    truths_.push_back(BufferedTruth{truth->mn, truth->position,
                                    truth->sampled_at, truth->region_kind});
  }
}

void BrokerFederate::on_time_grant(SimTime t) {
  // Real-time accounting: score the view the broker *had* at each truth's
  // timestamp (the snapshot taken at the end of the previous grant) — this
  // charges the broker for filtering AND pipeline latency, exactly what a
  // job scheduler would see.
  const bool eventlog = obs::eventlog_enabled();
  for (const BufferedTruth& truth : truths_) {
    const std::uint32_t slot = view_slots_.find(truth.mn);
    if (slot == util::MnSlotIndex::kNoSlot) continue;  // not known yet
    const geo::Vec2 view = views_[slot];
    errors_.record(truth.sampled_at, truth.position, view, truth.kind);
    if (eventlog) {
      obs::evt::scored(static_cast<std::uint32_t>(truth.mn.value()),
                       truth.sampled_at, view.x, view.y,
                       geo::distance(truth.position, view));
    }
  }
  truths_.clear();

  broker_.on_tick(t);
  if (scoring_ == ScoringMode::kRealTime) {
    // Tracks are never dropped, so every known MN has a view: copy each
    // straight from its track into its slot.
    broker_.db().for_each_track([this](const broker::MnTrack& track) {
      const std::uint32_t slot = view_slots_.insert(MnId{track.mn()});
      if (slot == views_.size()) views_.emplace_back();
      views_[slot] = track.record().current_view.position;
    });
  }
  if (jobs_.rate > 0.0) run_job_workload(t);
}

}  // namespace mgrid::scenario
