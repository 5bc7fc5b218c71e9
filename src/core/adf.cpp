#include "core/adf.h"

#include <stdexcept>

#include "obs/eventlog.h"
#include "obs/metrics.h"

namespace mgrid::core {

namespace {

constexpr std::size_t kPatternCount = 3;  // stop, random, linear

/// ADF telemetry shared by every filter instance. The 3x3 transition matrix
/// is pre-registered so the hot path never takes the registry lock.
struct AdfMetrics {
  obs::Counter transmitted;
  obs::Counter filtered;
  obs::Counter rebuilds;
  obs::Gauge clusters;
  obs::HistogramMetric dth_meters;
  obs::Counter transitions[kPatternCount][kPatternCount];

  explicit AdfMetrics(obs::MetricsRegistry& registry) {
    transmitted = registry.counter("mgrid_adf_transmitted_total", {},
                                   "Location updates passed by the ADF");
    filtered = registry.counter("mgrid_adf_filtered_total", {},
                                "Location updates suppressed by the ADF");
    rebuilds = registry.counter("mgrid_adf_rebuilds_total", {},
                                "Periodic cluster reconstructions");
    clusters = registry.gauge("mgrid_adf_clusters", {},
                              "Clusters after the last DTH computation");
    dth_meters =
        registry.histogram("mgrid_adf_dth_meters", 0.0, 50.0, 50, {},
                           "Distance threshold handed to the filter, meters");
    for (std::size_t from = 0; from < kPatternCount; ++from) {
      for (std::size_t to = 0; to < kPatternCount; ++to) {
        const auto from_name = mobility::to_string(
            static_cast<mobility::MobilityPattern>(from));
        const auto to_name =
            mobility::to_string(static_cast<mobility::MobilityPattern>(to));
        transitions[from][to] = registry.counter(
            "mgrid_adf_transitions_total",
            {{"from", std::string(from_name)}, {"to", std::string(to_name)}},
            "Mobility-pattern transitions observed by the classifier");
      }
    }
  }
};

AdfMetrics& adf_metrics() { return obs::instruments<AdfMetrics>(); }

}  // namespace

AdaptiveDistanceFilter::AdaptiveDistanceFilter(AdfParams params)
    : params_(params),
      classifier_(params.classifier),
      clusterer_(params.clustering) {
  if (!(params.dth_factor > 0.0)) {
    throw std::invalid_argument("AdfParams: dth_factor must be > 0");
  }
  if (!(params.sample_period > 0.0)) {
    throw std::invalid_argument("AdfParams: sample_period must be > 0");
  }
  if (params.stop_dth_factor < 0.0) {
    throw std::invalid_argument("AdfParams: stop_dth_factor must be >= 0");
  }
  if (params.recluster_interval < 0.0) {
    throw std::invalid_argument("AdfParams: recluster_interval must be >= 0");
  }
}

double AdaptiveDistanceFilter::stop_dth() const noexcept {
  return params_.stop_dth_factor * params_.classifier.walk_velocity *
         params_.sample_period;
}

FilterDecision AdaptiveDistanceFilter::process(MnId mn, SimTime t,
                                               geo::Vec2 position) {
  FilterDecision decision = update_dth(mn, t, position);
  // (4) filter, (5) transmit.
  const DistanceFilter::Decision df =
      filter_.apply(mn, position, decision.dth);
  decision.transmit = df.transmit;
  decision.moved = df.moved;
  if (obs::enabled()) {
    (decision.transmit ? adf_metrics().transmitted : adf_metrics().filtered)
        .inc();
  }
  return decision;
}

FilterDecision AdaptiveDistanceFilter::update_dth(MnId mn, SimTime t,
                                                  geo::Vec2 position) {
  // (3) acquire + (1) observe velocity/direction.
  classifier_.observe(mn, t, position);

  // Periodic cluster reconstruction (6).
  if (params_.recluster_interval > 0.0) {
    if (!rebuild_clock_started_) {
      rebuild_clock_started_ = true;
      last_rebuild_ = t;
    } else if (t - last_rebuild_ >= params_.recluster_interval) {
      clusterer_.rebuild();
      last_rebuild_ = t;
      ++rebuilds_;
      if (obs::enabled()) adf_metrics().rebuilds.inc();
    }
  }

  // (2) classify + cluster, both from one pass over the window.
  const MotionFeatures features = classifier_.features(mn);
  FilterDecision decision;
  decision.pattern = classifier_.classify(features);
  if (decision.pattern == mobility::MobilityPattern::kStop) {
    clusterer_.remove(mn);
    decision.dth = stop_dth();
  } else {
    decision.cluster = clusterer_.assign(mn, features);
    decision.dth = params_.dth_factor *
                   clusterer_.cluster(decision.cluster).mean_speed() *
                   params_.sample_period;
  }
  const std::uint32_t slot = slots_.insert(mn);
  if (slot == mn_state_.size()) mn_state_.emplace_back();
  MnState& state = mn_state_[slot];
  state.dth = decision.dth;
  decision.transmit = true;
  if (obs::eventlog_enabled()) obs::evt::threshold(decision.dth);
  if (obs::enabled()) {
    AdfMetrics& metrics = adf_metrics();
    metrics.dth_meters.observe(decision.dth);
    metrics.clusters.set(static_cast<double>(clusterer_.cluster_count()));
    // State-transition accounting (per-MN last pattern is only maintained
    // while telemetry is on; the first enabled sample seeds it silently).
    const std::uint8_t previous = state.last_pattern;
    const auto current = static_cast<std::uint8_t>(decision.pattern);
    if (previous != 0xFF && previous != current) {
      metrics.transitions[previous][current].inc();
    }
    state.last_pattern = current;
  }
  return decision;
}

void AdaptiveDistanceFilter::note_forced_transmit(MnId mn, SimTime /*t*/,
                                                  geo::Vec2 position) {
  filter_.force_transmit(mn, position);
}

double AdaptiveDistanceFilter::current_dth(MnId mn) const {
  const std::uint32_t slot = slots_.find(mn);
  return slot == util::MnSlotIndex::kNoSlot ? 0.0 : mn_state_[slot].dth;
}

}  // namespace mgrid::core
