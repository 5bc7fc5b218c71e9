// Adaptive Distance Filter (ADF) — the paper's contribution (§3.2, §3.4).
//
// Pipeline per sampled position:
//   1. classifier.observe()                  (velocity/direction window)
//   2. classify -> SS | RMS | LMS            (Fig. 2)
//   3. SS  -> leave/stay out of any cluster; DTH = stop-state threshold
//      RMS/LMS -> (re)assign to a BSAS cluster; DTH = factor *
//                 cluster-mean-speed * sample-period
//   4. distance-filter the LU against the DTH
//   5. periodically rebuild the clusters     (step 6 of the ADF process)
//
// The first classification + clustering happens implicitly on each node's
// first samples (steps 1-2 of the paper's six-step process run once, the
// rest repeat).
#pragma once

#include <cstdint>
#include <vector>

#include "core/classifier.h"
#include "core/clustering.h"
#include "core/distance_filter.h"
#include "core/update_filter.h"
#include "util/mn_slots.h"

namespace mgrid::core {

struct AdfParams {
  /// DTH = dth_factor * cluster mean speed * sample_period. The paper
  /// evaluates 0.75, 1.0 and 1.25 ("0.75 av" etc.).
  double dth_factor = 1.0;
  /// LU sampling period, seconds (> 0; the paper samples at 1 s).
  Duration sample_period = 1.0;
  /// DTH applied to Stop State nodes: stop_dth_factor * walk_velocity *
  /// sample_period. Keeps a parked node silent yet reports it as soon as it
  /// genuinely moves.
  double stop_dth_factor = 0.25;
  /// Cluster reconstruction interval, seconds (0 disables periodic
  /// rebuilds).
  Duration recluster_interval = 30.0;
  ClassifierParams classifier;
  ClusteringParams clustering;
};

class AdaptiveDistanceFilter final : public LocationUpdateFilter {
 public:
  explicit AdaptiveDistanceFilter(AdfParams params = {});

  FilterDecision process(MnId mn, SimTime t, geo::Vec2 position) override;

  void note_forced_transmit(MnId mn, SimTime t, geo::Vec2 position) override;

  /// Steps 1-3 and 6 only: classify, (re-)cluster, compute the DTH —
  /// WITHOUT applying the distance filter. Used by device-side filtering,
  /// where the ADF computes thresholds centrally but suppression happens on
  /// the mobile node (the returned decision has transmit == true and
  /// moved == 0).
  FilterDecision update_dth(MnId mn, SimTime t, geo::Vec2 position);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "adf";
  }
  [[nodiscard]] std::uint64_t transmitted() const noexcept override {
    return filter_.transmitted();
  }
  [[nodiscard]] std::uint64_t filtered() const noexcept override {
    return filter_.filtered();
  }

  /// The DTH currently applied to an MN (0 when never processed).
  [[nodiscard]] double current_dth(MnId mn) const;

  [[nodiscard]] const MobilityClassifier& classifier() const noexcept {
    return classifier_;
  }
  [[nodiscard]] const SequentialClusterer& clusterer() const noexcept {
    return clusterer_;
  }
  [[nodiscard]] const AdfParams& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return rebuilds_; }

 private:
  [[nodiscard]] double stop_dth() const noexcept;

  AdfParams params_;
  MobilityClassifier classifier_;
  SequentialClusterer clusterer_;
  DistanceFilter filter_;
  struct MnState {
    double dth = 0.0;
    /// Last classified pattern, maintained only while telemetry is enabled
    /// (feeds mgrid_adf_transitions_total); 0xFF = not yet seen.
    std::uint8_t last_pattern = 0xFF;
  };
  util::MnSlotIndex slots_;
  std::vector<MnState> mn_state_;  // by slot
  SimTime last_rebuild_ = 0.0;
  bool rebuild_clock_started_ = false;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace mgrid::core
