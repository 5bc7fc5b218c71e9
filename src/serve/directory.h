// Sharded online location directory — the serving-layer face of the grid
// broker's location DB.
//
// MN tracks are partitioned across N lock-striped shards (mn % shards);
// each shard is one broker::TrackStore (the location DB the federation
// broker uses), a region index (uniform grid of cells over current-view
// positions) and a monotonically-grown bounding box used to terminate
// k-nearest ring expansion. All public operations are safe to call
// concurrently from any thread; an operation locks exactly the shards it
// touches, so updates and lookups for MNs on different shards never
// contend.
//
// advance_estimates() sweeps the shards concurrently: the calling thread
// and up to min(shards, hardware threads) - 1 parked helper threads claim
// shards from one shared index, and each shard is swept by exactly one
// thread under its own mutex in its serial iteration order. A shard's
// state is a pure function of its own LU substream, so the result is
// bit-identical to the serial sweep at any helper count.
//
// Spatial queries are total over their inputs: a non-finite centre or
// radius returns no hits, and cell coordinates saturate at the int32 range
// instead of overflowing.
//
// Per-op latency histograms and op counters are recorded through the
// calling thread's obs::MetricsRegistry (see obs/metrics.h) when telemetry
// is enabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "broker/location_core.h"
#include "estimation/estimator.h"
#include "geo/vec2.h"
#include "util/types.h"

namespace mgrid::serve {

struct DirectoryOptions {
  /// Lock stripes (>= 1). Tracks live on shard mn % shards.
  std::size_t shards = 8;
  /// Region-index cell edge, metres (> 0).
  double cell_size = 50.0;
};

/// One MN's current view, copied out under the shard lock.
struct DirectoryEntry {
  std::uint32_t mn = 0;
  SimTime t = 0.0;
  geo::Vec2 position;
  /// True when the view is an estimator forecast rather than a received LU.
  bool estimated = false;
};

/// One spatial-query hit.
struct Neighbor {
  std::uint32_t mn = 0;
  double distance = 0.0;
  geo::Vec2 position;
};

class ShardedDirectory {
 public:
  /// `estimator_prototype` (may be nullptr: estimation disabled) is cloned
  /// per MN on first update (broker::TrackStore).
  explicit ShardedDirectory(
      DirectoryOptions options,
      std::unique_ptr<estimation::LocationEstimator> estimator_prototype =
          nullptr);

  ~ShardedDirectory();
  ShardedDirectory(const ShardedDirectory&) = delete;
  ShardedDirectory& operator=(const ShardedDirectory&) = delete;

  /// Applies one LU. Returns false when the update is rejected (timestamp
  /// regression for the MN or a non-finite field — see
  /// broker::MnTrack::apply_update); a rejected first LU leaves no track.
  bool update(std::uint32_t mn, SimTime t, geo::Vec2 position,
              geo::Vec2 velocity);

  /// One LU of a batch apply.
  struct LuApply {
    std::uint32_t mn = 0;
    SimTime t = 0.0;
    geo::Vec2 position;
    geo::Vec2 velocity;
  };

  /// Applies a batch, grouped by destination shard so each touched shard is
  /// locked once (the ingestion pipeline's fast path). Per-MN submission
  /// order within the batch is preserved. Returns the number applied
  /// (rejected = batch size - applied).
  std::size_t apply_batch(const std::vector<LuApply>& batch);

  /// Current view of one MN (received fix or last recorded estimate).
  [[nodiscard]] std::optional<DirectoryEntry> lookup(std::uint32_t mn) const;

  /// Best belief about the MN's position *at time t* (estimator forecast
  /// when the last received fix is older than t; the fix otherwise).
  [[nodiscard]] std::optional<geo::Vec2> belief_at(std::uint32_t mn,
                                                   SimTime t) const;

  /// Refreshes every stale track's view with its estimator forecast at `t`
  /// (broker::TrackStore::advance) and moves the tracks in the region
  /// index. Returns the number of estimates recorded; a second call at the
  /// same `t` records none. Shards are swept concurrently (see the file
  /// comment); whole sweeps from different callers are serialized. An
  /// exception from any shard is rethrown here after every claimed shard
  /// has finished.
  std::size_t advance_estimates(SimTime t);

  /// All MNs whose current-view position lies within `radius` of `center`,
  /// sorted by (distance, mn). `max_results` 0 = unlimited.
  [[nodiscard]] std::vector<Neighbor> query_region(
      geo::Vec2 center, double radius, std::size_t max_results = 0) const;

  /// The k MNs nearest to `center` by current-view position, sorted by
  /// (distance, mn).
  [[nodiscard]] std::vector<Neighbor> k_nearest(geo::Vec2 center,
                                                std::size_t k) const;

  /// Every track's current view, sorted by MN id — the serving layer's
  /// analogue of the federation's final-position report.
  [[nodiscard]] std::vector<DirectoryEntry> snapshot() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Track count per shard (occupancy view for the admin /statusz).
  [[nodiscard]] std::vector<std::size_t> shard_sizes() const;

  /// Location-staleness aggregate: sim-time since the last *received* LU
  /// per tracked MN, evaluated at `now`. This is the freshness SLI the SLO
  /// monitor tracks — estimator forecasts do not reset it, only applied
  /// LUs do. Negative ages (now earlier than a fix) clamp to 0.
  struct StalenessSummary {
    std::size_t tracked = 0;    ///< MNs with at least one received fix.
    double mean_seconds = 0.0;
    double p99_seconds = 0.0;   ///< Nearest-rank p99 across MNs.
    double max_seconds = 0.0;
  };
  [[nodiscard]] StalenessSummary staleness_summary(SimTime now) const;

  // --- Degraded read mode (overload / recovery) ---------------------------

  /// Flips the directory into (or out of) degraded mode. Set by the ingest
  /// pipeline when admission control starts shedding, and by recovery while
  /// the directory is being rebuilt. Reads keep working; callers that use
  /// lookup_bounded() learn the belief may be stale.
  void set_degraded(bool degraded) noexcept;
  [[nodiscard]] bool degraded() const noexcept;

  /// A lookup that reports *how stale* the answer is instead of pretending
  /// freshness. `within_bound` is false when the current view is older than
  /// `max_staleness` seconds at `now` — the caller decides whether a
  /// stale-but-bounded belief is still useful.
  struct BoundedBelief {
    DirectoryEntry entry;
    double age_seconds = 0.0;
    bool degraded = false;     ///< directory was degraded at lookup time
    bool within_bound = true;  ///< age_seconds <= max_staleness
  };
  [[nodiscard]] std::optional<BoundedBelief> lookup_bounded(
      std::uint32_t mn, SimTime now, double max_staleness) const;

  // --- Snapshot support (serve/snapshot.h) --------------------------------

  /// Visits every track shard by shard, sorted by MN id within each shard,
  /// under the shard lock. The callback must not call back into the
  /// directory (it would self-deadlock on the shard mutex).
  void for_each_track(
      const std::function<void(const broker::MnTrack&)>& fn) const;

  /// Re-creates one track from snapshot state: constructs it with this
  /// directory's estimator prototype clone, loads the serialized words and
  /// indexes the restored current view. Returns false (track not inserted)
  /// on malformed state or when the MN already exists.
  bool restore_track(std::uint32_t mn, const double*& it, const double* end);

 private:
  struct Shard {
    explicit Shard(const estimation::LocationEstimator* prototype)
        : store(prototype) {}
    mutable std::mutex mutex;
    broker::TrackStore store;
    /// Region index: cell key -> MNs whose current view lies in the cell.
    std::unordered_map<std::int64_t, std::vector<std::uint32_t>> cells;
    /// Current cell of each indexed MN.
    std::unordered_map<std::uint32_t, std::int64_t> cell_of;
    /// Monotonically grown bounds, in cell coordinates, of every cell ever
    /// indexed; used only to bound k-nearest ring expansion, so
    /// over-approximation is safe.
    bool has_bounds = false;
    std::int64_t lo_cx = 0, lo_cy = 0, hi_cx = 0, hi_cy = 0;
  };
  /// The parked helper threads of advance_estimates (directory.cpp).
  struct Sweep;

  [[nodiscard]] Shard& shard_for(std::uint32_t mn) const noexcept {
    return *shards_[mn % shards_.size()];
  }
  /// Cell coordinate of `v` metres, saturated to the int32 range (NaN maps
  /// to the low edge), so no double -> integer conversion is out of range.
  [[nodiscard]] std::int64_t cell_coord(double v) const noexcept;
  /// Moves `mn` to the cell of `position` (caller holds the shard lock).
  void index_position(Shard& shard, std::uint32_t mn, geo::Vec2 position);
  /// Advances every stale track of one shard (takes the shard lock).
  std::size_t advance_shard(Shard& shard, SimTime t);
  /// The k nearest hits within one shard (caller holds the shard lock).
  void nearest_in_shard(const Shard& shard, geo::Vec2 center, std::size_t k,
                        std::vector<Neighbor>& out) const;
  /// Collects in-radius hits from one cell (caller holds the shard lock).
  /// A NaN distance is never a hit.
  void scan_cell(const Shard& shard, std::int64_t key, geo::Vec2 center,
                 double radius, std::vector<Neighbor>& out) const;
  /// Applies one LU to its shard (caller holds the shard lock).
  bool apply_locked(Shard& shard, const LuApply& lu);

  DirectoryOptions options_;
  std::unique_ptr<estimation::LocationEstimator> prototype_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> degraded_{false};
  /// Helper threads for advance_estimates; null when sweeps run serially
  /// (one shard, or a host with one hardware thread).
  std::unique_ptr<Sweep> sweep_;
};

}  // namespace mgrid::serve
