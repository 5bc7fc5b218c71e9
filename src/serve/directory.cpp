#include "serve/directory.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "obs/eventlog.h"
#include "obs/metrics.h"

namespace mgrid::serve {

namespace {

struct ServeMetrics {
  obs::Counter updates;
  obs::Counter rejected;
  obs::Counter lookups;
  obs::Counter region_queries;
  obs::Counter nearest_queries;
  obs::Counter estimates;
  obs::Counter degraded_lookups;
  obs::Gauge degraded;
  obs::HistogramMetric update_seconds;
  obs::HistogramMetric lookup_seconds;
  obs::HistogramMetric region_seconds;
  obs::HistogramMetric nearest_seconds;

  explicit ServeMetrics(obs::MetricsRegistry& registry) {
    updates = registry.counter("mgrid_serve_updates_total", {},
                               "LUs applied to the serving directory");
    rejected = registry.counter(
        "mgrid_serve_updates_rejected_total", {},
        "LUs rejected (timestamp regression or non-finite field)");
    lookups = registry.counter("mgrid_serve_lookups_total", {},
                               "Single-MN lookups served");
    region_queries = registry.counter("mgrid_serve_region_queries_total", {},
                                      "Region queries served");
    nearest_queries = registry.counter(
        "mgrid_serve_nearest_queries_total", {}, "k-nearest queries served");
    estimates = registry.counter(
        "mgrid_serve_estimates_total", {},
        "Estimator forecasts recorded by advance_estimates");
    degraded_lookups = registry.counter(
        "mgrid_serve_degraded_lookups_total", {},
        "Bounded lookups answered while the directory was degraded");
    degraded = registry.gauge(
        "mgrid_serve_degraded", {},
        "1 while the directory is in degraded (stale-read) mode");
    update_seconds =
        registry.histogram("mgrid_serve_update_seconds", 0.0, 1e-3, 50, {},
                           "Latency of one directory update");
    lookup_seconds =
        registry.histogram("mgrid_serve_lookup_seconds", 0.0, 1e-3, 50, {},
                           "Latency of one directory lookup");
    region_seconds =
        registry.histogram("mgrid_serve_region_seconds", 0.0, 1e-2, 50, {},
                           "Latency of one region query");
    nearest_seconds =
        registry.histogram("mgrid_serve_nearest_seconds", 0.0, 1e-2, 50, {},
                           "Latency of one k-nearest query");
  }
};

ServeMetrics& serve_metrics() { return obs::instruments<ServeMetrics>(); }

constexpr std::int64_t kMinCell = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kMaxCell = std::numeric_limits<std::int32_t>::max();

/// Region-index key of the cell at (cx, cy), both in the int32 range.
std::int64_t pack_key(std::int64_t cx, std::int64_t cy) noexcept {
  return (cx << 32) |
         static_cast<std::int64_t>(static_cast<std::uint32_t>(cy));
}
std::int64_t key_x(std::int64_t key) noexcept { return key >> 32; }
std::int64_t key_y(std::int64_t key) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(key));
}

bool finite(geo::Vec2 v) noexcept {
  return std::isfinite(v.x) && std::isfinite(v.y);
}

bool by_distance_then_mn(const Neighbor& a, const Neighbor& b) {
  return a.distance != b.distance ? a.distance < b.distance : a.mn < b.mn;
}

/// Latency scope: samples steady_clock only when telemetry is on.
class LatencyTimer {
 public:
  explicit LatencyTimer(bool enabled) : enabled_(enabled) {
    if (enabled_) start_ = std::chrono::steady_clock::now();
  }
  void record(obs::HistogramMetric& histogram) const {
    if (!enabled_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram.observe(std::chrono::duration<double>(elapsed).count());
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

/// The helper threads of advance_estimates. Helpers start at the first
/// sweep and park on `wake` between sweeps; the caller and the helpers
/// claim shards through `claim`, whose high word is the sweep generation,
/// so a helper that wakes late can never claim a shard of a newer sweep.
struct ShardedDirectory::Sweep {
  explicit Sweep(std::size_t helpers) : helper_count(helpers) {}

  ~Sweep() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      stop = true;
    }
    wake.notify_all();
    for (std::thread& thread : threads) thread.join();
  }

  std::size_t run(ShardedDirectory& directory, SimTime sweep_t) {
    const std::lock_guard<std::mutex> whole(sweep_mutex);
    std::uint32_t gen = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (threads.empty()) start(directory);
      gen = ++generation;
      t = sweep_t;
      error = nullptr;
      finished.store(0, std::memory_order_relaxed);
      made.store(0, std::memory_order_relaxed);
      claim.store(static_cast<std::uint64_t>(gen) << 32,
                  std::memory_order_release);
    }
    wake.notify_all();
    claim_shards(directory, gen, sweep_t);
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] {
      return finished.load(std::memory_order_acquire) ==
             directory.shards_.size();
    });
    if (error) std::rethrow_exception(error);
    return made.load(std::memory_order_relaxed);
  }

 private:
  /// Caller holds `mutex`. A host that refuses a thread gets fewer helpers;
  /// the caller sweeps whatever they do not claim.
  void start(ShardedDirectory& directory) {
    threads.reserve(helper_count);
    try {
      for (std::size_t i = 0; i < helper_count; ++i) {
        threads.emplace_back([this, &directory] { helper_main(directory); });
      }
    } catch (const std::system_error&) {
    }
  }

  void helper_main(ShardedDirectory& directory) {
    std::uint32_t seen = 0;
    for (;;) {
      SimTime sweep_t = 0.0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [&] { return stop || generation != seen; });
        if (stop) return;
        seen = generation;
        sweep_t = t;
      }
      claim_shards(directory, seen, sweep_t);
    }
  }

  void claim_shards(ShardedDirectory& directory, std::uint32_t gen,
                    SimTime sweep_t) {
    const std::size_t n = directory.shards_.size();
    std::uint64_t word = claim.load(std::memory_order_acquire);
    for (;;) {
      const std::size_t index = static_cast<std::uint32_t>(word);
      if (static_cast<std::uint32_t>(word >> 32) != gen || index >= n) return;
      if (!claim.compare_exchange_weak(word, word + 1,
                                       std::memory_order_acq_rel)) {
        continue;
      }
      try {
        made.fetch_add(directory.advance_shard(*directory.shards_[index],
                                               sweep_t),
                       std::memory_order_relaxed);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        const std::lock_guard<std::mutex> lock(mutex);
        done.notify_all();
      }
      word = claim.load(std::memory_order_acquire);
    }
  }

  const std::size_t helper_count;
  /// Serializes whole sweeps from concurrent callers.
  std::mutex sweep_mutex;
  /// Guards `threads`, `stop`, `generation`, `t` and `error`, and pairs
  /// with both condition variables.
  std::mutex mutex;
  std::condition_variable wake;  ///< helpers: a new sweep, or stop
  std::condition_variable done;  ///< caller: the last shard finished
  std::vector<std::thread> threads;
  bool stop = false;
  std::uint32_t generation = 0;
  SimTime t = 0.0;
  std::exception_ptr error;
  std::atomic<std::uint64_t> claim{0};
  std::atomic<std::size_t> finished{0};
  std::atomic<std::size_t> made{0};
};

ShardedDirectory::ShardedDirectory(
    DirectoryOptions options,
    std::unique_ptr<estimation::LocationEstimator> estimator_prototype)
    : options_(options), prototype_(std::move(estimator_prototype)) {
  if (options_.shards == 0) {
    throw std::invalid_argument("ShardedDirectory: shards must be >= 1");
  }
  if (!(options_.cell_size > 0.0)) {
    throw std::invalid_argument("ShardedDirectory: cell_size must be > 0");
  }
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(prototype_.get()));
  }
  const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  const std::size_t helpers = std::min(options_.shards, cores) - 1;
  if (helpers > 0) sweep_ = std::make_unique<Sweep>(helpers);
}

ShardedDirectory::~ShardedDirectory() = default;

std::int64_t ShardedDirectory::cell_coord(double v) const noexcept {
  const double c = std::floor(v / options_.cell_size);
  if (!(c >= static_cast<double>(kMinCell))) return kMinCell;
  if (c > static_cast<double>(kMaxCell)) return kMaxCell;
  return static_cast<std::int64_t>(c);
}

void ShardedDirectory::index_position(Shard& shard, std::uint32_t mn,
                                      geo::Vec2 position) {
  const std::int64_t cx = cell_coord(position.x);
  const std::int64_t cy = cell_coord(position.y);
  const std::int64_t key = pack_key(cx, cy);
  auto it = shard.cell_of.find(mn);
  if (it != shard.cell_of.end()) {
    if (it->second == key) return;
    std::vector<std::uint32_t>& old_cell = shard.cells[it->second];
    old_cell.erase(std::find(old_cell.begin(), old_cell.end(), mn));
    if (old_cell.empty()) shard.cells.erase(it->second);
    it->second = key;
  } else {
    shard.cell_of.emplace(mn, key);
  }
  shard.cells[key].push_back(mn);
  if (!shard.has_bounds) {
    shard.has_bounds = true;
    shard.lo_cx = shard.hi_cx = cx;
    shard.lo_cy = shard.hi_cy = cy;
  } else {
    shard.lo_cx = std::min(shard.lo_cx, cx);
    shard.hi_cx = std::max(shard.hi_cx, cx);
    shard.lo_cy = std::min(shard.lo_cy, cy);
    shard.hi_cy = std::max(shard.hi_cy, cy);
  }
}

bool ShardedDirectory::apply_locked(Shard& shard, const LuApply& lu) {
  if (!shard.store.apply_update(lu.mn, lu.t, lu.position, lu.velocity)) {
    return false;
  }
  index_position(shard, lu.mn, lu.position);
  return true;
}

bool ShardedDirectory::update(std::uint32_t mn, SimTime t, geo::Vec2 position,
                              geo::Vec2 velocity) {
  const bool telemetry = obs::enabled();
  const LatencyTimer timer(telemetry);
  bool applied = false;
  {
    Shard& shard = shard_for(mn);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    applied = apply_locked(shard, {mn, t, position, velocity});
  }
  if (telemetry) {
    ServeMetrics& metrics = serve_metrics();
    (applied ? metrics.updates : metrics.rejected).inc();
    timer.record(metrics.update_seconds);
  }
  return applied;
}

std::size_t ShardedDirectory::apply_batch(const std::vector<LuApply>& batch) {
  // Bucket indices by destination shard, then take each shard lock once.
  std::vector<std::vector<std::size_t>> buckets(shards_.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    buckets[batch[i].mn % shards_.size()].push_back(i);
  }
  std::size_t applied = 0;
  for (std::size_t s = 0; s < buckets.size(); ++s) {
    if (buckets[s].empty()) continue;
    Shard& shard = *shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (std::size_t i : buckets[s]) {
      if (apply_locked(shard, batch[i])) ++applied;
    }
  }
  if (obs::enabled()) {
    ServeMetrics& metrics = serve_metrics();
    if (applied > 0) metrics.updates.inc(applied);
    if (applied < batch.size()) metrics.rejected.inc(batch.size() - applied);
  }
  return applied;
}

std::optional<DirectoryEntry> ShardedDirectory::lookup(
    std::uint32_t mn) const {
  const bool telemetry = obs::enabled();
  const LatencyTimer timer(telemetry);
  std::optional<DirectoryEntry> entry;
  {
    Shard& shard = shard_for(mn);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (const broker::MnTrack* track = shard.store.find(mn)) {
      const broker::LocationFix& view = track->record().current_view;
      entry = DirectoryEntry{mn, view.t, view.position, view.estimated};
    }
  }
  if (telemetry) {
    ServeMetrics& metrics = serve_metrics();
    metrics.lookups.inc();
    timer.record(metrics.lookup_seconds);
  }
  return entry;
}

std::optional<geo::Vec2> ShardedDirectory::belief_at(std::uint32_t mn,
                                                     SimTime t) const {
  Shard& shard = shard_for(mn);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const broker::MnTrack* track = shard.store.find(mn);
  if (track == nullptr) return std::nullopt;
  return track->belief_at(t);
}

std::size_t ShardedDirectory::advance_shard(Shard& shard, SimTime t) {
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.store.advance(t, [&](std::uint32_t mn, geo::Vec2 estimate) {
    index_position(shard, mn, estimate);
  });
}

std::size_t ShardedDirectory::advance_estimates(SimTime t) {
  std::size_t made = 0;
  // A caller capturing an event log sweeps alone, so every estimate's
  // record lands in that thread's log.
  if (sweep_ != nullptr &&
      !(obs::eventlog_enabled() && obs::current_event_log() != nullptr)) {
    made = sweep_->run(*this, t);
  } else {
    for (const std::unique_ptr<Shard>& shard : shards_) {
      made += advance_shard(*shard, t);
    }
  }
  if (made > 0 && obs::enabled()) serve_metrics().estimates.inc(made);
  return made;
}

void ShardedDirectory::scan_cell(const Shard& shard, std::int64_t key,
                                 geo::Vec2 center, double radius,
                                 std::vector<Neighbor>& out) const {
  auto cell = shard.cells.find(key);
  if (cell == shard.cells.end()) return;
  const double radius_sq = radius * radius;
  for (std::uint32_t mn : cell->second) {
    // The index holds only tracked MNs: a track is never erased once
    // indexed.
    const geo::Vec2 position =
        shard.store.find(mn)->record().current_view.position;
    const geo::Vec2 d = position - center;
    const double dist_sq = d.x * d.x + d.y * d.y;
    if (std::isinf(dist_sq)) {
      // The squares overflowed: compare the exact distance instead.
      const double dist = std::hypot(d.x, d.y);
      if (dist <= radius) out.push_back({mn, dist, position});
    } else if (dist_sq <= radius_sq) {
      out.push_back({mn, std::sqrt(dist_sq), position});
    }
  }
}

std::vector<Neighbor> ShardedDirectory::query_region(
    geo::Vec2 center, double radius, std::size_t max_results) const {
  const bool telemetry = obs::enabled();
  const LatencyTimer timer(telemetry);
  std::vector<Neighbor> hits;
  if (finite(center) && std::isfinite(radius) && radius >= 0.0) {
    const std::int64_t lo_x = cell_coord(center.x - radius);
    const std::int64_t hi_x = cell_coord(center.x + radius);
    const std::int64_t lo_y = cell_coord(center.y - radius);
    const std::int64_t hi_y = cell_coord(center.y + radius);
    // Up to 2^32 x 2^32 cells: count them in double so nothing wraps.
    const double range_cells = static_cast<double>(hi_x - lo_x + 1) *
                               static_cast<double>(hi_y - lo_y + 1);
    for (const std::unique_ptr<Shard>& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      if (range_cells > static_cast<double>(shard->cells.size())) {
        // Fewer occupied cells than cells in range: walk the index instead.
        for (const auto& [key, mns] : shard->cells) {
          const std::int64_t cx = key_x(key);
          const std::int64_t cy = key_y(key);
          if (cx < lo_x || cx > hi_x || cy < lo_y || cy > hi_y) continue;
          scan_cell(*shard, key, center, radius, hits);
        }
      } else {
        for (std::int64_t cx = lo_x; cx <= hi_x; ++cx) {
          for (std::int64_t cy = lo_y; cy <= hi_y; ++cy) {
            scan_cell(*shard, pack_key(cx, cy), center, radius, hits);
          }
        }
      }
    }
  }
  std::sort(hits.begin(), hits.end(), by_distance_then_mn);
  if (max_results > 0 && hits.size() > max_results) {
    hits.resize(max_results);
  }
  if (telemetry) {
    ServeMetrics& metrics = serve_metrics();
    metrics.region_queries.inc();
    timer.record(metrics.region_seconds);
  }
  return hits;
}

void ShardedDirectory::nearest_in_shard(const Shard& shard, geo::Vec2 center,
                                        std::size_t k,
                                        std::vector<Neighbor>& out) const {
  if (!shard.has_bounds) return;
  const double unlimited = std::numeric_limits<double>::infinity();
  const std::int64_t cx = cell_coord(center.x);
  const std::int64_t cy = cell_coord(center.y);
  const auto ring_of = [cx, cy](std::int64_t x, std::int64_t y) {
    return std::max(std::abs(x - cx), std::abs(y - cy));
  };
  // Rings of cells at Chebyshev distance r from the centre cell. Only the
  // rings from the first that reaches the grown bounding box to the last
  // that covers it can hold an occupied cell.
  const std::int64_t first_ring =
      std::max({shard.lo_cx - cx, cx - shard.hi_cx, shard.lo_cy - cy,
                cy - shard.hi_cy, std::int64_t{0}});
  const std::int64_t last_ring =
      std::max({ring_of(shard.lo_cx, shard.lo_cy),
                ring_of(shard.hi_cx, shard.hi_cy)});
  const auto occupied = static_cast<std::int64_t>(shard.cells.size());
  std::vector<Neighbor> hits;
  const auto scan = [&](std::int64_t x, std::int64_t y) {
    // Off the int32 grid no cell is occupied (and the key would alias).
    if (x < kMinCell || x > kMaxCell || y < kMinCell || y > kMaxCell) return;
    scan_cell(shard, pack_key(x, y), center, unlimited, hits);
  };
  for (std::int64_t ring = first_ring; ring <= last_ring; ++ring) {
    // Every point in ring r is at least (r-1) cells away, so once k hits
    // lie within that bound the shard is exhausted.
    if (hits.size() >= k &&
        static_cast<double>(ring - 1) * options_.cell_size >
            hits[k - 1].distance) {
      break;
    }
    if (ring == 0) {
      scan(cx, cy);
    } else if (8 * ring > occupied) {
      // The ring has more cells than the shard has occupied ones: scan
      // every occupied cell this and later rings would reach, once, and
      // make this the last pass.
      for (const auto& [key, mns] : shard.cells) {
        if (ring_of(key_x(key), key_y(key)) >= ring) {
          scan_cell(shard, key, center, unlimited, hits);
        }
      }
      ring = last_ring;
    } else {
      for (std::int64_t x = cx - ring; x <= cx + ring; ++x) {
        scan(x, cy - ring);
        scan(x, cy + ring);
      }
      for (std::int64_t y = cy - ring + 1; y < cy + ring; ++y) {
        scan(cx - ring, y);
        scan(cx + ring, y);
      }
    }
    std::sort(hits.begin(), hits.end(), by_distance_then_mn);
    if (hits.size() > k) hits.resize(k);
  }
  out.insert(out.end(), hits.begin(), hits.end());
}

std::vector<Neighbor> ShardedDirectory::k_nearest(geo::Vec2 center,
                                                  std::size_t k) const {
  const bool telemetry = obs::enabled();
  const LatencyTimer timer(telemetry);
  std::vector<Neighbor> merged;
  if (k > 0 && finite(center)) {
    for (const std::unique_ptr<Shard>& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      nearest_in_shard(*shard, center, k, merged);
    }
    std::sort(merged.begin(), merged.end(), by_distance_then_mn);
    if (merged.size() > k) merged.resize(k);
  }
  if (telemetry) {
    ServeMetrics& metrics = serve_metrics();
    metrics.nearest_queries.inc();
    timer.record(metrics.nearest_seconds);
  }
  return merged;
}

std::vector<DirectoryEntry> ShardedDirectory::snapshot() const {
  std::vector<DirectoryEntry> out;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->store.for_each([&out](const broker::MnTrack& track) {
      const broker::LocationFix& view = track.record().current_view;
      out.push_back({track.mn(), view.t, view.position, view.estimated});
    });
  }
  std::sort(out.begin(), out.end(),
            [](const DirectoryEntry& a, const DirectoryEntry& b) {
              return a.mn < b.mn;
            });
  return out;
}

std::size_t ShardedDirectory::size() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->store.size();
  }
  return total;
}

std::vector<std::size_t> ShardedDirectory::shard_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    sizes.push_back(shard->store.size());
  }
  return sizes;
}

void ShardedDirectory::set_degraded(bool degraded) noexcept {
  const bool was = degraded_.exchange(degraded, std::memory_order_relaxed);
  if (was != degraded && obs::enabled()) {
    serve_metrics().degraded.set(degraded ? 1.0 : 0.0);
  }
}

bool ShardedDirectory::degraded() const noexcept {
  return degraded_.load(std::memory_order_relaxed);
}

std::optional<ShardedDirectory::BoundedBelief> ShardedDirectory::lookup_bounded(
    std::uint32_t mn, SimTime now, double max_staleness) const {
  std::optional<BoundedBelief> belief;
  {
    Shard& shard = shard_for(mn);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (const broker::MnTrack* track = shard.store.find(mn)) {
      const broker::LocationFix& view = track->record().current_view;
      BoundedBelief b;
      b.entry = DirectoryEntry{mn, view.t, view.position, view.estimated};
      b.age_seconds = std::max(0.0, now - view.t);
      b.degraded = degraded();
      b.within_bound = b.age_seconds <= max_staleness;
      belief = b;
    }
  }
  if (belief && belief->degraded && obs::enabled()) {
    serve_metrics().degraded_lookups.inc();
  }
  return belief;
}

void ShardedDirectory::for_each_track(
    const std::function<void(const broker::MnTrack&)>& fn) const {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const broker::MnTrack* track : shard->store.sorted()) fn(*track);
  }
}

bool ShardedDirectory::restore_track(std::uint32_t mn, const double*& it,
                                     const double* end) {
  Shard& shard = shard_for(mn);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const broker::MnTrack* track = shard.store.restore(mn, it, end);
  if (track == nullptr) return false;
  if (track->has_report()) {
    index_position(shard, mn, track->record().current_view.position);
  }
  return true;
}

ShardedDirectory::StalenessSummary ShardedDirectory::staleness_summary(
    SimTime now) const {
  // One pass per shard under its lock collecting ages; the aggregation
  // (sum / p99 / max) happens lock-free afterwards. O(n) but called at
  // scrape/tick rate, not per operation.
  std::vector<double> ages;
  ages.reserve(64);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->store.for_each([&ages, now](const broker::MnTrack& track) {
      if (track.has_report()) {
        ages.push_back(std::max(0.0, now - track.last_reported_time()));
      }
    });
  }
  StalenessSummary summary;
  summary.tracked = ages.size();
  if (ages.empty()) return summary;
  double sum = 0.0;
  for (double age : ages) {
    sum += age;
    summary.max_seconds = std::max(summary.max_seconds, age);
  }
  summary.mean_seconds = sum / static_cast<double>(ages.size());
  const std::size_t rank = std::min(
      ages.size() - 1,
      static_cast<std::size_t>(
          std::ceil(0.99 * static_cast<double>(ages.size())) - 1));
  std::nth_element(ages.begin(),
                   ages.begin() + static_cast<std::ptrdiff_t>(rank),
                   ages.end());
  summary.p99_seconds = ages[rank];
  return summary;
}

}  // namespace mgrid::serve
