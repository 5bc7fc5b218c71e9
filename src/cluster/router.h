// Front-end router: one process that makes N shard nodes look like one
// directory.
//
// Writes: each LU hashes onto the ring (cluster/ring.h) and is buffered in
// its owner shard's batch; a batch is forwarded in one TCP send when it
// reaches batch_size or at flush(). tick() is the cluster-wide barrier —
// flush everything, send kTick to every shard, await every kAck — after
// which all state up to the tick is applied and estimates are advanced
// everywhere. Because the router preserves per-MN submission order (one MN
// always maps to one shard batch, appended in arrival order) the union of
// the shards' directories after tick T equals the single-process directory
// after tick T, bit-identically — the cluster determinism test's claim.
//
// Reads: lookups route to the owner shard; spatial queries fan out to every
// shard and the kNeighbor streams merge by (distance, mn) — the same total
// order ShardedDirectory uses — truncated to the caller's limit, so a
// clustered query returns byte-identical results to a single directory.
//
// Health: an optional background thread probes each shard's admin /readyz
// (using the hardened obs::http_get with its connect/read deadlines). A
// shard is `up` after consecutive successes, `down` after a failure; each
// down->up transition bumps the shard's epoch, and the router's own
// readiness (all_ready()) is the AND over shards — surfaced through the
// router's /readyz so the chaos test can watch a SIGKILL'd shard degrade
// the router and a restart recover it.
//
// Thread-safety: submit/flush/tick/queries serialize on one mutex (the
// router is a single logical stream toward the shards); health state has
// its own lock so probes never stall the data path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/client.h"
#include "cluster/ring.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/wire.h"
#include "util/json.h"

namespace mgrid::cluster {

struct RouterShardConfig {
  std::string name;  ///< Ring node name; must be unique.
  std::string host = "127.0.0.1";
  std::uint16_t lu_port = 0;     ///< The shard's LuServer port.
  std::uint16_t admin_port = 0;  ///< The shard's admin port (0 = no probe).
};

struct RouterOptions {
  std::size_t vnodes = 64;
  std::size_t probes = 21;  ///< Multi-probe lookups per key (cluster/ring.h).
  /// LUs buffered per shard before an automatic flush.
  std::size_t batch_size = 64;
  double connect_timeout_seconds = 5.0;
  double io_timeout_seconds = 5.0;
  /// Health probe period; 0 disables the health thread (shards then count
  /// as up while their connection is open).
  double health_period_seconds = 0.5;
  double health_timeout_seconds = 1.0;
  /// Cluster trace sampling: when set, each submitted LU whose
  /// deterministic trace id (SpanTracer::trace_id(kClusterTraceSource, mn,
  /// seq)) samples is forwarded as a kTracedLu frame carrying that id and
  /// the router's accept/send timestamps — the root of the cross-process
  /// span tree. Must outlive the router.
  obs::SpanTracer* spans = nullptr;
};

/// Health view of one shard (snapshot copy).
struct ShardHealth {
  std::string name;
  bool up = false;
  /// Down->up transitions observed (0 until the first successful probe).
  std::uint64_t epoch = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
};

struct RouterStats {
  std::uint64_t lus_forwarded = 0;
  std::uint64_t lus_dropped = 0;  ///< Batches lost to a dead shard.
  std::uint64_t batches_sent = 0;
  std::uint64_t ticks = 0;
  std::uint64_t tick_failures = 0;  ///< Ticks some shard failed to ack.
  std::uint64_t lookups = 0;
  std::uint64_t region_queries = 0;
  std::uint64_t nearest_queries = 0;
  std::uint64_t neighbors_merged = 0;  ///< Pre-truncation merged hits.
  std::uint64_t query_failures = 0;    ///< Shard legs lost mid-query.
  std::uint64_t reconnects = 0;
  std::uint64_t ring_version = 0;
};

class Router {
 public:
  Router(RouterOptions options, std::vector<RouterShardConfig> shards);
  ~Router();  ///< Implies stop().

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Connects every shard's LU socket and starts the health thread.
  /// Returns false with `error` naming the first shard that refused.
  bool start(std::string* error = nullptr);
  void stop();

  /// Routes one LU to its owner shard's batch; forwards the batch when it
  /// reaches batch_size. Returns false when the send to a shard failed
  /// (the batch is dropped and counted; the health thread will flag the
  /// shard and reconnect on recovery).
  bool submit(const wire::LuMsg& msg);
  /// Forwards every non-empty batch now.
  bool flush();
  /// Cluster barrier: flush, kTick to every shard, await every ack.
  bool tick(double t, std::uint64_t tick);

  [[nodiscard]] std::optional<wire::LookupReplyMsg> lookup(std::uint32_t mn,
                                                           double t);
  /// Fan-out spatial queries; results merged by (distance, mn) across
  /// shards — identical ordering to a single ShardedDirectory.
  [[nodiscard]] std::vector<wire::NeighborMsg> query_region(
      double x, double y, double radius, std::uint32_t max_results = 0);
  [[nodiscard]] std::vector<wire::NeighborMsg> k_nearest(double x, double y,
                                                         std::uint32_t k);

  /// Membership change (handoff drivers). The caller is responsible for
  /// moving the affected tracks (cluster/handoff.h) before resuming
  /// traffic; moved_mns() on the rings before/after says which.
  bool add_shard(const RouterShardConfig& config, std::string* error = nullptr);
  bool remove_shard(const std::string& name);

  /// All shards up (health thread view); with health probing disabled,
  /// all LU connections open.
  [[nodiscard]] bool all_ready() const;
  [[nodiscard]] std::vector<ShardHealth> health() const;
  [[nodiscard]] RouterStats stats() const;
  /// Owner shard name for an MN (current ring).
  [[nodiscard]] std::string owner(std::uint32_t mn) const;
  [[nodiscard]] std::vector<std::string> shard_names() const;

  /// Writes the /statusz "cluster" block: role, ring version, per-shard
  /// health/epochs, forward/merge counters (serve::AdminHooks::cluster_status).
  void write_cluster_status(util::JsonWriter& json) const;

 private:
  struct Shard {
    RouterShardConfig config;
    ShardClient client;
    std::vector<wire::LuMsg> batch;
    /// mgrid_router_forwarded_lus_total{shard=<name>}
    obs::Counter forwarded;
    explicit Shard(const RouterShardConfig& cfg, const RouterOptions& opts);
  };

  void health_main();
  /// Sends one shard's batch (data mutex held). Clears the batch either
  /// way; failures count lus_dropped.
  bool send_batch_locked(Shard& shard);
  /// Rebuilds by_ring_index_ after the ring or shards_ changed.
  void reindex_locked();

  RouterOptions options_;

  /// Data path: ring, shard table, batches, client connections.
  mutable std::mutex mutex_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// shards_ by ring node index: by_ring_index_[ring_.owner_index(mn)] is
  /// mn's shard, so routing an LU compares no names.
  std::vector<Shard*> by_ring_index_;

  /// Health state (separate lock: probes must not stall submits).
  mutable std::mutex health_mutex_;
  std::unordered_map<std::string, ShardHealth> health_;
  std::condition_variable health_cv_;
  bool health_stop_ = false;
  std::thread health_thread_;
  bool started_ = false;

  std::atomic<std::uint64_t> lus_forwarded_{0};
  std::atomic<std::uint64_t> lus_dropped_{0};
  std::atomic<std::uint64_t> batches_sent_{0};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> tick_failures_{0};
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> region_queries_{0};
  std::atomic<std::uint64_t> nearest_queries_{0};
  std::atomic<std::uint64_t> neighbors_merged_{0};
  std::atomic<std::uint64_t> query_failures_{0};
  std::atomic<std::uint64_t> reconnects_{0};

  obs::Gauge ring_version_gauge_;  ///< mgrid_cluster_ring_version
};

}  // namespace mgrid::cluster
