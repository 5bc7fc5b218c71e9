// Front-end router: one process that makes N shard nodes look like one
// directory.
//
// Writes: each LU is buffered in its owner shard's batch; a batch is
// forwarded in one TCP send when it reaches batch_size or at flush(). The
// owner comes from the ring (cluster/ring.h), memoised: a byte per MN id
// below 2^20 holds the owner's ring index, filled on the MN's first LU and
// cleared on every membership change, so an LU pays one table read instead
// of 21 probe hashes (ids at or above 2^20 ask the ring every time).
// tick() is the cluster-wide barrier — flush everything, send kTick to
// every shard, then read every kAck — after which all state up to the tick
// is applied and estimates are advanced everywhere. All kTicks go out
// before the first ack is read, so the shards run their barriers at once
// and a tick costs the slowest shard's barrier, not the sum. Because the
// router preserves per-MN submission order (one MN always maps to one
// shard batch, appended in arrival order) the union of the shards'
// directories after tick T equals the single-process directory after tick
// T, bit-identically — the cluster determinism test's claim.
//
// Reads: lookups route to the owner shard; spatial queries fan out to every
// shard the same way ticks do (every query sent, then every kNeighbor
// stream read) and the streams merge by (distance, mn) — the same total
// order ShardedDirectory uses — truncated to the caller's limit, so a
// clustered query returns byte-identical results to a single directory.
//
// Failures in a fan-out stay with their shard: a shard whose send, reply or
// ack fails (or that acks kRejected) fails the tick or counts one
// query_failures, and every other shard's reply is still read, so no
// connection is left holding a reply that a later request would misread.
// A failed reply closes its connection (cluster/client.h); the next request
// reconnects. Replies are read in shard order, each read bounded by
// io_timeout_seconds. A reply larger than the socket buffers waits in its
// shard's send until the router reaches it, and an LuServer gives up on a
// send blocked for poll_seconds (0.25 s): a query with thousands of hits
// per shard, behind a leg slower than that, loses its leg (counted).
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
  /// Cluster barrier: flush, send kTick to every shard, then await every
  /// ack, so the shards' barriers run concurrently. False when any shard
  /// failed to ack kOk; the other shards' acks are read either way.
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
  /// Owner shard name for an MN (current ring, through the owner table).
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

  /// Owner table bound: ids below it are memoised, others ask the ring.
  static constexpr std::uint32_t kOwnerTableLimit = 1u << 20;
  /// Owner table entry of an MN not looked up since the last membership
  /// change. A ring of more nodes than this is not memoised at all.
  static constexpr std::uint8_t kUnknownOwner = 0xFF;

  void health_main();
  /// Sends one shard's batch (data mutex held). Clears the batch either
  /// way; failures count lus_dropped.
  bool send_batch_locked(Shard& shard);
  /// Sends every non-empty batch (data mutex held).
  bool flush_locked();
  /// Sends one request to every shard with send(client), reconnecting a
  /// closed connection first, then reads each reply with await(client).
  /// Returns how many shards failed either half.
  template <typename Send, typename Await>
  std::size_t fan_out_locked(const Send& send, const Await& await);
  /// Fans a spatial query out, merges the kNeighbor streams by (distance,
  /// mn) and keeps the first `limit`; lost legs count query_failures.
  template <typename Query>
  std::vector<wire::NeighborMsg> merged_query_locked(const Query& query,
                                                     std::size_t limit);
  /// Rebuilds by_ring_index_ and clears the owner table after the ring or
  /// shards_ changed.
  void reindex_locked();
  /// ring_.owner_index(mn), through the owner table.
  [[nodiscard]] std::size_t owner_index_locked(std::uint32_t mn) const;

  RouterOptions options_;

  /// Data path: ring, shard table, batches, client connections.
  mutable std::mutex mutex_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// shards_ by ring node index: by_ring_index_[ring_.owner_index(mn)] is
  /// mn's shard, so routing an LU compares no names.
  std::vector<Shard*> by_ring_index_;
  /// owner_table_[mn] = ring_.owner_index(mn), or kUnknownOwner; grown to
  /// the largest id seen below kOwnerTableLimit (1 MiB at most).
  mutable std::vector<std::uint8_t> owner_table_;
  /// fan_out_locked's shards still owing a reply (reused per call).
  std::vector<ShardClient*> awaiting_;

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
