// TCP front door of one shard node: accepts mgrid-lu-v1 connections and
// feeds the serving stack.
//
// Same shape as the obs/http admin server — one accept thread, a bounded
// queue of accepted connections, a small worker pool — but where an HTTP
// connection is one request, an LU connection is a long-lived stream: a
// worker owns it until the peer disconnects, decoding frames from a
// buffered reader and dispatching per type:
//
//   kLu /          pipeline->submit() (no per-LU ack; queue-full rejects
//   kTracedLu      are counted and visible in /statusz, matching the ADF
//                  paper's fire-and-forget update model). Both decode to
//                  one LuMsg; a traced one carries its trace context into
//                  the pipeline, whose enqueue stamp closes the network
//                  stage of the cluster span
//   kTick          the cluster's barrier: flush the pipeline, append the
//                  WAL tick record, advance_estimates(t), notify the
//                  replication hub — the exact sequence the single-process
//                  driver runs, which is what keeps a shard's state
//                  bit-identical to its slice of a single-process run —
//                  then reply kAck
//   kLookup        directory lookup -> kLookupReply
//   kRegionQuery / directory spatial query -> kNeighbor stream + kQueryDone
//   kNearestQuery
//   kSubscribe     hand the socket over to the ReplicationHub (the worker
//                  is freed; the hub streams until the follower leaves)
//
// A malformed frame closes the connection (counted), never the server.
// stop() is graceful: the listener unblocks, live connections are shut
// down, every thread joins.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/replication.h"
#include "serve/directory.h"
#include "serve/ingest.h"
#include "serve/wal.h"
#include "serve/wire.h"

namespace mgrid::cluster {

struct LuServerOptions {
  /// Loopback by default, like the admin plane.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the bound port via port().
  std::uint16_t port = 0;
  /// Workers each own one live connection; size for the expected concurrent
  /// connection count (router + a few followers), not for request rate.
  std::size_t worker_threads = 4;
  /// Accepted-but-unowned connection bound; excess is closed immediately.
  std::size_t max_queued_connections = 16;
  /// Granularity at which an idle connection's worker polls for stop().
  double poll_seconds = 0.25;
};

struct LuServerHooks {
  serve::ShardedDirectory* directory = nullptr;  ///< Required.
  serve::IngestPipeline* pipeline = nullptr;     ///< Required.
  serve::WalWriter* wal = nullptr;               ///< Optional.
  ReplicationHub* replication = nullptr;         ///< Optional.
  /// Fired after each tick barrier completes (snapshotting drivers hook
  /// here). Runs on the connection's worker thread.
  std::function<void(double t, std::uint64_t tick)> on_tick;
};

/// Monotonic counters (snapshot copy).
struct LuServerStats {
  std::uint64_t connections = 0;       ///< Accepted.
  std::uint64_t rejected_busy = 0;     ///< Closed by the queue bound.
  std::uint64_t lus = 0;               ///< kLu/kTracedLu frames received.
  std::uint64_t lus_rejected = 0;      ///< submit() refused (queue full).
  std::uint64_t ticks = 0;             ///< Barriers completed.
  std::uint64_t lookups = 0;
  std::uint64_t region_queries = 0;
  std::uint64_t nearest_queries = 0;
  std::uint64_t neighbors_sent = 0;    ///< kNeighbor frames written.
  std::uint64_t subscribes = 0;        ///< Sockets handed to replication.
  std::uint64_t bad_frames = 0;        ///< Connections dropped on decode.
};

class LuServer {
 public:
  LuServer(LuServerOptions options, LuServerHooks hooks);
  ~LuServer();  ///< Implies stop().

  LuServer(const LuServer&) = delete;
  LuServer& operator=(const LuServer&) = delete;

  /// Binds, listens, starts the threads. Throws std::runtime_error on
  /// socket failure or missing required hooks.
  void start();
  /// Graceful shutdown; idempotent. Live connections are dropped.
  void stop();

  [[nodiscard]] bool running() const noexcept;
  /// Bound port (resolves port 0 after start()); 0 before start().
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }
  [[nodiscard]] LuServerStats stats() const;

 private:
  void accept_main();
  void worker_main();
  void serve_connection(int fd);
  /// Dispatches one frame; false = stop serving this connection.
  bool dispatch(FrameConn& conn, wire::Message& msg, bool& handed_off);

  LuServerOptions options_;
  LuServerHooks hooks_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<int> pending_;
  /// Fds currently owned by workers; stop() shuts them down to unblock.
  std::set<int> active_;

  /// Serializes tick barriers: only one connection may run the
  /// flush/advance sequence at a time (the router sends one tick at a time,
  /// but a misbehaving second client must not corrupt the barrier).
  std::mutex barrier_mutex_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> rejected_busy_{0};
  std::atomic<std::uint64_t> lus_{0};
  std::atomic<std::uint64_t> lus_rejected_{0};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> region_queries_{0};
  std::atomic<std::uint64_t> nearest_queries_{0};
  std::atomic<std::uint64_t> neighbors_sent_{0};
  std::atomic<std::uint64_t> subscribes_{0};
  std::atomic<std::uint64_t> bad_frames_{0};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace mgrid::cluster
