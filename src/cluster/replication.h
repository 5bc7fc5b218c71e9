// Follower replication: primaries stream their per-MN LU substream.
//
// A follower connects to its primary's LU port and sends kSubscribe. At the
// primary's next tick barrier — a quiescent point: the pipeline is flushed
// and the router holds further LUs until the tick is acked — the hub
// encodes an mgrid-snap-v2 snapshot of the directory and queues it to the
// subscriber (kSnapshotChunk* + kSnapshotDone), then streams every
// subsequent accepted LU and tick barrier in order. Attaching at the
// barrier is what makes the bootstrap exact: the snapshot covers precisely
// the LUs before it, the stream carries precisely the LUs after it, and
// nothing is double-applied or lost.
//
// Directory state is a pure function of the per-MN LU substreams plus the
// tick schedule (serve/wal.h), the tap preserves per-MN order (it runs
// under the ingest source-queue lock, right after the WAL append), and the
// follower applies serially — so a follower that has consumed through tick
// T holds the primary's directory state at T to the bit, which the
// replication determinism test asserts at 0 m.
//
// Threading: on_lu() is called under an ingest source-queue lock and only
// buffers under the hub mutex (no I/O — blocking there would stall the
// ingest hot path). A dedicated streamer thread drains per-subscriber byte
// queues to their sockets; a subscriber whose queue exceeds the cap (dead
// or unrecoverably slow peer) is dropped, never allowed to wedge the
// primary.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/directory.h"
#include "serve/wire.h"

namespace mgrid::cluster {

struct ReplicationOptions {
  /// Per-subscriber outgoing-byte cap; a subscriber whose backlog exceeds
  /// it is disconnected (slow-consumer protection).
  std::size_t max_buffered_bytes = 64u << 20;
  /// Snapshot chunking granularity (<= wire::kMaxChunkBytes).
  std::size_t chunk_bytes = 256u << 10;
};

class ReplicationHub {
 public:
  /// `directory` is the primary's directory (snapshot source); must outlive
  /// the hub. The streamer thread starts immediately.
  ReplicationHub(const serve::ShardedDirectory& directory,
                 ReplicationOptions options = {});
  ~ReplicationHub();  ///< Implies stop().

  ReplicationHub(const ReplicationHub&) = delete;
  ReplicationHub& operator=(const ReplicationHub&) = delete;

  /// The ingest pipeline's lu_tap target: buffers one accepted LU. A
  /// traced LU (msg.trace.trace_id != 0) is re-streamed as a kTracedLu with
  /// parent_stage = kVisible, so the follower end of the stream joins the
  /// same cluster trace; an untraced one as a plain kLu. Called under a
  /// source-queue lock — must stay allocation-light and never perform I/O.
  void on_lu(const wire::LuMsg& msg);

  /// Tick barrier (must be quiescent: pipeline flushed, no concurrent
  /// submits). Broadcasts the buffered LUs + the tick frame to attached
  /// subscribers and bootstraps pending ones with a snapshot taken now.
  /// `wal_records` is the primary's WAL record count at this barrier.
  void on_tick(double t, std::uint64_t tick, std::uint64_t wal_records);

  /// Takes ownership of a subscriber socket (the LU server hands over the
  /// connection on kSubscribe). The subscriber is bootstrapped at the next
  /// tick barrier.
  void adopt(int fd);

  /// Blocks until every live subscriber's outgoing queue has been written
  /// to its socket (or `timeout_seconds` passes). Call before stop() when
  /// the tail of the stream matters — stop() drops undelivered bytes.
  bool drain(double timeout_seconds = 5.0);

  /// Disconnects every subscriber and joins the streamer. Idempotent.
  void stop();

  struct Stats {
    std::uint64_t subscribers = 0;      ///< Currently attached (post-snapshot).
    std::uint64_t pending = 0;          ///< Adopted, awaiting a barrier.
    std::uint64_t attached_total = 0;   ///< Bootstraps completed.
    std::uint64_t detached_total = 0;   ///< Disconnects (any reason).
    std::uint64_t dropped_slow = 0;     ///< Killed by the backlog cap.
    std::uint64_t lus_streamed = 0;     ///< LU frames broadcast (per sub).
    std::uint64_t bytes_streamed = 0;   ///< Bytes written to sockets.
    std::uint64_t snapshot_failures = 0;
    /// Records enqueued to subscribers and not yet fully flushed to their
    /// sockets (summed over subscribers; a paused follower grows it, a
    /// drained one drives it back to 0). Mirrored into the
    /// mgrid_replication_subscriber_lag_records gauge.
    std::uint64_t subscriber_lag_records = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Subscriber {
    int fd = -1;
    std::deque<std::uint8_t> outgoing;  ///< Guarded by the hub mutex.
    bool dead = false;
    /// Frames in `outgoing` (cleared when it fully drains): the per-
    /// subscriber slice of the lag-records gauge.
    std::uint64_t buffered_records = 0;
  };

  void streamer_main();
  /// Appends bytes to one subscriber's queue (hub mutex held). `records`
  /// is the frame count in the blob, for lag accounting.
  void enqueue_locked(Subscriber& sub, const std::uint8_t* data,
                      std::size_t size, std::uint64_t records);
  /// Recomputes the lag total and mirrors it into the gauge (mutex held).
  void refresh_lag_locked();

  const serve::ShardedDirectory& directory_;
  ReplicationOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable drained_cv_;
  bool stopping_ = false;
  /// True while the streamer is writing bytes it already dequeued (drain()
  /// must not report empty queues as delivered until the write lands).
  bool streaming_ = false;
  /// Accepted-LU frames since the last barrier, already wire-encoded.
  std::vector<std::uint8_t> live_;
  std::uint64_t live_lus_ = 0;
  std::vector<int> pending_fds_;
  std::vector<std::unique_ptr<Subscriber>> subscribers_;

  std::uint64_t attached_total_ = 0;
  std::uint64_t detached_total_ = 0;
  std::uint64_t dropped_slow_ = 0;
  std::uint64_t lus_streamed_ = 0;
  std::uint64_t snapshot_failures_ = 0;
  std::uint64_t subscriber_lag_records_ = 0;
  std::atomic<std::uint64_t> bytes_streamed_{0};
  obs::Gauge lag_gauge_;  ///< mgrid_replication_subscriber_lag_records

  std::thread streamer_;
};

struct FollowerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< Primary's LU port.
  double connect_timeout_seconds = 5.0;
  /// Also the granularity at which run() notices stop() while idle.
  double io_timeout_seconds = 0.25;
  /// Latency attribution: while the tracer is enabled, traced LUs on the
  /// stream record a follower-apply span under the propagated trace id,
  /// SLI "follower_apply". Must outlive the follower. Optional.
  obs::SpanTracer* spans = nullptr;
};

/// Replays a primary's replication stream into a local directory.
class Follower {
 public:
  /// `directory` should be empty and configured identically to the
  /// primary's (same estimator stack — snapshot restore fails otherwise).
  Follower(serve::ShardedDirectory& directory, FollowerOptions options);
  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Connects and subscribes. Returns false with `error` set on failure.
  /// Not concurrently with run().
  bool connect(std::string* error = nullptr);

  /// Consumes the stream until the primary disconnects or stop() is
  /// called: snapshot chunks assemble and apply first, then each kLu is a
  /// serial directory update and each kTick an advance_estimates — exactly
  /// WAL-replay semantics. Returns true on clean end-of-stream. On return
  /// the connection is shut down.
  bool run();

  /// Unblocks run() (thread-safe, idempotent).
  void stop();

  struct Stats {
    bool snapshot_loaded = false;
    std::uint64_t snapshot_bytes = 0;
    std::uint64_t snapshot_wal_records = 0;
    std::uint64_t tracks_restored = 0;
    std::uint64_t lus_applied = 0;
    std::uint64_t lus_rejected = 0;
    std::uint64_t ticks_applied = 0;
    double last_tick_t = 0.0;
    std::uint64_t last_tick = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const std::string& last_error() const noexcept {
    return error_;
  }

 private:
  bool consume();
  void shutdown_socket();

  serve::ShardedDirectory& directory_;
  FollowerOptions options_;
  /// The connected socket, owned here and closed only by connect() and the
  /// destructor. stop() shuts it down under socket_mutex_ while run() reads
  /// through conn_, which holds a dup(2) of it: conn_ may close its copy at
  /// any time without freeing the fd number stop() uses.
  std::mutex socket_mutex_;
  int socket_fd_ = -1;
  FrameConn conn_;
  std::atomic<bool> stop_{false};
  mutable std::mutex stats_mutex_;
  Stats stats_;
  std::string error_;
};

}  // namespace mgrid::cluster
