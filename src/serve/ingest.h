// Batched LU ingestion pipeline for the serving layer.
//
// Producers submit decoded wire::LuMsg frames; each LU is routed to one of
// `sources` MPSC queues by mn % sources, and each queue is owned by exactly
// one worker (source % workers). Workers drain their queues in batches,
// group each batch by destination shard and apply it under one shard lock
// per group, which amortises locking at high rates.
//
// Ordering: "take a batch from a queue + apply it" runs under that queue's
// drain lock, whoever does it — the owning worker or a flush() caller — so
// LUs of one MN are applied in submission order for ANY worker count, and
// replaying a log with 1 worker or 8 reaches the same directory state.
//
// Wake policy: submit() does not wake a worker per LU. It rings the owning
// worker (and only that one) in two cases: the worker is parked with no
// work at all, or the queue just reached its wake depth — batch_size, or
// half of queue_capacity / of the shed threshold when those are set, so
// deferring the drain never turns into a reject or a shed. A worker that
// drained something waits a fixed short linger (kLinger in ingest.cpp,
// 50 us) for more LUs to gather, then looks again; after one empty look it
// parks until rung. On a quiet server an LU therefore becomes visible to
// lookup() within about one linger plus one batch apply of its submit, or
// at the next flush(), whichever is first.
//
// flush() is the barrier the replay and tick drivers use between simulated
// ticks: it returns once every LU submitted before the call has been
// applied. The caller drains every queue itself, batch by batch under each
// queue's drain lock, up to the queue's length at the call — the barrier
// never waits for a worker to be scheduled, and producers running beside
// it cannot keep it from returning.
//
// Backpressure telemetry (recorded into the registry that is current on the
// constructing thread; worker threads and flushing callers install it):
// per-source queue-depth gauges (mgrid_ingest_queue_depth{source=...}), an
// enqueue-to-apply latency histogram, a batch-size histogram and
// accept/reject counters (mgrid_ingest_rejected_total{reason="full"|
// "stale"}). The bounded-queue mode (queue_capacity > 0) turns overload into
// counted rejects instead of unbounded memory growth. All of it is gated on
// obs::enabled(): the disabled cost per submit is one relaxed atomic load.
//
// Latency attribution (options.spans): deterministically sampled LUs carry
// a per-stage span — source-queue wait, WAL append, directory apply,
// visible-to-lookup — recorded into an obs::SpanTracer under the
// "update_latency" SLI. Sampling is a hash of (source, mn, seq), so any
// worker count selects the byte-identical span set. The stage values tile
// the span: their sum equals its total exactly. An LU whose trace context
// is set (msg.trace.trace_id != 0) arrived from a traced cluster hop: while
// the tracer is enabled it is force-sampled under the upstream trace id and
// additionally carries the router-batch and network stages computed from
// the propagated timestamps.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/directory.h"
#include "serve/wal.h"
#include "serve/wire.h"

namespace mgrid::serve {

struct IngestOptions {
  /// MPSC queue count (>= 1). LUs route to queue mn % sources.
  std::size_t sources = 8;
  /// Worker threads (>= 1). Queue q is owned by worker q % workers.
  std::size_t workers = 1;
  /// Max LUs a worker takes from one queue per drain.
  std::size_t batch_size = 256;
  /// Per-queue capacity; submits beyond it are rejected (0 = unbounded).
  std::size_t queue_capacity = 0;
  /// Start with workers parked: producers can pre-fill the queues, then
  /// resume() releases the workers. Lets benchmarks time pure drain
  /// throughput without the producer in the loop.
  bool start_paused = false;
  /// Called after each applied batch — by a worker, or by a flush() caller
  /// draining on its own thread — with (batch size, max
  /// enqueue-to-apply seconds in the batch). Latencies are only measured
  /// while obs::enabled(); the hook then feeds e.g. an obs::SloMonitor's
  /// update-latency SLI at batch rate rather than per LU. Must be
  /// thread-safe. Empty = disabled.
  std::function<void(std::size_t, double)> backpressure_hook;
  /// Admission control: when a source queue's depth reaches this fraction
  /// of queue_capacity, LUs that carry little information — the MN moved
  /// less than shed_min_displacement since its last accepted fix — are shed
  /// instead of enqueued. The ADF already suppressed sub-threshold motion
  /// at the sender; under overload the receiver raises the bar the same
  /// way, dropping the lowest-information traffic first. 0 (or
  /// queue_capacity == 0) disables shedding.
  double shed_watermark = 0.0;
  /// Displacement (m) below which an LU is sheddable at the watermark.
  double shed_min_displacement = 5.0;
  /// Write-ahead log: when set, every *accepted* LU is appended under the
  /// source-queue lock — WAL order equals queue order per MN, so serial
  /// replay reproduces the directory exactly. The append only buffers the
  /// record; it reaches the file at the next tick barrier
  /// (WalWriter::append_tick) at the latest. Shed and rejected LUs never
  /// reach the WAL. Must outlive the pipeline.
  WalWriter* wal = nullptr;
  /// Latency attribution: when set, deterministically sampled LUs record
  /// stage-sliced spans (queue/wal/apply/visible) under the
  /// "update_latency" SLI. Must outlive the pipeline. Cost when the tracer
  /// is disabled: one relaxed atomic load per submit.
  obs::SpanTracer* spans = nullptr;
  /// Replication tap: called for every *accepted* LU under the source-queue
  /// lock, right after the WAL append — the tap sees the exact per-MN
  /// record order the WAL and the workers see, so a follower replaying the
  /// tapped stream serially reaches the same directory state (see
  /// cluster/replication.h). The tap receives the LU as submitted, trace
  /// context included, so a replication hub can keep a traced LU traced
  /// and the follower joins the same trace. Must be fast (buffer, don't
  /// block on I/O) and must not call back into the pipeline. Empty =
  /// disabled.
  std::function<void(const wire::LuMsg&)> lu_tap;
};

struct IngestStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_full = 0;   ///< Submits refused by a full queue.
  std::uint64_t applied = 0;         ///< LUs applied to the directory.
  std::uint64_t rejected_stale = 0;  ///< LUs the track refused (regression).
  std::uint64_t batches = 0;         ///< Non-empty drains.
  std::uint64_t shed_low_info = 0;   ///< LUs shed by admission control.
};

class IngestPipeline {
 public:
  /// `directory` must outlive the pipeline. Workers start immediately
  /// (parked when options.start_paused).
  IngestPipeline(ShardedDirectory& directory, IngestOptions options);
  /// Stops and joins the workers; queued LUs are still drained first.
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Enqueues one LU. Returns false (and counts rejected_full) when the
  /// source queue is at capacity. Thread-safe. An LU carrying a trace
  /// context (msg.trace.trace_id != 0) is force-sampled under that id when
  /// options.spans is set and enabled; its span then includes the
  /// router-batch and network stages computed from the context's
  /// timestamps, the network stage ending at the enqueue stamp.
  bool submit(const wire::LuMsg& msg);

  /// Releases workers parked by start_paused (no-op otherwise).
  void resume();

  /// Blocks until everything submitted before the call has been applied,
  /// draining the queues on the calling thread. Implies resume(). Safe to
  /// call concurrently with submit() and with other flush() calls.
  void flush();

  /// Drains outstanding work and joins the workers. Idempotent; submit()
  /// after stop() returns false.
  void stop();

  [[nodiscard]] IngestStats stats() const;
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }
  /// LUs accepted but not yet applied (the admin plane's readiness
  /// signal).
  [[nodiscard]] std::uint64_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }
  /// Instantaneous per-source queue depths (one short lock per queue).
  [[nodiscard]] std::vector<std::size_t> queue_depths() const;

 private:
  /// One queued LU (its trace context rides in msg.trace); `enqueued` is
  /// stamped only while telemetry is enabled or the LU is span-sampled
  /// (epoch time_point otherwise) so the disabled path never reads a clock.
  struct QueuedLu {
    wire::LuMsg msg;
    std::chrono::steady_clock::time_point enqueued{};
    /// WAL append duration for span-sampled LUs (0 otherwise / no WAL).
    std::uint64_t wal_ns = 0;
    /// Selected by the span tracer's deterministic sampler, or forced by a
    /// propagated trace context.
    bool sampled = false;
  };

  /// A span-sampled LU awaiting its apply/visible stage stamps.
  struct PendingSpan {
    std::uint32_t mn = 0;
    std::uint32_t seq = 0;
    std::uint64_t wal_ns = 0;
    std::chrono::steady_clock::time_point enqueued{};
    wire::TraceContext trace{};
  };

  struct SourceQueue {
    mutable std::mutex mutex;
    std::deque<QueuedLu> lus;
    /// LUs ever pushed (guarded by `mutex`): flush()'s per-queue target.
    std::uint64_t pushed = 0;
    /// Last accepted position per MN on this source — the displacement
    /// baseline for admission control, kept only while shedding is enabled
    /// (guarded by `mutex`).
    std::unordered_map<std::uint32_t, geo::Vec2> last_position;

    /// Serialises "take a batch + apply it" between the owning worker and
    /// flush() callers, so batches of one queue apply in queue order.
    std::mutex drain_mutex;
    /// LUs taken and applied (guarded by `drain_mutex`, counted after the
    /// apply): once it reaches a flush target, that prefix is visible.
    std::uint64_t drained = 0;
    /// Drain scratch, reused batch to batch (guarded by `drain_mutex`).
    std::vector<ShardedDirectory::LuApply> batch;
    std::vector<std::chrono::steady_clock::time_point> enqueue_times;
    std::vector<PendingSpan> pending_spans;
  };

  /// Wake-up state of one worker; aligned so producers ringing one worker
  /// do not share a cache line with another's.
  struct alignas(64) WorkerState {
    std::mutex mutex;
    std::condition_variable cv;
    /// A ring (work, resume or stop) the worker has not consumed yet
    /// (guarded by `mutex`).
    bool rung = false;
    /// Set while the worker is (about to be) parked with no work; the first
    /// submit that sees it claims it and rings.
    std::atomic<bool> parked{false};
    /// LUs queued, not yet taken, across the worker's sources.
    std::atomic<std::size_t> depth{0};
  };

  struct Telemetry;  // registry handles, resolved once at construction

  void worker_main(std::size_t worker_id);
  /// Takes up to `max_lus` LUs from queue `q` and applies them, with the
  /// counters, telemetry, hook and spans that go with a batch. The caller
  /// holds the queue's drain_mutex. Returns the number taken; `remaining`
  /// receives the queue depth after the take.
  std::size_t drain_batch(std::size_t q, std::size_t max_lus,
                          std::size_t& remaining);
  /// Wakes one worker out of its linger or park.
  static void ring(WorkerState& worker);

  ShardedDirectory& directory_;
  IngestOptions options_;
  std::vector<std::unique_ptr<SourceQueue>> queues_;
  std::vector<std::unique_ptr<WorkerState>> worker_states_;
  /// The constructing thread's current registry: telemetry handles resolve
  /// against it, and worker threads and flush() callers install it as their
  /// scoped registry, so pipeline metrics land with the owner's experiment,
  /// not the global.
  obs::MetricsRegistry* home_registry_ = nullptr;
  std::shared_ptr<Telemetry> telemetry_;

  /// Serialises resume() and stop().
  std::mutex control_mutex_;
  std::atomic<bool> paused_{false};
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  ///< Guarded by control_mutex_.

  /// Queue depth at which admission control starts shedding (SIZE_MAX when
  /// shedding is disabled).
  std::size_t shed_threshold_ = 0;
  /// Queue depth at which submit() rings the owning worker even when it is
  /// lingering: batch_size, capped at half the capacity and half the shed
  /// threshold.
  std::size_t wake_depth_ = 0;

  std::atomic<bool> accepting_{true};
  /// LUs accepted but not yet applied.
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> applied_{0};
  std::atomic<std::uint64_t> rejected_stale_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> shed_low_info_{0};
  /// True while overload shedding has the directory flagged degraded;
  /// cleared when the pipeline fully drains.
  std::atomic<bool> shed_active_{false};

  std::vector<std::thread> workers_;
};

}  // namespace mgrid::serve
