#include "serve/ingest.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/trace.h"

namespace mgrid::serve {

/// Registry handles for the pipeline's backpressure telemetry, resolved
/// once against the constructing thread's current registry. Depth gauges
/// are per source so a scrape shows which queues are hot.
struct IngestPipeline::Telemetry {
  obs::Counter accepted;
  obs::Counter rejected_full;
  obs::Counter rejected_stale;
  obs::Counter shed_low_info;
  obs::Counter shed_queue_full;
  obs::HistogramMetric enqueue_to_apply_seconds;
  obs::HistogramMetric batch_size;
  std::vector<obs::Gauge> queue_depth;  ///< One per source.

  Telemetry(obs::MetricsRegistry& registry, std::size_t sources,
            std::size_t max_batch) {
    accepted = registry.counter("mgrid_ingest_accepted_total", {},
                                "LUs accepted into the ingest queues");
    rejected_full =
        registry.counter("mgrid_ingest_rejected_total",
                         {{"reason", "full"}},
                         "LUs rejected by the ingest pipeline");
    rejected_stale =
        registry.counter("mgrid_ingest_rejected_total",
                         {{"reason", "stale"}},
                         "LUs rejected by the ingest pipeline");
    shed_low_info = registry.counter(
        "mgrid_ingest_shed_total", {{"reason", "low_info"}},
        "LUs shed by overload admission control");
    shed_queue_full = registry.counter(
        "mgrid_ingest_shed_total", {{"reason", "queue_full"}},
        "LUs shed by overload admission control");
    enqueue_to_apply_seconds = registry.histogram(
        "mgrid_ingest_enqueue_to_apply_seconds", 0.0, 0.1, 100, {},
        "Latency from submit() to directory apply");
    batch_size = registry.histogram(
        "mgrid_ingest_batch_size", 0.0,
        static_cast<double>(max_batch) + 1.0,
        std::min<std::size_t>(max_batch + 1, 64), {},
        "LUs drained per worker batch");
    queue_depth.reserve(sources);
    for (std::size_t s = 0; s < sources; ++s) {
      queue_depth.push_back(registry.gauge(
          "mgrid_ingest_queue_depth", {{"source", std::to_string(s)}},
          "Instantaneous depth of one ingest source queue"));
    }
  }
};

IngestPipeline::IngestPipeline(ShardedDirectory& directory,
                               IngestOptions options)
    : directory_(directory), options_(std::move(options)) {
  if (options_.sources == 0) {
    throw std::invalid_argument("IngestPipeline: sources must be >= 1");
  }
  if (options_.workers == 0) {
    throw std::invalid_argument("IngestPipeline: workers must be >= 1");
  }
  if (options_.batch_size == 0) {
    throw std::invalid_argument("IngestPipeline: batch_size must be >= 1");
  }
  if (options_.shed_watermark < 0.0 || options_.shed_watermark > 1.0) {
    throw std::invalid_argument(
        "IngestPipeline: shed_watermark must be in [0, 1]");
  }
  if (options_.shed_watermark > 0.0 && options_.queue_capacity > 0) {
    shed_threshold_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(options_.shed_watermark *
                                    static_cast<double>(
                                        options_.queue_capacity)));
  } else {
    shed_threshold_ = std::numeric_limits<std::size_t>::max();
  }
  paused_ = options_.start_paused;
  queues_.reserve(options_.sources);
  for (std::size_t i = 0; i < options_.sources; ++i) {
    queues_.push_back(std::make_unique<SourceQueue>());
  }
  home_registry_ = &obs::current_registry();
  telemetry_ = std::make_shared<Telemetry>(*home_registry_, options_.sources,
                                           options_.batch_size);
  if (options_.spans != nullptr) {
    // Exemplar buckets mirror the enqueue-to-apply latency histogram, so a
    // /tracez exemplar maps 1:1 onto a /metrics bucket.
    options_.spans->register_sli("update_latency", 0.0, 0.1, 100);
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

IngestPipeline::~IngestPipeline() { stop(); }

bool IngestPipeline::submit(const wire::LuMsg& msg) {
  if (!accepting_.load(std::memory_order_acquire)) return false;
  const bool telemetry = obs::enabled();
  const std::size_t source = msg.mn % queues_.size();
  // Producer-side sampling decision: a pure function of the LU's identity,
  // so the sampled set cannot depend on worker count or timing. An LU with
  // a propagated context was sampled upstream and stays sampled here while
  // the tracer is on, so one cluster-wide decision selects every hop of the
  // trace.
  const bool span_sampled =
      options_.spans != nullptr &&
      (msg.trace.trace_id != 0
           ? options_.spans->enabled()
           : options_.spans->sampled(static_cast<std::uint32_t>(source),
                                     msg.mn, msg.seq));
  SourceQueue& queue = *queues_[source];
  bool was_empty = false;
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(queue.mutex);
    if (options_.queue_capacity > 0 &&
        queue.lus.size() >= options_.queue_capacity) {
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      if (telemetry) {
        telemetry_->rejected_full.inc();
        telemetry_->shed_queue_full.inc();
      }
      if (!shed_active_.exchange(true, std::memory_order_relaxed)) {
        directory_.set_degraded(true);
      }
      return false;
    }
    if (queue.lus.size() >= shed_threshold_) {
      // Overload: shed lowest-information LUs first. An MN that barely
      // moved since its last accepted fix costs the estimator little to
      // lose — the same displacement signal the ADF filters on.
      const auto last = queue.last_position.find(msg.mn);
      if (last != queue.last_position.end()) {
        const geo::Vec2 displacement =
            geo::Vec2{msg.x, msg.y} - last->second;
        if (displacement.norm() < options_.shed_min_displacement) {
          shed_low_info_.fetch_add(1, std::memory_order_relaxed);
          if (telemetry) telemetry_->shed_low_info.inc();
          if (!shed_active_.exchange(true, std::memory_order_relaxed)) {
            directory_.set_degraded(true);
          }
          return false;
        }
      }
    }
    was_empty = queue.lus.empty();
    QueuedLu item;
    item.msg = msg;
    item.sampled = span_sampled;
    if (telemetry || span_sampled) {
      item.enqueued = std::chrono::steady_clock::now();
    }
    queue.lus.push_back(item);
    // The displacement baseline is read only by the shedding check above.
    if (shed_threshold_ != std::numeric_limits<std::size_t>::max()) {
      queue.last_position[msg.mn] = geo::Vec2{msg.x, msg.y};
    }
    // WAL append inside the queue lock: the log's per-MN record order is the
    // queue's, so serial replay reproduces exactly what the workers apply.
    if (options_.wal != nullptr) {
      if (span_sampled) {
        // Carve the WAL append (a buffer append; a write(2) when the buffer
        // fills) out of the queue-wait stage.
        const auto wal_start = std::chrono::steady_clock::now();
        options_.wal->append(msg);
        queue.lus.back().wal_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wal_start)
                .count());
      } else {
        options_.wal->append(msg);
      }
    }
    // Replication tap under the same lock: the tapped stream's per-MN order
    // is the queue's (== the WAL's), which is what makes follower replay
    // deterministic. Tap time lands in the span's queue stage.
    if (options_.lu_tap) options_.lu_tap(msg);
    depth = queue.lus.size();
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1, std::memory_order_acq_rel);
  if (telemetry) {
    telemetry_->accepted.inc();
    telemetry_->queue_depth[source].set(static_cast<double>(depth));
  }
  if (was_empty) {
    // The owning worker may be parked on an empty queue; the lock pairs
    // with its predicate check so the wakeup cannot be lost.
    const std::lock_guard<std::mutex> lock(control_mutex_);
    work_cv_.notify_all();
  }
  return true;
}

void IngestPipeline::resume() {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  if (!paused_) return;
  paused_ = false;
  work_cv_.notify_all();
}

void IngestPipeline::flush() {
  resume();
  std::unique_lock<std::mutex> lock(control_mutex_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void IngestPipeline::stop() {
  {
    const std::lock_guard<std::mutex> lock(control_mutex_);
    if (stopped_) return;
    stopped_ = true;
    accepting_.store(false, std::memory_order_release);
    stopping_ = true;
    paused_ = false;
    work_cv_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

bool IngestPipeline::own_work(std::size_t worker_id) {
  for (std::size_t q = worker_id; q < queues_.size();
       q += options_.workers) {
    const std::lock_guard<std::mutex> lock(queues_[q]->mutex);
    if (!queues_[q]->lus.empty()) return true;
  }
  return false;
}

std::vector<std::size_t> IngestPipeline::queue_depths() const {
  std::vector<std::size_t> depths;
  depths.reserve(queues_.size());
  for (const std::unique_ptr<SourceQueue>& queue : queues_) {
    const std::lock_guard<std::mutex> lock(queue->mutex);
    depths.push_back(queue->lus.size());
  }
  return depths;
}

void IngestPipeline::worker_main(std::size_t worker_id) {
  // Workers record through the owner's registry (directory apply metrics,
  // pipeline histograms), not whatever the global happens to be.
  const obs::ScopedRegistry scoped_registry(*home_registry_);
  // Name the thread for trace exports so Perfetto groups the pipeline's
  // workers instead of showing raw trace ids.
  obs::current_trace_recorder().set_thread_name(
      obs::trace_thread_id(), "ingest-worker-" + std::to_string(worker_id));
  /// A span-sampled LU awaiting its apply/visible stage stamps.
  struct PendingSpan {
    std::uint32_t mn = 0;
    std::uint32_t seq = 0;
    std::uint64_t wal_ns = 0;
    std::chrono::steady_clock::time_point enqueued{};
    wire::TraceContext trace{};
  };
  std::vector<ShardedDirectory::LuApply> batch;
  std::vector<std::chrono::steady_clock::time_point> enqueue_times;
  std::vector<PendingSpan> pending_spans;
  batch.reserve(options_.batch_size);
  enqueue_times.reserve(options_.batch_size);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(control_mutex_);
      work_cv_.wait(lock, [this, worker_id] {
        return stopping_ || (!paused_ && own_work(worker_id));
      });
    }
    bool drained_any = false;
    for (std::size_t q = worker_id; q < queues_.size();
         q += options_.workers) {
      SourceQueue& queue = *queues_[q];
      batch.clear();
      enqueue_times.clear();
      pending_spans.clear();
      std::size_t remaining_depth = 0;
      {
        const std::lock_guard<std::mutex> lock(queue.mutex);
        const std::size_t take =
            std::min(options_.batch_size, queue.lus.size());
        for (std::size_t i = 0; i < take; ++i) {
          const QueuedLu& item = queue.lus[i];
          batch.push_back({item.msg.mn,
                           item.msg.t,
                           {item.msg.x, item.msg.y},
                           {item.msg.vx, item.msg.vy}});
          enqueue_times.push_back(item.enqueued);
          if (item.sampled) {
            pending_spans.push_back({item.msg.mn, item.msg.seq, item.wal_ns,
                                     item.enqueued, item.msg.trace});
          }
        }
        queue.lus.erase(queue.lus.begin(),
                        queue.lus.begin() + static_cast<std::ptrdiff_t>(take));
        remaining_depth = queue.lus.size();
      }
      if (batch.empty()) continue;
      drained_any = true;
      std::chrono::steady_clock::time_point apply_start;
      if (!pending_spans.empty()) {
        apply_start = std::chrono::steady_clock::now();
      }
      const std::size_t applied = directory_.apply_batch(batch);
      std::chrono::steady_clock::time_point apply_end;
      if (!pending_spans.empty()) {
        apply_end = std::chrono::steady_clock::now();
      }
      applied_.fetch_add(applied, std::memory_order_relaxed);
      rejected_stale_.fetch_add(batch.size() - applied,
                                std::memory_order_relaxed);
      batches_.fetch_add(1, std::memory_order_relaxed);

      double max_latency = 0.0;
      bool have_latency = false;
      if (obs::enabled()) {
        const auto now = std::chrono::steady_clock::now();
        for (const auto& enqueued : enqueue_times) {
          if (enqueued == std::chrono::steady_clock::time_point{}) continue;
          const double seconds =
              std::chrono::duration<double>(now - enqueued).count();
          telemetry_->enqueue_to_apply_seconds.observe(seconds);
          max_latency = std::max(max_latency, seconds);
          have_latency = true;
        }
        telemetry_->batch_size.observe(static_cast<double>(batch.size()));
        telemetry_->queue_depth[q].set(
            static_cast<double>(remaining_depth));
        if (applied < batch.size()) {
          telemetry_->rejected_stale.inc(
              static_cast<std::uint64_t>(batch.size() - applied));
        }
      }
      if (options_.backpressure_hook && have_latency) {
        options_.backpressure_hook(batch.size(), max_latency);
      }

      if (!pending_spans.empty()) {
        // "Visible" is stamped after the telemetry/hook work above: it is
        // the moment a lookup issued now would see the applied batch with
        // all observability side effects settled. The four stages tile
        // [enqueued, visible] exactly, so their sum IS the span total.
        const auto visible = std::chrono::steady_clock::now();
        for (const PendingSpan& pending_span : pending_spans) {
          obs::LuSpan span;
          span.mn = pending_span.mn;
          span.seq = pending_span.seq;
          span.source = static_cast<std::uint32_t>(q);
          // A propagated context keeps its upstream id so every hop of the
          // cluster trace shares one trace_id; local sampling derives it.
          span.trace_id =
              pending_span.trace.trace_id != 0
                  ? pending_span.trace.trace_id
                  : obs::SpanTracer::trace_id(span.source, pending_span.mn,
                                              pending_span.seq);
          span.tid = obs::trace_thread_id();
          span.wall_us = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  visible.time_since_epoch())
                  .count());
          const double wal_seconds =
              static_cast<double>(pending_span.wal_ns) * 1e-9;
          const double to_apply_start =
              std::chrono::duration<double>(apply_start -
                                            pending_span.enqueued)
                  .count();
          span.stage_seconds[static_cast<std::size_t>(obs::LuStage::kWal)] =
              wal_seconds;
          span.stage_seconds[static_cast<std::size_t>(
              obs::LuStage::kQueue)] =
              std::max(0.0, to_apply_start - wal_seconds);
          span.stage_seconds[static_cast<std::size_t>(
              obs::LuStage::kApply)] =
              std::chrono::duration<double>(apply_end - apply_start).count();
          span.stage_seconds[static_cast<std::size_t>(
              obs::LuStage::kVisible)] =
              std::chrono::duration<double>(visible - apply_end).count();
          // Upstream stages from the propagated timestamps (monotonic us,
          // cross-process comparable on one machine); the network stage
          // ends at the enqueue stamp, the same steady clock. Untraced LUs
          // leave them 0, so the local four stages still tile the span
          // exactly.
          const wire::TraceContext& upstream = pending_span.trace;
          const auto enqueued_us = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  pending_span.enqueued.time_since_epoch())
                  .count());
          if (upstream.send_us > upstream.origin_us &&
              upstream.origin_us != 0) {
            span.stage_seconds[static_cast<std::size_t>(
                obs::LuStage::kRouterBatch)] =
                static_cast<double>(upstream.send_us - upstream.origin_us) *
                1e-6;
          }
          if (enqueued_us > upstream.send_us && upstream.send_us != 0) {
            span.stage_seconds[static_cast<std::size_t>(obs::LuStage::kNet)] =
                static_cast<double>(enqueued_us - upstream.send_us) * 1e-6;
          }
          for (const double stage : span.stage_seconds) {
            span.total_seconds += stage;
          }
          options_.spans->record("update_latency", span);
        }
      }

      if (pending_.fetch_sub(batch.size(), std::memory_order_acq_rel) ==
          batch.size()) {
        // Fully drained: the overload that triggered shedding has passed,
        // so lift degraded mode.
        if (shed_active_.exchange(false, std::memory_order_relaxed)) {
          directory_.set_degraded(false);
        }
        const std::lock_guard<std::mutex> lock(control_mutex_);
        idle_cv_.notify_all();
      }
    }
    if (!drained_any) {
      const std::lock_guard<std::mutex> lock(control_mutex_);
      if (stopping_) return;
    }
  }
}

IngestStats IngestPipeline::stats() const {
  IngestStats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  out.applied = applied_.load(std::memory_order_relaxed);
  out.rejected_stale = rejected_stale_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.shed_low_info = shed_low_info_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace mgrid::serve
