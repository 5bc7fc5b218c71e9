#include "serve/ingest.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/trace.h"

namespace mgrid::serve {

namespace {

/// How long a worker that just drained waits for more LUs before it looks
/// again. Short on purpose: it bounds how long an LU sits unapplied on a
/// live server, and a 1 ms linger measured slower tick barriers.
constexpr std::chrono::microseconds kLinger{50};

}  // namespace

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
  wake_depth_ = options_.batch_size;
  if (options_.queue_capacity > 0) {
    wake_depth_ = std::min(
        wake_depth_, std::max<std::size_t>(1, options_.queue_capacity / 2));
  }
  if (shed_threshold_ != std::numeric_limits<std::size_t>::max()) {
    wake_depth_ =
        std::min(wake_depth_, std::max<std::size_t>(1, shed_threshold_ / 2));
  }
  paused_.store(options_.start_paused, std::memory_order_relaxed);
  queues_.reserve(options_.sources);
  for (std::size_t i = 0; i < options_.sources; ++i) {
    queues_.push_back(std::make_unique<SourceQueue>());
    queues_.back()->batch.reserve(options_.batch_size);
  }
  worker_states_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    worker_states_.push_back(std::make_unique<WorkerState>());
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
  WorkerState& owner = *worker_states_[source % worker_states_.size()];
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
    ++queue.pushed;
    // Counted under the queue lock so it never runs behind a take. The
    // read-modify-write also orders this LU before the `parked` load below:
    // a worker that parks after it sees the LU in its depth recheck.
    owner.depth.fetch_add(1, std::memory_order_seq_cst);
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1, std::memory_order_acq_rel);
  if (telemetry) {
    telemetry_->accepted.inc();
    telemetry_->queue_depth[source].set(static_cast<double>(depth));
  }
  // Ring only a parked worker (the first submit to see it claims the ring)
  // or one whose queue just reached the wake depth; a lingering worker
  // picks the LU up on its next look.
  if (depth == wake_depth_ ||
      (owner.parked.load(std::memory_order_seq_cst) &&
       owner.parked.exchange(false, std::memory_order_acq_rel))) {
    ring(owner);
  }
  return true;
}

void IngestPipeline::ring(WorkerState& worker) {
  {
    const std::lock_guard<std::mutex> lock(worker.mutex);
    worker.rung = true;
  }
  worker.cv.notify_one();
}

void IngestPipeline::resume() {
  {
    const std::lock_guard<std::mutex> lock(control_mutex_);
    if (!paused_.load(std::memory_order_relaxed)) return;
    paused_.store(false, std::memory_order_release);
  }
  for (const std::unique_ptr<WorkerState>& worker : worker_states_) {
    ring(*worker);
  }
}

void IngestPipeline::flush() {
  resume();
  // Apply-side metrics land in the owner's registry, as on a worker.
  const obs::ScopedRegistry scoped_registry(*home_registry_);
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    SourceQueue& queue = *queues_[q];
    std::uint64_t target = 0;
    {
      const std::lock_guard<std::mutex> lock(queue.mutex);
      target = queue.pushed;
    }
    // One batch per drain-lock hold, so the owning worker can interleave
    // its own batches; `drained` is counted after each apply, so reaching
    // the target under the lock means the whole prefix is visible.
    for (;;) {
      const std::lock_guard<std::mutex> drain(queue.drain_mutex);
      if (queue.drained >= target) break;
      std::size_t remaining = 0;
      drain_batch(q, options_.batch_size, remaining);
    }
  }
}

void IngestPipeline::stop() {
  {
    const std::lock_guard<std::mutex> lock(control_mutex_);
    if (stopped_) return;
    stopped_ = true;
    accepting_.store(false, std::memory_order_release);
    paused_.store(false, std::memory_order_release);
    stopping_.store(true, std::memory_order_release);
  }
  for (const std::unique_ptr<WorkerState>& worker : worker_states_) {
    ring(*worker);
  }
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
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
  WorkerState& self = *worker_states_[worker_id];
  for (;;) {
    bool drained_any = false;
    bool backlog = false;
    if (!paused_.load(std::memory_order_acquire)) {
      for (std::size_t q = worker_id; q < queues_.size();
           q += options_.workers) {
        SourceQueue& queue = *queues_[q];
        const std::lock_guard<std::mutex> drain(queue.drain_mutex);
        std::size_t remaining = 0;
        if (drain_batch(q, options_.batch_size, remaining) > 0) {
          drained_any = true;
        }
        if (remaining >= wake_depth_) backlog = true;
      }
    }
    if (backlog) continue;  // a full batch is already waiting
    std::unique_lock<std::mutex> lock(self.mutex);
    if (drained_any) {
      // Linger: let LUs gather into the next batch instead of taking them
      // one wake-up at a time. A ring (wake depth, stop) cuts it short.
      self.cv.wait_for(lock, kLinger, [this, &self] {
        return self.rung || stopping_.load(std::memory_order_acquire);
      });
    } else {
      if (stopping_.load(std::memory_order_acquire) &&
          self.depth.load(std::memory_order_acquire) == 0) {
        return;  // stop() closed submits; everything owned is applied
      }
      // Park until rung. `parked` is published before the depth recheck in
      // the predicate; submit() counts depth before it loads `parked`, so
      // one of the two sees the other and no LU is left unrung.
      self.parked.store(true, std::memory_order_seq_cst);
      self.cv.wait(lock, [this, &self] {
        return stopping_.load(std::memory_order_acquire) ||
               (!paused_.load(std::memory_order_acquire) &&
                (self.rung ||
                 self.depth.load(std::memory_order_seq_cst) > 0));
      });
      self.parked.store(false, std::memory_order_relaxed);
    }
    self.rung = false;
  }
}

std::size_t IngestPipeline::drain_batch(std::size_t q, std::size_t max_lus,
                                        std::size_t& remaining) {
  SourceQueue& queue = *queues_[q];
  std::vector<ShardedDirectory::LuApply>& batch = queue.batch;
  std::vector<std::chrono::steady_clock::time_point>& enqueue_times =
      queue.enqueue_times;
  std::vector<PendingSpan>& pending_spans = queue.pending_spans;
  batch.clear();
  enqueue_times.clear();
  pending_spans.clear();
  {
    const std::lock_guard<std::mutex> lock(queue.mutex);
    const std::size_t take = std::min(max_lus, queue.lus.size());
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
    remaining = queue.lus.size();
    worker_states_[q % worker_states_.size()]->depth.fetch_sub(
        take, std::memory_order_relaxed);
  }
  if (batch.empty()) return 0;
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
    telemetry_->queue_depth[q].set(static_cast<double>(remaining));
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

  queue.drained += batch.size();
  if (pending_.fetch_sub(batch.size(), std::memory_order_acq_rel) ==
      batch.size()) {
    // Fully drained: the overload that triggered shedding has passed, so
    // lift degraded mode.
    if (shed_active_.exchange(false, std::memory_order_relaxed)) {
      directory_.set_degraded(false);
    }
  }
  return batch.size();
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
